package server

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ocqa "repro"
)

// instanceEntry is one registered instance: its conflict structure and
// constraint class, the block decomposition built at registration (or
// lazily after a mutation or a warm boot), and whatever else its queries
// build lazily — all shared by every query that names the instance.
// Mutations never modify an entry's instance in place: they install a
// fresh entry whose instance was derived copy-on-write, so in-flight
// queries keep a consistent view.
type instanceEntry struct {
	id       string
	name     string
	prepared *ocqa.Instance
	created  time.Time
	// gen counts the mutations applied to this id (1 at registration).
	// It is folded into result-cache keys, so a query computed against
	// an older generation can never be served — or cached — as current
	// after a mutation lands.
	gen int64
	// used is the registry-wide LRU clock value of the entry's last
	// lookup; updated atomically under the registry's read lock.
	used atomic.Int64
}

func (e *instanceEntry) info() InstanceInfo {
	in := e.prepared
	return InstanceInfo{
		ID:         e.id,
		Name:       e.name,
		Facts:      in.DB().Len(),
		Class:      in.Class().String(),
		Consistent: in.IsConsistent(),
		Prepared:   in.Class() == ocqa.PrimaryKeys,
		CreatedAt:  e.created.UTC().Format(time.RFC3339),
	}
}

// errNotFound distinguishes "no such instance" from mutation failures.
var errNotFound = errors.New("server: unknown instance")

// registry maps instance IDs to prepared instances behind an RWMutex:
// registration, removal and mutation take the write lock; the (vastly
// more frequent) per-query lookups share the read lock. cap bounds the
// number of live instances; at capacity, add evicts the
// least-recently-used entry instead of refusing, so a long-running
// service keeps absorbing new registrations.
type registry struct {
	mu      sync.RWMutex
	cap     int
	seq     int
	clock   atomic.Int64 // LRU clock, bumped on every lookup
	entries map[string]*instanceEntry
}

func newRegistry(capacity int) *registry {
	return &registry{cap: capacity, entries: make(map[string]*instanceEntry)}
}

// allocID reserves a fresh instance ID. IDs are allocated before the
// WAL record is written so the durable log and the in-memory registry
// agree on naming.
func (r *registry) allocID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return fmt.Sprintf("i%d", r.seq)
}

// add registers a prepared instance under the pre-allocated ID. When
// the registry is at (or, after a warm boot with a lowered cap, above)
// capacity, least-recently-used entries are evicted until the new
// entry fits, and returned so the caller can journal the evictions and
// drop their cached results.
func (r *registry) add(id, name string, prepared *ocqa.Instance, now time.Time) (e *instanceEntry, evicted []*instanceEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.entries) >= r.cap {
		v := r.evictLRULocked()
		if v == nil {
			break
		}
		evicted = append(evicted, v)
	}
	e = &instanceEntry{id: id, name: name, prepared: prepared, created: now, gen: 1}
	e.used.Store(r.clock.Add(1))
	r.entries[id] = e
	return e, evicted
}

// installExplicit registers a prepared instance under a caller-chosen
// id with an explicit starting generation: coordinator-minted ids at
// gen 1, and replica promotions carrying their source's mutation count
// so result-cache keys and watch ?since cursors stay monotone across a
// failover. Unlike add, a collision with a live id is an error — the
// caller owns naming, so silently overwriting would mask a split brain.
// Evictions behave as in add.
func (r *registry) installExplicit(id, name string, prepared *ocqa.Instance, created time.Time, gen int64) (e *instanceEntry, evicted []*instanceEntry, err error) {
	if gen < 1 {
		gen = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[id]; dup {
		return nil, nil, fmt.Errorf("instance id %q is already registered on this backend", id)
	}
	for len(r.entries) >= r.cap {
		v := r.evictLRULocked()
		if v == nil {
			break
		}
		evicted = append(evicted, v)
	}
	e = &instanceEntry{id: id, name: name, prepared: prepared, created: created, gen: gen}
	e.used.Store(r.clock.Add(1))
	r.entries[id] = e
	// Keep the auto-allocation sequence ahead of numeric explicit ids so
	// allocID never collides with one.
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "i")); err == nil && n > r.seq {
		r.seq = n
	}
	return e, evicted, nil
}

// evictLRU evicts the least-recently-used entry, if any; the boot path
// uses it to shrink a replayed registry down to a lowered capacity.
func (r *registry) evictLRU() *instanceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictLRULocked()
}

// evictLRULocked removes and returns the entry with the oldest lookup
// clock. The scan is O(capacity), which is bounded and tiny next to
// the preparation work a registration performs anyway.
func (r *registry) evictLRULocked() *instanceEntry {
	var victim *instanceEntry
	for _, e := range r.entries {
		if victim == nil || e.used.Load() < victim.used.Load() ||
			(e.used.Load() == victim.used.Load() && e.id < victim.id) {
			victim = e
		}
	}
	if victim != nil {
		delete(r.entries, victim.id)
	}
	return victim
}

// restore installs a replayed entry under its original ID without
// consuming a new sequence number beyond it; used only at boot, before
// the server accepts traffic.
func (r *registry) restore(id, name string, prepared *ocqa.Instance, created time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &instanceEntry{id: id, name: name, prepared: prepared, created: created, gen: 1}
	e.used.Store(r.clock.Add(1))
	r.entries[id] = e
	// Keep the ID sequence ahead of every restored ID so new
	// registrations never collide with a live instance.
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "i")); err == nil && n > r.seq {
		r.seq = n
	}
}

func (r *registry) get(id string) (*instanceEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if ok {
		e.used.Store(r.clock.Add(1))
	}
	return e, ok
}

// mutate atomically replaces the entry for id with the one f derives
// from it. f runs under the write lock: mutations serialise against
// each other (no lost updates between two concurrent inserts) and
// against registration/removal, while the copy-on-write instance keeps
// in-flight readers of the old entry consistent. f journalling to the
// WAL inside the critical section gives the log the same order the
// registry applied.
func (r *registry) mutate(id string, f func(*instanceEntry) (*instanceEntry, error)) (*instanceEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, errNotFound
	}
	ne, err := f(e)
	if err != nil {
		return nil, err
	}
	ne.used.Store(r.clock.Add(1))
	r.entries[id] = ne
	return ne, nil
}

func (r *registry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return false
	}
	delete(r.entries, id)
	return true
}

func (r *registry) list() []*instanceEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*instanceEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].created.Before(out[j].created) || out[i].created.Equal(out[j].created) && out[i].id < out[j].id
	})
	return out
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

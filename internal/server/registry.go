package server

import (
	"errors"
	"fmt"
	"math/rand/v2"
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
	// lineage names the history gen counts in: minted by every install
	// and carried by mutations. A restarted owner installs at gen 1 again,
	// so a follower trusts a generation only within its lineage.
	lineage string
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
// number of live instances; at capacity, install evicts the
// least-recently-used entry instead of refusing, so a long-running
// service keeps absorbing new registrations.
type registry struct {
	mu      sync.RWMutex
	cap     int // ≥ 1 (Options.fill)
	seq     int
	clock   atomic.Int64 // LRU clock, bumped on every lookup
	entries map[string]*instanceEntry
}

func newRegistry(capacity int) *registry {
	return &registry{cap: capacity, entries: make(map[string]*instanceEntry)}
}

// install is the one way an instance enters the registry: a
// registration (at generation 1), a promoted replica (carrying its
// source's mutation count, so result-cache keys and watch ?since
// cursors stay monotone across a failover) and a boot restore. Each
// install starts a new lineage, since none of them is known to continue
// the history a follower holds under the id. An empty id mints the next
// "i<n>"; a live id is refused, since silently overwriting would mask a
// split brain. Least-recently-used entries are evicted until the new one
// fits and returned, so the caller can journal them and drop their
// state; the scan is O(capacity), tiny next to the preparation a
// registration performs anyway. The sequence is kept ahead of numeric
// ids, so a minted id never collides with one.
func (r *registry) install(id, name string, inst *ocqa.Instance, created time.Time, gen int64) (e *instanceEntry, evicted []*instanceEntry, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == "" {
		r.seq++
		id = fmt.Sprintf("i%d", r.seq)
	} else if _, dup := r.entries[id]; dup {
		return nil, nil, fmt.Errorf("instance id %q is already registered on this backend", id)
	}
	for len(r.entries) >= r.cap {
		var victim *instanceEntry
		for _, v := range r.entries {
			if victim == nil || v.used.Load() < victim.used.Load() ||
				(v.used.Load() == victim.used.Load() && v.id < victim.id) {
				victim = v
			}
		}
		delete(r.entries, victim.id)
		evicted = append(evicted, victim)
	}
	e = &instanceEntry{id: id, name: name, prepared: inst, created: created, gen: gen, lineage: strconv.FormatUint(rand.Uint64(), 16)}
	e.used.Store(r.clock.Add(1))
	r.entries[id] = e
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "i")); err == nil && n > r.seq {
		r.seq = n
	}
	return e, evicted, nil
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

// remove takes id's entry out of the registry, or reports errNotFound.
// journal, when not nil, runs under the write lock before the entry
// leaves, so the removal reaches the WAL in the order the registry
// applied it, as mutate's records do; an error from it keeps the entry.
func (r *registry) remove(id string, journal func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return errNotFound
	}
	if journal != nil {
		if err := journal(); err != nil {
			return err
		}
	}
	delete(r.entries, id)
	return nil
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

package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fd"
	"repro/internal/rel"
)

// snapshotFile is the snapshot's name inside the data directory. WAL
// segments live alongside it as wal.<generation>.bin (segmentName);
// the snapshot is stamped with the generation of the segment that was
// current when it was captured, which is what makes the pair
// crash-consistent — see Compact.
const snapshotFile = "snapshot.bin"

var snapshotMagic = []byte("OCQS")

// Store snapshot container versions. Version 2 (decoded, never
// written) added the WAL generation stamp and inlines each instance as
// id, name, created and a v1 payload; version 3 holds one register
// frame per instance.
const (
	snapshotV2      = 2
	snapshotVersion = 3
)

// Options configures a Store.
type Options struct {
	// Dir is the data directory (created if absent).
	Dir string
	// Fsync syncs the WAL file after every append. Off by default: an
	// OS crash may then lose the tail of the log (a process crash loses
	// nothing either way); replay still stops cleanly at the tear.
	Fsync bool
	// CompactEvery triggers automatic compaction (snapshot + WAL
	// segment rotation, run on a background goroutine; appenders block
	// only for the segment swap, never for the snapshot I/O) once the
	// WAL holds that many records. 0 picks the default of 4096;
	// negative disables auto-compaction (explicit Compact still works).
	CompactEvery int
}

func (o *Options) fill() {
	switch {
	case o.CompactEvery == 0:
		o.CompactEvery = 4096
	case o.CompactEvery < 0:
		o.CompactEvery = 0
	}
}

// ErrUnknownInstance is wrapped by the error of a record naming an id
// the store holds no state for: an unregister, insert-fact or
// delete-fact that reaches it before its instance's register record.
var ErrUnknownInstance = errors.New("unknown instance")

// InstanceState is the durable view of one registered instance.
type InstanceState struct {
	ID      string
	Name    string
	Created time.Time
	DB      *rel.Database
	Sigma   *fd.Set
}

// Stats are the store's persistence counters, monotone over the
// store's lifetime (replayedOps counts boot replay only), except
// WalRecords: the records in the WAL not yet folded into a snapshot,
// which a compaction lowers.
type Stats struct {
	WalAppends  int64 `json:"wal_appends"`
	Snapshots   int64 `json:"snapshots"`
	ReplayedOps int64 `json:"replayed_ops"`
	Compactions int64 `json:"compactions"`
	CompactErrs int64 `json:"compact_errors"`
	WalRecords  int64 `json:"wal_records"`
	TornTail    bool  `json:"torn_tail_truncated"`
}

// Store is the durable instance store: a snapshot file plus an
// append-only WAL (generation-named segments) in one directory. It
// maintains the logical state (id → instance) so compaction can
// serialise it without help from the caller; the serving layer keeps
// its own prepared artifacts and treats the store as the system of
// record. A serving layer that applies its writes itself hands the
// store the resulting database with each record (Append), so the state
// points at the databases the layer serves instead of a second copy.
// All methods are safe for concurrent use.
type Store struct {
	opts Options

	mu      sync.Mutex
	wal     *os.File
	walGen  uint64 // generation of the segment wal writes to
	walOff  int64  // offset just past the last acknowledged frame in wal
	walOps  int    // records in the WAL not yet folded into a snapshot
	state   map[string]*InstanceState
	order   []string // ids in registration order, for deterministic snapshots
	closed  bool
	tornLog bool
	// failed latches when a failed append leaves a frame — partial, or
	// complete but unacknowledged — that truncation could not remove:
	// appending past it would let replay apply a record no client saw
	// succeed, or strand later records behind a tear. Compaction
	// retries the repair and refuses to retire a segment that keeps it.
	failed bool

	// compactMu serialises compactions (explicit Compact racing the
	// scheduled one) without blocking appenders, which only contend on
	// mu.
	compactMu sync.Mutex

	walAppends  atomic.Int64
	snapshots   atomic.Int64
	replayedOps atomic.Int64
	compactions atomic.Int64
	compactErrs atomic.Int64
	// compacting gates the single in-flight background compaction.
	compacting atomic.Bool
	// compactWG lets Close wait out a scheduled compaction.
	compactWG sync.WaitGroup

	// Crash-injection points, set only by tests. Returning early from
	// Compact models a process crash at that point: nothing after it
	// runs, and the next Open must recover from whatever is on disk.
	testCrashAfterSwap    bool // after the segment rotation, before the snapshot install
	testCrashAfterInstall bool // after the snapshot install, before stale segments are removed
}

// segmentName names the WAL segment for a generation. The zero-padding
// is cosmetic (listing order); parsing is numeric.
func segmentName(gen uint64) string {
	return fmt.Sprintf("wal.%06d.bin", gen)
}

func parseSegmentName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "wal.")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, ".bin")
	if !ok || digits == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

type walSegment struct {
	gen  uint64
	path string
}

func listSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range entries {
		if gen, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, walSegment{gen: gen, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].gen < segs[j].gen })
	return segs, nil
}

// syncDir flushes directory metadata so a freshly created or renamed
// file survives an OS crash.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Open loads the snapshot (if any), replays the live WAL segments over
// it, truncates any torn tail, and leaves the store ready for appends.
// Segments older than the snapshot's generation stamp are already
// folded into it (a crash can leave them behind — see Compact) and are
// deleted, never replayed. The replayed instances are available via
// Instances.
func Open(opts Options) (*Store, error) {
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, "wal.bin")); err == nil {
		return nil, fmt.Errorf("store: data dir %s holds a legacy single-file wal.bin; this build reads generation-named segments (wal.<gen>.bin) — migrate or remove the legacy log", opts.Dir)
	}
	st := &Store{opts: opts, state: make(map[string]*InstanceState)}

	snapGen, err := st.loadSnapshot()
	if err != nil {
		return nil, err
	}

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing WAL segments: %w", err)
	}
	live := segs[:0]
	for _, sg := range segs {
		if sg.gen < snapGen {
			// Replaying a stale segment would apply its records a second
			// time (and fail or corrupt: a duplicate insert-fact, an
			// unregister of an absent id, a delete-fact index resolving
			// to the wrong fact).
			if err := os.Remove(sg.path); err != nil {
				return nil, fmt.Errorf("store: removing stale WAL segment %s: %w", sg.path, err)
			}
			continue
		}
		live = append(live, sg)
	}

	for i, sg := range live {
		f, err := os.OpenFile(sg.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: opening WAL segment %s: %w", sg.path, err)
		}
		raw, err := io.ReadAll(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: replaying WAL: %w", err)
		}
		res := scanWAL(raw)
		for _, rec := range res.records {
			if err := st.apply(rec); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: replaying %s(%s): %w", rec.Kind, rec.ID, err)
			}
			st.replayedOps.Add(1)
		}
		st.walOps += len(res.records)
		if res.torn {
			// A torn record was never acknowledged (the append rolled it
			// back and latched the store failed), so records in later
			// segments never built on it: truncate the tear and keep
			// replaying.
			if err := f.Truncate(res.goodLen); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
			}
			st.tornLog = true
		}
		if i == len(live)-1 {
			if _, err := f.Seek(res.goodLen, 0); err != nil {
				f.Close()
				return nil, err
			}
			st.wal, st.walGen, st.walOff = f, sg.gen, res.goodLen
		} else {
			f.Close()
		}
	}
	if st.wal == nil {
		wal, err := os.OpenFile(filepath.Join(opts.Dir, segmentName(snapGen)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: opening WAL: %w", err)
		}
		st.wal, st.walGen = wal, snapGen
	}
	return st, nil
}

// Instances returns the current logical state in registration order.
// The returned states share the store's immutable databases; callers
// must not mutate them.
func (st *Store) Instances() []*InstanceState {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*InstanceState, 0, len(st.order))
	for _, id := range st.order {
		if s, ok := st.state[id]; ok {
			out = append(out, s)
		}
	}
	return out
}

// Stats returns the persistence counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	walRecords := int64(st.walOps)
	torn := st.tornLog
	st.mu.Unlock()
	return Stats{
		WalAppends:  st.walAppends.Load(),
		Snapshots:   st.snapshots.Load(),
		ReplayedOps: st.replayedOps.Load(),
		Compactions: st.compactions.Load(),
		CompactErrs: st.compactErrs.Load(),
		WalRecords:  walRecords,
		TornTail:    torn,
	}
}

// Close waits out any scheduled compaction, then flushes and closes
// the WAL. The store must not be used after.
func (st *Store) Close() error {
	st.compactWG.Wait()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if err := st.wal.Sync(); err != nil {
		st.wal.Close()
		return err
	}
	return st.wal.Close()
}

// --- logging --------------------------------------------------------------

// LogRegister journals a registration. The database and FD set are
// embedded as a v2 instance payload, so replay needs no other files.
func (st *Store) LogRegister(id, name string, created time.Time, d *rel.Database, sigma *fd.Set) error {
	return st.log(Record{Kind: OpRegister, ID: id, Name: name, Created: created, DB: d, Sigma: sigma})
}

// LogUnregister journals a deregistration (explicit delete or LRU
// eviction — durably they are the same operation).
func (st *Store) LogUnregister(id string) error {
	return st.log(Record{Kind: OpUnregister, ID: id})
}

// LogInsertFact journals an incremental fact insertion.
func (st *Store) LogInsertFact(id string, f rel.Fact) error {
	return st.log(Record{Kind: OpInsertFact, ID: id, Fact: f})
}

// LogDeleteFact journals an incremental fact deletion by the fact's
// index in the instance's (sorted, deterministic) fact order at the
// time of the delete — replay applies operations in order, so the
// index resolves to the same fact.
func (st *Store) LogDeleteFact(id string, index int) error {
	return st.log(Record{Kind: OpDeleteFact, ID: id, Index: index})
}

func (st *Store) log(rec Record) error { return st.append(rec, rec.Frame(), nil) }

// Append journals one insert-fact or delete-fact frame built by
// Record.Frame — the caller keeps the very bytes the WAL holds, e.g. to
// ship them to followers — together with db, the database the
// record's write left the instance with. The caller has applied the
// record already, and databases are immutable, so the store keeps db
// as the instance's state instead of applying the record again to a
// copy of its own. It refuses a db whose fact count is not its state's
// plus one (insert) or minus one (delete).
func (st *Store) Append(frame []byte, db *rel.Database) error {
	recs, err := DecodeFrames(frame)
	if err != nil {
		return err
	}
	if len(recs) != 1 {
		return fmt.Errorf("store: Append takes one frame, got %d", len(recs))
	}
	if k := recs[0].Kind; k != OpInsertFact && k != OpDeleteFact {
		return fmt.Errorf("store: Append takes an insert-fact or delete-fact frame, got %s", k)
	}
	if db == nil {
		return fmt.Errorf("store: Append of %s(%s) without the database it leaves", recs[0].Kind, recs[0].ID)
	}
	return st.append(recs[0], frame, db)
}

// append folds the record into the logical state — adopting db, the
// database a fact record leaves, when the caller passes it, applying
// the record otherwise — writes its frame to the WAL, and schedules
// compaction when the WAL has grown past the threshold. The state is
// updated first (under the same lock) so a record that cannot apply —
// an unknown id, say — is rejected before it reaches the log; a record
// that fails to *write* is rolled back, so a failure the client saw
// never persists, in memory or on disk.
func (st *Store) append(rec Record, frame []byte, db *rel.Database) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("store: closed")
	}
	if st.failed {
		return fmt.Errorf("store: WAL failed a previous append; compact or restart to recover")
	}
	undo, err := st.applyWithUndo(rec, db)
	if err != nil {
		return err
	}
	if _, err := st.wal.Write(frame); err != nil {
		// The file may now hold part of the frame; appending after it
		// would bury every later record behind a torn one that replay
		// cannot pass. Cut the tail back to the last good offset, or
		// latch the store failed if even that is impossible.
		undo()
		if !st.repairTailLocked() {
			st.failed = true
		}
		return fmt.Errorf("store: appending %s(%s): %w", rec.Kind, rec.ID, err)
	}
	if st.opts.Fsync {
		if err := st.wal.Sync(); err != nil {
			// The frame is COMPLETE in the file (only its durability is
			// unknown) — replay could not tell it from an acknowledged
			// record, so it must be truncated away, not left for a tear
			// scan that would never flag it.
			undo()
			if !st.repairTailLocked() {
				st.failed = true
			}
			return fmt.Errorf("store: syncing %s(%s): %w", rec.Kind, rec.ID, err)
		}
	}
	st.walOff += int64(len(frame))
	st.walOps++
	st.walAppends.Add(1)
	if st.opts.CompactEvery > 0 && st.walOps >= st.opts.CompactEvery {
		st.scheduleCompaction()
	}
	return nil
}

// repairTailLocked removes the remains of a failed append — a partial
// frame, or a complete frame the client never saw acknowledged — by
// truncating the WAL back to the last good offset and syncing the
// truncation down so an OS crash cannot resurrect the frame. Reports
// whether the tail is clean again.
func (st *Store) repairTailLocked() bool {
	if st.wal.Truncate(st.walOff) != nil {
		return false
	}
	if _, err := st.wal.Seek(st.walOff, 0); err != nil {
		return false
	}
	return st.wal.Sync() == nil
}

// scheduleCompaction kicks off one background compaction (at most one
// in flight). Compaction holds the store mutex only for the segment
// swap and state capture — a fact mutation inside the server's
// registry write lock never pays for (or blocks the query plane on) a
// full snapshot.
func (st *Store) scheduleCompaction() {
	if !st.compacting.CompareAndSwap(false, true) {
		return
	}
	st.compactWG.Add(1)
	go func() {
		defer st.compactWG.Done()
		defer st.compacting.Store(false)
		if err := st.Compact(); err != nil {
			// The WAL keeps absorbing appends; replay just has more to
			// do at the next boot. Surface through the stats.
			st.compactErrs.Add(1)
		}
	}()
}

// applyWithUndo is apply (or, for a fact record with db, adopt) plus a
// closure restoring the prior state, used to roll a mutation back when
// its WAL write fails. The undo closures restore pointers into
// immutable values (databases are copy-on-write), so they are exact,
// not best-effort.
func (st *Store) applyWithUndo(rec Record, db *rel.Database) (func(), error) {
	switch rec.Kind {
	case OpRegister, OpUnregister:
		prev, had := st.state[rec.ID]
		order := append([]string(nil), st.order...)
		undo := func() {
			delete(st.state, rec.ID)
			if had {
				st.state[rec.ID] = prev
			}
			st.order = order
		}
		return undo, st.apply(rec)
	case OpInsertFact, OpDeleteFact:
		s, ok := st.state[rec.ID]
		if !ok {
			return func() {}, st.apply(rec) // apply will report the error
		}
		prevDB := s.DB
		undo := func() { s.DB = prevDB }
		if db != nil {
			return undo, s.adopt(rec, db)
		}
		return undo, st.apply(rec)
	default:
		return func() {}, st.apply(rec)
	}
}

// adopt makes db, the database the fact record rec left the instance
// with, the instance's state, after the one check that needs no
// re-application: db holds one fact more (insert) or fewer (delete)
// than the state.
func (s *InstanceState) adopt(rec Record, db *rel.Database) error {
	want := s.DB.Len() + 1
	if rec.Kind == OpDeleteFact {
		want = s.DB.Len() - 1
	}
	if db.Len() != want {
		return fmt.Errorf("store: %s(%s) leaves %d facts, want %d", rec.Kind, rec.ID, db.Len(), want)
	}
	s.DB = db
	return nil
}

// apply folds one record into the logical state.
func (st *Store) apply(rec Record) error {
	switch rec.Kind {
	case OpRegister:
		if _, dup := st.state[rec.ID]; dup {
			// Replay after id reuse (unregister + re-register across a
			// compaction boundary can interleave); last write wins.
			st.removeFromOrder(rec.ID)
		}
		st.state[rec.ID] = &InstanceState{
			ID:      rec.ID,
			Name:    rec.Name,
			Created: rec.Created,
			DB:      rec.DB,
			Sigma:   rec.Sigma,
		}
		st.order = append(st.order, rec.ID)
	case OpUnregister:
		if _, ok := st.state[rec.ID]; !ok {
			return fmt.Errorf("store: unregister of %w %q", ErrUnknownInstance, rec.ID)
		}
		delete(st.state, rec.ID)
		st.removeFromOrder(rec.ID)
	case OpInsertFact:
		s, ok := st.state[rec.ID]
		if !ok {
			return fmt.Errorf("store: insert-fact into %w %q", ErrUnknownInstance, rec.ID)
		}
		nd, _, fresh := s.DB.Insert(rec.Fact)
		if !fresh {
			return fmt.Errorf("store: insert-fact duplicate %v in %q", rec.Fact, rec.ID)
		}
		s.DB = nd
	case OpDeleteFact:
		s, ok := st.state[rec.ID]
		if !ok {
			return fmt.Errorf("store: delete-fact from %w %q", ErrUnknownInstance, rec.ID)
		}
		if rec.Index < 0 || rec.Index >= s.DB.Len() {
			return fmt.Errorf("store: delete-fact index %d out of range for %q (%d facts)", rec.Index, rec.ID, s.DB.Len())
		}
		s.DB = s.DB.Remove(rec.Index)
	default:
		return fmt.Errorf("store: unknown record kind %d", rec.Kind)
	}
	return nil
}

func (st *Store) removeFromOrder(id string) {
	for i, v := range st.order {
		if v == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			return
		}
	}
}

// --- snapshot + compaction ------------------------------------------------

// Compact folds the current state into a fresh snapshot and retires
// the old WAL. The store mutex is held only to rotate the WAL to a
// fresh segment and capture a copy of the state (cheap: the databases
// are copy-on-write values, so capturing pins pointers); the snapshot
// encode, write, fsync and rename run without it, so appenders and the
// query plane never wait on snapshot I/O.
//
// Crash safety is by generation pairing. Each snapshot is stamped with
// the generation of the WAL segment opened at capture time
// (wal.<gen>.bin), and boot deletes — never replays — segments older
// than the stamp. Whichever side of the snapshot install a crash
// lands on, boot sees a consistent pair:
//
//   - before the install: the old snapshot, the old segment (complete,
//     synced before the swap), and the new segment (post-swap
//     appends), replayed in generation order;
//   - after the install: the new snapshot, whose stamp retires the old
//     segment, plus the new segment.
//
// A WAL record is therefore never replayed over a snapshot that
// already folds it in.
func (st *Store) Compact() error {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()

	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	oldWAL, gen := st.wal, st.walGen+1
	st.mu.Unlock()

	// Make the retiring segment durable before any record can land in
	// its successor: replay assumes a segment is complete once a later
	// one has records, so the old segment's tail must not be lost to an
	// OS crash that spares the new one. The bulk of the sync happens
	// here, unlocked; the short re-sync below (under the mutex) flushes
	// only appends that raced in between. walGen and wal are stable
	// across the gap: only Compact changes them, and compactMu is held.
	if err := oldWAL.Sync(); err != nil {
		return fmt.Errorf("store: syncing WAL before compaction: %w", err)
	}
	segPath := filepath.Join(st.opts.Dir, segmentName(gen))
	seg, err := os.OpenFile(segPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating WAL segment: %w", err)
	}
	if err := syncDir(st.opts.Dir); err != nil {
		seg.Close()
		os.Remove(segPath)
		return fmt.Errorf("store: syncing data dir: %w", err)
	}

	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		seg.Close()
		os.Remove(segPath)
		return fmt.Errorf("store: closed")
	}
	if st.failed {
		// The retiring segment may end in the remains of a failed
		// append (a complete frame replay could not tell from an
		// acknowledged record). It must not be rotated out of reach of
		// repair with that tail in place.
		if !st.repairTailLocked() {
			st.mu.Unlock()
			seg.Close()
			os.Remove(segPath)
			return fmt.Errorf("store: WAL tail unrepairable; refusing to retire the segment")
		}
		st.failed = false
	}
	if err := st.wal.Sync(); err != nil {
		st.mu.Unlock()
		seg.Close()
		os.Remove(segPath)
		return fmt.Errorf("store: syncing WAL before compaction: %w", err)
	}
	st.wal, st.walGen, st.walOff = seg, gen, 0
	// walOps keeps counting the retiring segment's records: they remain
	// replay debt until the snapshot that folds them in is installed.
	captured := st.walOps
	states := make([]InstanceState, 0, len(st.order))
	for _, id := range st.order {
		states = append(states, *st.state[id])
	}
	st.mu.Unlock()

	oldWAL.Close() // no further writes; boot replays it only until the snapshot installs

	if st.testCrashAfterSwap {
		return nil
	}
	if err := st.writeSnapshot(gen, states); err != nil {
		// The pair stays consistent: the snapshot still carries the old
		// stamp, so boot replays the retired segment and then this one,
		// and walOps still counts both.
		return err
	}
	st.mu.Lock()
	st.walOps -= captured // the install retired the captured records
	st.mu.Unlock()
	if st.testCrashAfterInstall {
		return nil
	}
	// The install retired every older segment; removal is cleanup, and
	// boot redoes it if a crash (or an error here) leaves one behind.
	if segs, err := listSegments(st.opts.Dir); err == nil {
		for _, sg := range segs {
			if sg.gen < gen {
				os.Remove(sg.path)
			}
		}
	}
	st.compactions.Add(1)
	return nil
}

// writeSnapshot serialises a captured state:
//
//	magic "OCQS" | uvarint snapshotVersion | uvarint generation |
//	uvarint count | one register frame per instance |
//	uint32 LE IEEE-CRC32 of everything before it
//
// It runs without the store mutex: the states are value copies whose
// DB/Sigma pointers are immutable, so concurrent mutations build new
// databases and cannot reach them.
func (st *Store) writeSnapshot(gen uint64, states []InstanceState) error {
	var b bytes.Buffer
	b.Write(snapshotMagic)
	putUvarint(&b, snapshotVersion)
	putUvarint(&b, gen)
	putUvarint(&b, uint64(len(states)))
	for _, s := range states {
		b.Write(Record{Kind: OpRegister, ID: s.ID, Name: s.Name, Created: s.Created, DB: s.DB, Sigma: s.Sigma}.Frame())
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b.Bytes()))
	b.Write(crc[:])

	tmp := filepath.Join(st.opts.Dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp file: %w", err)
	}
	if _, err := f.Write(b.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(st.opts.Dir, snapshotFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	if err := syncDir(st.opts.Dir); err != nil {
		return fmt.Errorf("store: syncing data dir: %w", err)
	}
	st.snapshots.Add(1)
	return nil
}

// loadSnapshot reads the snapshot file into the state map and returns
// its generation stamp; a missing file is an empty store at generation
// zero. A corrupt snapshot is a hard error — unlike the WAL tail, the
// snapshot is written atomically, so damage means operator-level
// trouble (disk fault), not a crash signature.
func (st *Store) loadSnapshot() (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(st.opts.Dir, snapshotFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading snapshot: %w", err)
	}
	if len(raw) < len(snapshotMagic)+4 || !bytes.Equal(raw[:len(snapshotMagic)], snapshotMagic) {
		return 0, fmt.Errorf("store: snapshot has bad magic")
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, fmt.Errorf("store: snapshot checksum mismatch")
	}
	rd := reader{bytes.NewReader(body[len(snapshotMagic):])}
	v, err := rd.uvarint()
	if err != nil {
		return 0, err
	}
	if v != snapshotV2 && v != snapshotVersion {
		return 0, fmt.Errorf("store: snapshot format version %d not supported (have %d)", v, snapshotVersion)
	}
	gen, err := rd.uvarint()
	if err != nil {
		return 0, fmt.Errorf("store: snapshot generation: %w", err)
	}
	n, err := rd.count("instance", 1<<20)
	if err != nil {
		return 0, err
	}
	frames := body[len(body)-rd.r.Len():]
	for i := 0; i < n; i++ {
		var rec Record
		if v == snapshotV2 {
			rec, err = decodeLegacyEntry(rd)
		} else {
			var payload []byte
			if payload, frames, err = nextFrame(frames); err == nil {
				rec, err = decodeRecord(owned(payload))
			}
			if err == nil && rec.Kind != OpRegister {
				err = fmt.Errorf("store: snapshot holds a %s record", rec.Kind)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("store: snapshot instance %d: %w", i, err)
		}
		if err := st.apply(rec); err != nil {
			return 0, fmt.Errorf("store: snapshot instance %d: %w", i, err)
		}
	}
	return gen, nil
}

// decodeLegacyEntry reads one instance of a version-2 snapshot: id,
// name, created, v1 payload.
func decodeLegacyEntry(rd reader) (Record, error) {
	rec := Record{Kind: OpRegister}
	var err error
	if rec.ID, err = rd.string_(); err != nil {
		return rec, err
	}
	if rec.Name, err = rd.string_(); err != nil {
		return rec, err
	}
	created, err := rd.uvarint()
	if err != nil {
		return rec, err
	}
	rec.Created = time.Unix(0, int64(created)).UTC()
	rec.DB, rec.Sigma, err = decodeInstanceV1(rd)
	return rec, err
}

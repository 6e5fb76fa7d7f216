package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/rel"
)

func fixture(t *testing.T) (*rel.Database, *fd.Set) {
	t.Helper()
	d := rel.NewDatabase(
		rel.NewFact("Emp", "1", "Alice"),
		rel.NewFact("Emp", "1", "Tom"),
		rel.NewFact("Emp", "2", "Bob"),
	)
	sch := rel.MustSchema(rel.NewRelation("Emp", 2))
	sigma := fd.MustSet(sch, fd.New("Emp", []int{0}, []int{1}))
	return d, sigma
}

func openStore(t *testing.T, dir string, opts ...func(*Options)) *Store {
	t.Helper()
	o := Options{Dir: dir}
	for _, f := range opts {
		f(&o)
	}
	st, err := Open(o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

func TestInstanceCodecRoundTrip(t *testing.T) {
	d, sigma := fixture(t)
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, d, sigma); err != nil {
		t.Fatal(err)
	}
	d2, sigma2, err := DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Equal(d) {
		t.Fatalf("database round trip: %v != %v", d2, d)
	}
	if sigma2.String() != sigma.String() {
		t.Fatalf("FD set round trip: %v != %v", sigma2, sigma)
	}
	if len(sigma2.Schema().Relations()) != len(sigma.Schema().Relations()) {
		t.Fatal("schema relation count diverges")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeInstance(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage magic accepted")
	}
	d, sigma := fixture(t)
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, d, sigma); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(instanceMagic)] = 99 // unsupported version
	if _, _, err := DecodeInstance(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown codec version accepted")
	}
}

func TestWALReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir)
	now := time.Date(2026, 7, 29, 12, 0, 0, 0, time.UTC)
	if err := st.LogRegister("i1", "emps", now, d, sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "3", "Eve")); err != nil {
		t.Fatal(err)
	}
	if err := st.LogRegister("i2", "other", now, d, sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.LogUnregister("i2"); err != nil {
		t.Fatal(err)
	}
	// Delete Emp(1,Tom): index in sorted order at this point.
	idx := 0
	for i := 0; i < 4; i++ {
		cur := st.Instances()[0].DB
		if cur.Fact(i).Equal(rel.NewFact("Emp", "1", "Tom")) {
			idx = i
			break
		}
	}
	if err := st.LogDeleteFact("i1", idx); err != nil {
		t.Fatal(err)
	}
	want := st.Instances()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	got := st2.Instances()
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("replayed %d instances, want 1 (pre-close %d)", len(got), len(want))
	}
	g, w := got[0], want[0]
	if g.ID != w.ID || g.Name != w.Name || !g.Created.Equal(w.Created) {
		t.Fatalf("replayed metadata %+v != %+v", g, w)
	}
	if !g.DB.Equal(w.DB) {
		t.Fatalf("replayed database %v != %v", g.DB, w.DB)
	}
	if g.Sigma.String() != w.Sigma.String() {
		t.Fatalf("replayed FDs %v != %v", g.Sigma, w.Sigma)
	}
	if n := st2.Stats().ReplayedOps; n != 5 {
		t.Fatalf("replayed_ops = %d, want 5", n)
	}
}

// TestCrashRecoveryTruncatedTail kills the WAL mid-append at every
// possible byte boundary of the final record and asserts boot replays
// cleanly up to the last complete record — the crash-recovery
// satellite.
func TestCrashRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir)
	now := time.Now()
	if err := st.LogRegister("i1", "emps", now, d, sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "4", "Zed")); err != nil {
		t.Fatal(err)
	}
	walLenAfterTwo, err := st.wal.Seek(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "5", "Late")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, segmentName(0))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := walLenAfterTwo + 1; cut < int64(len(full)); cut++ {
		crash := t.TempDir()
		if err := os.WriteFile(filepath.Join(crash, segmentName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2 := openStore(t, crash)
		got := st2.Instances()
		if len(got) != 1 {
			t.Fatalf("cut %d: %d instances", cut, len(got))
		}
		if got[0].DB.Len() != 4 { // 3 base + Zed, not Late
			t.Fatalf("cut %d: replayed %d facts, want 4 (%v)", cut, got[0].DB.Len(), got[0].DB)
		}
		if got[0].DB.Contains(rel.NewFact("Emp", "5", "Late")) {
			t.Fatalf("cut %d: torn record was applied", cut)
		}
		stats := st2.Stats()
		if !stats.TornTail {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if stats.ReplayedOps != 2 {
			t.Fatalf("cut %d: replayed_ops = %d, want 2", cut, stats.ReplayedOps)
		}
		// The tail must have been truncated so the store can append again.
		if err := st2.LogInsertFact("i1", rel.NewFact("Emp", "6", "After")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		st3 := openStore(t, crash)
		if got := st3.Instances(); got[0].DB.Len() != 5 {
			t.Fatalf("cut %d: post-recovery append lost (%d facts)", cut, got[0].DB.Len())
		}
		st3.Close()
	}
}

// TestCrashRecoveryCorruptTail flips a byte in the last record's
// payload (checksum mismatch, not a short read) and asserts the same
// truncate-to-last-complete behaviour.
func TestCrashRecoveryCorruptTail(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir)
	if err := st.LogRegister("i1", "emps", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "5", "Late")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	walPath := filepath.Join(dir, segmentName(0))
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	got := st2.Instances()
	if len(got) != 1 || got[0].DB.Len() != 3 {
		t.Fatalf("corrupt tail: replayed %v", got)
	}
	if !st2.Stats().TornTail {
		t.Fatal("corruption not reported as torn tail")
	}
}

func TestCompactionSnapshotsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir, func(o *Options) { o.CompactEvery = -1 })
	if err := st.LogRegister("i1", "emps", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.LogInsertFact("i1", rel.NewFact("Emp", "9", string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Compactions != 1 || stats.Snapshots != 1 || stats.WalRecords != 0 {
		t.Fatalf("post-compaction stats %+v", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(0))); !os.IsNotExist(err) {
		t.Fatalf("retired WAL segment survived compaction: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil || fi.Size() != 0 {
		t.Fatalf("fresh WAL segment missing or non-empty: %v, %v", fi, err)
	}
	// Post-compaction appends land in the fresh WAL; reopen sees both.
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "9", "zz")); err != nil {
		t.Fatal(err)
	}
	want := st.Instances()[0].DB
	st.Close()
	st2 := openStore(t, dir)
	defer st2.Close()
	if got := st2.Instances()[0].DB; !got.Equal(want) {
		t.Fatalf("snapshot+WAL reopen: %v != %v", got, want)
	}
	if st2.Stats().ReplayedOps != 1 {
		t.Fatalf("replayed_ops after compaction = %d, want 1", st2.Stats().ReplayedOps)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir, func(o *Options) { o.CompactEvery = 5 })
	if err := st.LogRegister("i1", "emps", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := st.LogInsertFact("i1", rel.NewFact("Emp", "9", string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction runs on a background goroutine; poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no auto-compaction after threshold: %+v", st.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := st.Instances()[0].DB
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: snapshot + residual WAL must reproduce the state.
	st2 := openStore(t, dir)
	defer st2.Close()
	if got := st2.Instances()[0].DB; !got.Equal(want) {
		t.Fatalf("state after auto-compaction reopen: %v != %v", got, want)
	}
}

func TestAppendRejectsUnappliableRecords(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	if err := st.LogUnregister("ghost"); err == nil {
		t.Fatal("unregister of unknown instance accepted")
	}
	if err := st.LogInsertFact("ghost", rel.NewFact("R", "x")); err == nil {
		t.Fatal("insert into unknown instance accepted")
	}
	d, sigma := fixture(t)
	if err := st.LogRegister("i1", "", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "1", "Alice")); err == nil {
		t.Fatal("duplicate fact insert accepted")
	}
	if err := st.LogDeleteFact("i1", 99); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	// None of the rejected records may have reached the WAL.
	if got := st.Stats().WalAppends; got != 1 {
		t.Fatalf("wal_appends = %d, want 1", got)
	}
}

// TestAppendAdoptsDatabase: Append keeps the database the caller's
// write left as the instance's state, the same pointer, and refuses a
// database whose fact count the record cannot explain, a frame that is
// not a fact write, and an id with no register record — none of which
// reaches the WAL. Replay applies the journalled records and arrives at
// an Equal database.
func TestAppendAdoptsDatabase(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	d, sigma := fixture(t)
	if err := st.LogRegister("i1", "", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	f := rel.NewFact("Emp", "2", "Carol")
	ins := Record{Kind: OpInsertFact, ID: "i1", Fact: f}.Frame()
	d2, _, _ := d.Insert(f)
	if err := st.Append(ins, d); err == nil {
		t.Fatal("insert-fact with an unchanged database accepted")
	}
	if err := st.Append(Record{Kind: OpUnregister, ID: "i1"}.Frame(), d); err == nil {
		t.Fatal("unregister frame accepted")
	}
	if err := st.Append(Record{Kind: OpInsertFact, ID: "ghost", Fact: f}.Frame(), d2); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("insert-fact into an unregistered id: %v, want ErrUnknownInstance", err)
	}
	if err := st.Append(ins, d2); err != nil {
		t.Fatal(err)
	}
	if got := st.Instances()[0].DB; got != d2 {
		t.Fatal("the state is not the database passed to Append")
	}
	d3 := d2.Remove(0)
	if err := st.Append(Record{Kind: OpDeleteFact, ID: "i1", Index: 0}.Frame(), d3); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().WalAppends; got != 3 {
		t.Fatalf("wal_appends = %d, want 3 (register, insert, delete)", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	if got := st2.Instances()[0].DB; !got.Equal(d3) {
		t.Fatalf("replay gives %v, want %v", got, d3)
	}
}

// TestCompactionCrashBeforeSnapshotInstall models a crash in the window
// after the WAL rotates to a fresh segment but before the new snapshot
// is installed: boot must replay the retired segment in full and then
// the fresh one, in generation order.
func TestCompactionCrashBeforeSnapshotInstall(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir, func(o *Options) { o.CompactEvery = -1 })
	if err := st.LogRegister("i1", "emps", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "7", "Pre")); err != nil {
		t.Fatal(err)
	}
	st.testCrashAfterSwap = true
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// Appends after the swap land in the new segment.
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "8", "Post")); err != nil {
		t.Fatal(err)
	}
	want := st.Instances()[0].DB
	// The retiring segment's records stay replay debt until a snapshot
	// actually installs; only Post-swap bookkeeping would report 1.
	if n := st.Stats().WalRecords; n != 3 {
		t.Fatalf("wal_records before the snapshot install = %d, want 3", n)
	}
	// Simulated crash: abandon st without Close.

	st2 := openStore(t, dir)
	defer st2.Close()
	got := st2.Instances()
	if len(got) != 1 || !got[0].DB.Equal(want) {
		t.Fatalf("state after mid-compaction crash: %v, want %v", got, want)
	}
	// register + Pre from the retired segment, Post from the fresh one.
	if n := st2.Stats().ReplayedOps; n != 3 {
		t.Fatalf("replayed_ops = %d, want 3", n)
	}
}

// TestCompactionRepairsUnacknowledgedTail: an append whose fsync fails
// can leave a COMPLETE frame in the WAL for a record the client never
// saw succeed (memory is rolled back; a tear scan cannot flag the
// frame). Compaction must truncate that frame away before retiring the
// segment, or a crash before the snapshot install would replay it.
func TestCompactionRepairsUnacknowledgedTail(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir, func(o *Options) { o.CompactEvery = -1 })
	if err := st.LogRegister("i1", "emps", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	// Plant the phantom: frame fully written, store latched failed, as
	// the append path leaves things when fsync and the tail repair both
	// fail transiently.
	st.mu.Lock()
	frame := Record{Kind: OpInsertFact, ID: "i1", Fact: rel.NewFact("Emp", "9", "Phantom")}.Frame()
	if _, err := st.wal.Write(frame); err != nil {
		st.mu.Unlock()
		t.Fatal(err)
	}
	st.failed = true
	st.mu.Unlock()

	st.testCrashAfterSwap = true
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// The rotation repaired the tail, so the latch is clear and appends
	// (landing in the fresh segment) work again.
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "8", "Post")); err != nil {
		t.Fatalf("append after tail repair: %v", err)
	}
	want := st.Instances()[0].DB
	// Simulated crash before the snapshot install: boot replays the
	// retired segment in full — the phantom must not be in it.
	st2 := openStore(t, dir)
	defer st2.Close()
	got := st2.Instances()[0].DB
	if got.Contains(rel.NewFact("Emp", "9", "Phantom")) {
		t.Fatal("unacknowledged frame survived segment retirement and was replayed")
	}
	if !got.Equal(want) {
		t.Fatalf("state after repair + crash: %v, want %v", got, want)
	}
}

// TestOpenRejectsLegacyWAL: a data dir written by the pre-segment
// format holds a single wal.bin; silently ignoring it would drop its
// acknowledged records.
func TestOpenRejectsLegacyWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.bin"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("legacy single-file wal.bin silently ignored")
	}
}

// TestCompactionCrashBeforeSegmentRemoval models a crash in the window
// after the snapshot install but before the retired WAL segment is
// removed. The snapshot already contains the segment's effects, so boot
// must ignore (and delete) it — replaying it used to fail boot on a
// duplicate insert-fact or an unregister of an absent instance, and to
// resolve a delete-fact index against the wrong fact.
func TestCompactionCrashBeforeSegmentRemoval(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir, func(o *Options) { o.CompactEvery = -1 })
	// One of each record kind that poisons a double replay.
	if err := st.LogRegister("i1", "emps", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.LogInsertFact("i1", rel.NewFact("Emp", "7", "Pre")); err != nil {
		t.Fatal(err)
	}
	if err := st.LogRegister("i2", "gone", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.LogUnregister("i2"); err != nil {
		t.Fatal(err)
	}
	if err := st.LogDeleteFact("i1", 0); err != nil {
		t.Fatal(err)
	}
	st.testCrashAfterInstall = true
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	want := st.Instances()[0].DB
	if _, err := os.Stat(filepath.Join(dir, segmentName(0))); err != nil {
		t.Fatalf("test setup: retired segment should still be on disk: %v", err)
	}
	// Simulated crash: abandon st without Close.

	st2 := openStore(t, dir)
	got := st2.Instances()
	if len(got) != 1 || !got[0].DB.Equal(want) {
		t.Fatalf("state after post-install crash: %v, want %v", got, want)
	}
	// The stale segment was deleted, not replayed.
	if n := st2.Stats().ReplayedOps; n != 0 {
		t.Fatalf("replayed_ops = %d, want 0 (stale segment replayed)", n)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(0))); !os.IsNotExist(err) {
		t.Fatalf("stale segment not removed at boot: %v", err)
	}
	// The recovered store keeps working across another reopen.
	if err := st2.LogInsertFact("i1", rel.NewFact("Emp", "9", "After")); err != nil {
		t.Fatal(err)
	}
	want = st2.Instances()[0].DB
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openStore(t, dir)
	defer st3.Close()
	if got := st3.Instances()[0].DB; !got.Equal(want) {
		t.Fatalf("state after recovery reopen: %v, want %v", got, want)
	}
}

// TestAppendsDuringCompactionSurvive races Log* against explicit
// compactions: appends must never block on (or be lost to) snapshot
// I/O, and the snapshot/WAL pair must reproduce the final state.
func TestAppendsDuringCompactionSurvive(t *testing.T) {
	dir := t.TempDir()
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	st := openStore(t, dir, func(o *Options) { o.CompactEvery = -1 })
	if err := st.LogRegister("i1", "bench", time.Now(), rel.NewDatabase(), sigma); err != nil {
		t.Fatal(err)
	}
	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := st.LogInsertFact("i1", rel.NewFact("R", fmt.Sprintf("k%d", i), "v")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	want := st.Instances()[0].DB
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	got := st2.Instances()[0].DB
	if got.Len() != n || !got.Equal(want) {
		t.Fatalf("reopen after racing compactions: %d facts, want %d", got.Len(), n)
	}
}

// TestFailedAppendRestoresRegistrationOrder: rolling back a register
// over an existing id must put the id back at its original position in
// the registration order, not at the end.
func TestFailedAppendRestoresRegistrationOrder(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir)
	for _, id := range []string{"a", "b", "c"} {
		if err := st.LogRegister(id, "orig-"+id, time.Now(), d, sigma); err != nil {
			t.Fatal(err)
		}
	}
	// Fail the next WAL write by closing the file out from under the
	// store (the undo path then runs and the failed latch engages).
	st.wal.Close()
	if err := st.LogRegister("b", "again", time.Now(), d, sigma); err == nil {
		t.Fatal("append on a closed WAL succeeded")
	}
	got := st.Instances()
	if len(got) != 3 {
		t.Fatalf("%d instances after rollback, want 3", len(got))
	}
	for i, wantID := range []string{"a", "b", "c"} {
		if got[i].ID != wantID {
			t.Fatalf("registration order after rollback: %v at %d, want %v", got[i].ID, i, wantID)
		}
	}
	if got[1].Name != "orig-b" {
		t.Fatalf("rolled-back register left name %q, want %q", got[1].Name, "orig-b")
	}
}

func TestFsyncOption(t *testing.T) {
	dir := t.TempDir()
	d, sigma := fixture(t)
	st := openStore(t, dir, func(o *Options) { o.Fsync = true })
	if err := st.LogRegister("i1", "", time.Now(), d, sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// renderState renders a store's instances one per line, in the layout
// of testdata/v1-datadir.state.
func renderState(st *Store) string {
	var b bytes.Buffer
	for _, is := range st.Instances() {
		fmt.Fprintf(&b, "%s\t%s\t%d\t%s\t%s\n", is.ID, is.Name, is.Created.UnixNano(), is.DB, is.Sigma)
	}
	return b.String()
}

// frameKinds lists the kind byte of each frame in b.
func frameKinds(t *testing.T, b []byte) []OpKind {
	t.Helper()
	var kinds []OpKind
	for len(b) > 0 {
		payload, rest, err := nextFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, OpKind(payload[0]))
		b = rest
	}
	return kinds
}

// TestOpenSlotsDataDir boots testdata/v2-slots-datadir, written by the
// last release that stored a fact hash table in every v2 payload: a
// version-3 snapshot of two register records, then a segment holding a
// third register record, an insert and a delete. The replay must equal
// the state that release recorded (v2-slots-datadir.state), and so must
// a reopen after Compact rewrote the snapshot, whose register records
// now declare no lookup slots.
func TestOpenSlotsDataDir(t *testing.T) {
	src := filepath.Join("testdata", "v2-slots-datadir")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v2-slots-datadir.state"))
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	if got := renderState(st); got != string(want) {
		t.Fatalf("replay:\n%s\nwant:\n%s", got, want)
	}
	before := st.Instances()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	// magic | version | generation | count (one byte each here) | frames | CRC
	for b := snap[len(snapshotMagic)+3 : len(snap)-4]; len(b) > 0; {
		payload, rest, err := nextFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := registerSlots(t, payload); got != 0 {
			t.Fatalf("compacted register record declares %d lookup slots", got)
		}
		b = rest
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	if got := renderState(st2); got != string(want) {
		t.Fatalf("reopen after compaction:\n%s\nwant:\n%s", got, want)
	}
	for i, is := range st2.Instances() {
		if !is.DB.Equal(before[i].DB) {
			t.Fatalf("instance %s diverged across compaction", is.ID)
		}
	}
}

// TestOpenLegacyDataDir boots testdata/v1-datadir, written by the last
// release that wrote v1 payloads: a version-2 snapshot of two instances,
// then a segment holding a v1 register record, inserts, a delete and an
// unregister. The replay must equal the state that release recorded
// (v1-datadir.state), and so must a reopen after Compact rewrote the
// directory, whose snapshot and new register records are now v2.
func TestOpenLegacyDataDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapshotFile, segmentName(1)} {
		raw, err := os.ReadFile(filepath.Join("testdata", "v1-datadir", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v1-datadir.state"))
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	if got := renderState(st); got != string(want) {
		t.Fatalf("legacy replay:\n%s\nwant:\n%s", got, want)
	}
	before := st.Instances()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.LogRegister("i9", "new", time.Unix(0, 9), before[0].DB, before[0].Sigma); err != nil {
		t.Fatal(err)
	}
	if err := st.LogUnregister("i9"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	// magic | version | generation | count (one byte each here) | frames | CRC
	if snap[len(snapshotMagic)] != snapshotVersion {
		t.Fatalf("compacted snapshot has version %d, want %d", snap[len(snapshotMagic)], snapshotVersion)
	}
	for _, k := range frameKinds(t, snap[len(snapshotMagic)+3:len(snap)-4]) {
		if k != OpRegister {
			t.Fatalf("compacted snapshot holds a kind-%d record", k)
		}
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if kinds := frameKinds(t, seg); len(kinds) != 2 || kinds[0] != OpRegister {
		t.Fatalf("post-compaction segment kinds = %v, want a v2 register then an unregister", kinds)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	if got := renderState(st2); got != string(want) {
		t.Fatalf("reopen after compaction:\n%s\nwant:\n%s", got, want)
	}
	for i, is := range st2.Instances() {
		if !is.DB.Equal(before[i].DB) {
			t.Fatalf("instance %s diverged across compaction", is.ID)
		}
	}
}

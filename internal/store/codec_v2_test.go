package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"repro/internal/fd"
	"repro/internal/rel"
)

// randFixture builds a randomized instance with repeated symbols and
// mixed arities, the shapes dictionary encoding has to get right.
func randFixture(t *testing.T, rng *rand.Rand, n int) (*rel.Database, *fd.Set) {
	t.Helper()
	var facts []rel.Fact
	for i := 0; i < n; i++ {
		switch rng.Intn(2) {
		case 0:
			facts = append(facts, rel.NewFact("Emp",
				fmt.Sprintf("k%d", rng.Intn(n/2+1)), fmt.Sprintf("v%d", rng.Intn(8))))
		default:
			facts = append(facts, rel.NewFact("Dept",
				fmt.Sprintf("d%d", rng.Intn(5)), fmt.Sprintf("v%d", rng.Intn(8)), "hq"))
		}
	}
	sch := rel.MustSchema(rel.NewRelation("Emp", 2), rel.NewRelation("Dept", 3))
	sigma := fd.MustSet(sch,
		fd.New("Emp", []int{0}, []int{1}),
		fd.New("Dept", []int{0}, []int{1}))
	return rel.NewDatabase(facts...), sigma
}

// declaredSlots reads the header of a v2 payload, rd positioned at its
// schema, and returns the lookup-slot count it declares.
func declaredSlots(t *testing.T, rd reader) int {
	t.Helper()
	if _, err := decodeSchemaFDs(rd); err != nil {
		t.Fatal(err)
	}
	var n uint64
	for i := 0; i < 5; i++ { // nSyms, symBlobLen, nFacts, argsLen, slotsLen
		var err error
		if n, err = rd.uvarint(); err != nil {
			t.Fatal(err)
		}
	}
	return int(n)
}

// registerSlots is declaredSlots of a register record's payload.
func registerSlots(t *testing.T, payload []byte) int {
	t.Helper()
	rd := reader{bytes.NewReader(payload[1:])}
	if _, err := rd.string_(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.string_(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.uvarint(); err != nil {
		t.Fatal(err)
	}
	at := (len(payload) - rd.r.Len() + 3) &^ 3
	return declaredSlots(t, reader{bytes.NewReader(payload[at:])})
}

// TestV2RoundTrip: the columnar encoding reproduces the database and
// FD set exactly, including the interned representation — same symbol
// ids, same columns — so downstream id-keyed caches survive a
// snapshot/boot cycle. A payload written now declares no lookup slots,
// whether in a standalone snapshot or a register record.
func TestV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 200} {
		d, sigma := randFixture(t, rng, n)
		var buf bytes.Buffer
		if err := EncodeInstance(&buf, d, sigma); err != nil {
			t.Fatal(err)
		}
		if got := declaredSlots(t, reader{bytes.NewReader(buf.Bytes()[len(instanceMagic)+1:])}); got != 0 {
			t.Fatalf("n=%d: snapshot declares %d lookup slots, want 0", n, got)
		}
		frame := Record{Kind: OpRegister, ID: "i1", Name: "n", Created: time.Unix(0, 1), DB: d, Sigma: sigma}.Frame()
		if got := registerSlots(t, frame[frameHeader:]); got != 0 {
			t.Fatalf("n=%d: register record declares %d lookup slots, want 0", n, got)
		}
		d2, sigma2, err := DecodeInstance(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !d2.Equal(d) {
			t.Fatalf("n=%d: database round trip diverged", n)
		}
		if sigma2.String() != sigma.String() {
			t.Fatalf("n=%d: FD set round trip diverged", n)
		}
		s1, s2 := d.Symbols().Strings(), d2.Symbols().Strings()
		if len(s1) != len(s2) {
			t.Fatalf("n=%d: symbol table size changed: %d -> %d", n, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("n=%d: symbol id %d changed: %q -> %q", n, i, s1[i], s2[i])
			}
		}
	}
}

// TestV1MigrationRoundTrip: a legacy v1 snapshot still decodes, and
// re-encoding it as v2 yields the same instance — the v1 -> v2
// migration path is just decode + encode.
func TestV1MigrationRoundTrip(t *testing.T) {
	d, sigma := randFixture(t, rand.New(rand.NewSource(5)), 100)
	var v1 bytes.Buffer
	if err := encodeInstanceV1(&v1, d, sigma); err != nil {
		t.Fatal(err)
	}
	dv1, sv1, err := DecodeInstance(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("v1 snapshot no longer readable: %v", err)
	}
	if !dv1.Equal(d) || sv1.String() != sigma.String() {
		t.Fatal("v1 decode diverged")
	}
	var v2 bytes.Buffer
	if err := EncodeInstance(&v2, dv1, sv1); err != nil {
		t.Fatal(err)
	}
	dv2, sv2, err := DecodeInstance(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatalf("migrated v2 snapshot unreadable: %v", err)
	}
	if !dv2.Equal(d) || sv2.String() != sigma.String() {
		t.Fatal("v1 -> v2 migration diverged")
	}
	if v2.Bytes()[len(instanceMagic)] != codecV2 {
		t.Fatal("EncodeInstance did not stamp version 2")
	}
}

// TestV2RejectsCorruption: truncations and bit flips anywhere in a v2
// snapshot must produce an error, never a panic or a silently corrupt
// database (the decoder validates sections before adopting them).
func TestV2RejectsCorruption(t *testing.T) {
	d, sigma := randFixture(t, rand.New(rand.NewSource(9)), 50)
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, d, sigma); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for cut := len(good) - 1; cut > len(instanceMagic); cut -= 7 {
		if _, _, err := DecodeInstance(bytes.NewReader(good[:cut])); err == nil {
			// A truncation that only drops trailing slack could decode;
			// any cut into the columns must not.
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), good...)
		bad[len(instanceMagic)+1+rng.Intn(len(bad)-len(instanceMagic)-1)] ^= 1 << rng.Intn(8)
		d2, s2, err := DecodeInstance(bytes.NewReader(bad))
		if err != nil {
			continue
		}
		// A flip the validators cannot see (e.g. inside a symbol string)
		// must still yield a structurally sound database.
		if d2.Len() < 0 || s2 == nil {
			t.Fatal("corrupt decode returned a broken instance")
		}
		for i := 0; i < d2.Len(); i++ {
			_ = d2.Fact(i)
		}
	}
}

// TestMapInstance: the mmap boot path decodes the same instance the
// byte-stream path does, for both codec versions.
func TestMapInstance(t *testing.T) {
	d, sigma := randFixture(t, rand.New(rand.NewSource(21)), 120)
	dir := t.TempDir()
	write := func(name string, enc func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p2 := write("v2.snap", func(f *os.File) error { return EncodeInstance(f, d, sigma) })
	p1 := write("v1.snap", func(f *os.File) error { return encodeInstanceV1(f, d, sigma) })
	for _, path := range []string{p2, p1} {
		db, sg, closeFn, err := MapInstance(path)
		if err != nil {
			t.Fatalf("MapInstance(%s): %v", path, err)
		}
		if !db.Equal(d) || sg.String() != sigma.String() {
			t.Fatalf("MapInstance(%s) diverged from the encoded instance", path)
		}
		// Exercise id-level lookups against the (possibly mmap-aliased)
		// columns before unmapping.
		for i := 0; i < db.Len(); i++ {
			if db.IndexOf(db.Fact(i)) != i {
				t.Fatalf("MapInstance(%s): fact %d not found at its index", path, i)
			}
		}
		if err := closeFn(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	if _, _, _, err := MapInstance(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestDecodeSnapshotWithLookupSlots decodes testdata/v2-slots.snap, a
// standalone snapshot written by a release that stored a fact hash
// table after the columns, through both the byte-stream and the mmap
// path: each yields the database that release encoded, finds every fact
// at its index, and re-encodes without the table. The skipped table is
// still bounds-checked: the snapshot cut inside it is an error.
func TestDecodeSnapshotWithLookupSlots(t *testing.T) {
	path := filepath.Join("testdata", "v2-slots.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := declaredSlots(t, reader{bytes.NewReader(raw[len(instanceMagic)+1:])}); got == 0 {
		t.Fatal("fixture declares no lookup slots")
	}
	if _, _, err := DecodeInstance(bytes.NewReader(raw[:len(raw)-4])); err == nil {
		t.Fatal("snapshot cut inside its lookup slots accepted")
	}
	want := rel.NewDatabase(
		rel.NewFact("Emp", "1", "Alice"), rel.NewFact("Emp", "1", "Tom"), rel.NewFact("Emp", "2", "Bob"),
		rel.NewFact("Emp", "3", "a|b"), rel.NewFact("Emp", "4", `c\d`), rel.NewFact("Emp", "5", "Zoë"),
		rel.NewFact("Dept", "d1", "Alice", "hq"), rel.NewFact("Dept", "d1", "Bob", "hq"),
		rel.NewFact("Dept", "d2", "Tom", "lab"), rel.NewFact("Dept", "d3", "a|b", "hq"),
	)
	const wantSigma = "{Emp: A1 -> A2; Dept: A1 -> A2}"
	check := func(how string, d *rel.Database, sigma *fd.Set) {
		t.Helper()
		if !d.Equal(want) || sigma.String() != wantSigma {
			t.Fatalf("%s: decoded %v %v, want %v %s", how, d, sigma, want, wantSigma)
		}
		for i := 0; i < d.Len(); i++ {
			if d.IndexOf(d.Fact(i)) != i {
				t.Fatalf("%s: fact %d not found at its index", how, i)
			}
		}
		if d.Contains(rel.NewFact("Emp", "2", "Tom")) {
			t.Fatalf("%s: Contains found an absent fact", how)
		}
		var buf bytes.Buffer
		if err := EncodeInstance(&buf, d, sigma); err != nil {
			t.Fatal(err)
		}
		if got := declaredSlots(t, reader{bytes.NewReader(buf.Bytes()[len(instanceMagic)+1:])}); got != 0 {
			t.Fatalf("%s: re-encoded snapshot declares %d lookup slots", how, got)
		}
		d2, s2, err := DecodeInstance(&buf)
		if err != nil || !d2.Equal(want) || s2.String() != wantSigma {
			t.Fatalf("%s: re-encoded snapshot decodes to %v %v (%v)", how, d2, s2, err)
		}
	}
	d, sigma, err := DecodeInstance(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	check("DecodeInstance", d, sigma)
	d, sigma, closeFn, err := MapInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	check("MapInstance", d, sigma)
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
}

// forgedMisfit is a v2 snapshot whose only fact, R(a), does not fit its
// own schema R/2 with key A1 -> A2.
func forgedMisfit(tb testing.TB) []byte {
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	var b bytes.Buffer
	if err := EncodeInstance(&b, rel.NewDatabase(rel.NewFact("R", "a")), sigma); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// forgedFullTable is a v2 snapshot of R(a,1), R(b,2) under R/2 with key
// A1 -> A2, written by a release that stored a fact hash table, whose 8
// lookup slots (the trailing section) were then all set to 1: in range,
// but with no empty slot to end a probe of that table.
func forgedFullTable(tb testing.TB) []byte {
	raw, err := os.ReadFile(filepath.Join("testdata", "v2-full-slots.snap"))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestDecodeRejectsMisfitFacts: a fact whose relation or arity is not
// its schema's is a decode error in every payload and container — a
// standalone v1 or v2 snapshot, or a register frame from a peer or the
// WAL — never a database the conflict layer then panics on.
func TestDecodeRejectsMisfitFacts(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	for name, d := range map[string]*rel.Database{
		"arity":    rel.NewDatabase(rel.NewFact("R", "a")),
		"relation": rel.NewDatabase(rel.NewFact("R", "a", "1"), rel.NewFact("S", "a", "1")),
	} {
		var v1, v2 bytes.Buffer
		if err := encodeInstanceV1(&v1, d, sigma); err != nil {
			t.Fatal(err)
		}
		if err := EncodeInstance(&v2, d, sigma); err != nil {
			t.Fatal(err)
		}
		for codec, raw := range map[string][]byte{"v1": v1.Bytes(), "v2": v2.Bytes()} {
			if _, _, err := DecodeInstance(bytes.NewReader(raw)); err == nil {
				t.Errorf("%s %s: misfit snapshot accepted", name, codec)
			}
		}
		for codec, frame := range map[string][]byte{
			"v1": v1RegisterFrame("i1", "", time.Unix(0, 1), d, sigma),
			"v2": Record{Kind: OpRegister, ID: "i1", Created: time.Unix(0, 1), DB: d, Sigma: sigma}.Frame(),
		} {
			if _, err := DecodeFrames(frame); err == nil {
				t.Errorf("%s %s: misfit register frame accepted", name, codec)
			}
		}
	}
}

// TestDecodeRejectsFullLookupTable: stored lookup slots are skipped, so
// a table without an empty slot, which once made a probe for an absent
// fact spin forever, is never used. The payload decodes to its two
// facts, and a lookup of an absent fact ends and finds nothing.
func TestDecodeRejectsFullLookupTable(t *testing.T) {
	type result struct {
		d        *rel.Database
		err      error
		contains bool
	}
	raw := forgedFullTable(t)
	done := make(chan result, 1)
	go func() {
		d, _, err := DecodeInstance(bytes.NewReader(raw))
		var contains bool
		if err == nil {
			contains = d.Contains(rel.NewFact("R", "a", "2"))
		}
		done <- result{d, err, contains}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("payload with stored lookup slots rejected: %v", r.err)
		}
		if r.contains {
			t.Fatal("Contains found the absent fact R(a,2)")
		}
		want := rel.NewDatabase(rel.NewFact("R", "a", "1"), rel.NewFact("R", "b", "2"))
		if !r.d.Equal(want) || r.d.IndexOf(rel.NewFact("R", "b", "2")) != 1 {
			t.Fatalf("decoded %v, want %v", r.d, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("decode or lookup did not return within 10s")
	}
}

// TestRegisterFrameDecodesInPlace: a register frame's instance decodes
// from the frame's own bytes — on a little-endian host its columns
// alias them — so a follower seeded from a received feed body, or a
// replayed WAL record, pins exactly that record and no copy of it.
func TestRegisterFrameDecodesInPlace(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("columns are copied on big-endian hosts")
	}
	d, sigma := randFixture(t, rand.New(rand.NewSource(4)), 300)
	frame := Record{Kind: OpRegister, ID: "i1", Name: "n", Created: time.Unix(0, 7), DB: d, Sigma: sigma}.Frame()
	body := append(make([]byte, 0, len(frame)), frame...)
	recs, err := DecodeFrames(body)
	if err != nil {
		t.Fatal(err)
	}
	got := recs[0]
	if got.Kind != OpRegister || got.ID != "i1" || got.Name != "n" || !got.Created.Equal(time.Unix(0, 7)) {
		t.Fatalf("decoded register record = %s %q %q %v", got.Kind, got.ID, got.Name, got.Created)
	}
	if !got.DB.Equal(d) || got.Sigma.String() != sigma.String() {
		t.Fatal("decoded instance diverged")
	}
	lo, hi := uintptr(unsafe.Pointer(&body[0])), uintptr(unsafe.Pointer(&body[len(body)-1]))
	_, rels, offs, args := got.DB.Columns()
	for name, col := range map[string][]int32{"rels": rels, "offs": offs, "args": args} {
		if p := uintptr(unsafe.Pointer(&col[0])); p < lo || p > hi {
			t.Errorf("%s column was copied, not decoded in place", name)
		}
	}
}

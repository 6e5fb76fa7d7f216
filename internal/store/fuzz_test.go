package store

// FuzzWALReplay feeds arbitrary bytes to the store as a WAL segment.
// The durability contract under any input — hand-crafted records, torn
// tails, bit flips, garbage — is:
//
//  1. Open never panics. It may reject the log (semantically invalid
//     records: duplicate registrations, mutations of absent ids), and
//     it silently truncates at the first framing tear.
//  2. No record is ever double-applied or lost once acknowledged: a
//     successful Open → Close → Open round trip reproduces exactly the
//     same logical state.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/rel"
)

// seedWAL builds a well-formed log: a legacy v1 register record,
// insert-fact, delete-fact, a v2 register+unregister of a second
// instance, and a v2 register of a third.
func seedWAL() []byte {
	db, sigma := seedInstance()
	var b bytes.Buffer
	for _, frame := range [][]byte{
		v1RegisterFrame("i1", "seed", time.Unix(0, 1), db, sigma),
		Record{Kind: OpInsertFact, ID: "i1", Fact: rel.NewFact("R", "b", "3")}.Frame(),
		Record{Kind: OpDeleteFact, ID: "i1", Index: 0}.Frame(),
		Record{Kind: OpRegister, ID: "i2", Name: "gone", Created: time.Unix(0, 2), DB: db, Sigma: sigma}.Frame(),
		Record{Kind: OpUnregister, ID: "i2"}.Frame(),
		Record{Kind: OpRegister, ID: "i3", Name: "kept", Created: time.Unix(0, 3), DB: db, Sigma: sigma}.Frame(),
	} {
		b.Write(frame)
	}
	return b.Bytes()
}

func seedInstance() (*rel.Database, *fd.Set) {
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	db := rel.NewDatabase(rel.NewFact("R", "a", "1"), rel.NewFact("R", "a", "2"))
	return db, fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
}

// logicalState renders the store's replayed state canonically.
func logicalState(st *Store) string {
	var b bytes.Buffer
	for _, is := range st.Instances() {
		b.WriteString(is.ID)
		b.WriteByte('|')
		b.WriteString(is.Name)
		b.WriteByte('|')
		b.WriteString(is.DB.String())
		b.WriteByte('|')
		b.WriteString(is.Sigma.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func FuzzWALReplay(f *testing.F) {
	valid := seedWAL()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn tail mid-frame
	f.Add(valid[:9])                      // torn inside the first payload
	f.Add([]byte{})                       // empty log
	f.Add([]byte("not a wal at all"))     // garbage
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // insane length headers
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40 // checksum failure mid-log
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Options{Dir: dir})
		if err != nil {
			// Semantically invalid logs are rejected, never applied
			// halfway into a panic.
			return
		}
		state1 := logicalState(st)
		if err := st.Close(); err != nil {
			t.Fatalf("closing replayed store: %v", err)
		}
		st2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after clean close failed: %v", err)
		}
		defer st2.Close()
		if state2 := logicalState(st2); state2 != state1 {
			t.Fatalf("state changed across reopen (double-applied or lost records)\nfirst:\n%s\nsecond:\n%s", state1, state2)
		}
	})
}

// FuzzDecodeInstance feeds arbitrary bytes to the standalone snapshot
// decoder, which shares its payload decoders with WAL replay and the
// replication feed. It must never panic or hang; a database it accepts
// must fit its own schema, find each of its facts, and survive a v2
// re-encode unchanged.
func FuzzDecodeInstance(f *testing.F) {
	sch := rel.MustSchema(rel.NewRelation("Emp", 2), rel.NewRelation("Dept", 3))
	sigma := fd.MustSet(sch, fd.New("Emp", []int{0}, []int{1}), fd.New("Dept", []int{0}, []int{1}))
	db := rel.NewDatabase(rel.NewFact("Emp", "1", "Alice"), rel.NewFact("Emp", "1", "Tom"),
		rel.NewFact("Dept", "d", "Alice", "hq"), rel.NewFact("Dept", "e", "Tom", "hq"))
	var v1, v2 bytes.Buffer
	if err := encodeInstanceV1(&v1, db, sigma); err != nil {
		f.Fatal(err)
	}
	if err := EncodeInstance(&v2, db, sigma); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[:v2.Len()/2])
	f.Add(forgedMisfit(f))
	f.Add(forgedFullTable(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, s, err := DecodeInstance(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < d.Len(); i++ {
			fact := d.Fact(i)
			if r, ok := s.Schema().Relation(fact.Rel); !ok || r.Arity() != len(fact.Args) {
				t.Fatalf("decoded fact %v does not fit schema %v", fact, s.Schema().Relations())
			}
			if d.IndexOf(fact) != i {
				t.Fatalf("fact %d %v not found at its own index", i, fact)
			}
			// A probe for an absent row over known symbols must end too.
			d.Contains(rel.NewFact(fact.Rel, append([]string{fact.Rel}, fact.Args...)...))
		}
		var buf bytes.Buffer
		if err := EncodeInstance(&buf, d, s); err != nil {
			t.Fatal(err)
		}
		d2, s2, err := DecodeInstance(&buf)
		if err != nil {
			t.Fatalf("re-encoded instance does not decode: %v", err)
		}
		if !d2.Equal(d) || s2.String() != s.String() {
			t.Fatal("re-encoded instance diverged")
		}
	})
}

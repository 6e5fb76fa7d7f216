package rel

import (
	"math/rand"
	"testing"
)

func TestInsertKeepsSortedOrderAndIndex(t *testing.T) {
	d := NewDatabase(
		NewFact("R", "b"),
		NewFact("R", "d"),
		NewFact("S", "a"),
	)
	nd, pos, ok := d.Insert(NewFact("R", "c"))
	if !ok {
		t.Fatal("Insert of a fresh fact reported ok=false")
	}
	if nd.Len() != 4 || d.Len() != 3 {
		t.Fatalf("lengths after insert: new %d (want 4), old %d (want 3)", nd.Len(), d.Len())
	}
	if got := nd.Fact(pos); !got.Equal(NewFact("R", "c")) {
		t.Fatalf("fact at returned pos %d is %v", pos, got)
	}
	for i := 1; i < nd.Len(); i++ {
		if nd.Fact(i).Less(nd.Fact(i - 1)) {
			t.Fatalf("facts out of order at %d: %v > %v", i, nd.Fact(i-1), nd.Fact(i))
		}
	}
	for i := 0; i < nd.Len(); i++ {
		if nd.IndexOf(nd.Fact(i)) != i {
			t.Fatalf("index map stale: IndexOf(%v) = %d, want %d", nd.Fact(i), nd.IndexOf(nd.Fact(i)), i)
		}
	}
}

func TestInsertDuplicateReturnsExistingIndex(t *testing.T) {
	d := NewDatabase(NewFact("R", "a"), NewFact("R", "b"))
	nd, pos, ok := d.Insert(NewFact("R", "b"))
	if ok {
		t.Fatal("duplicate insert reported ok=true")
	}
	if nd != d {
		t.Fatal("duplicate insert allocated a new database")
	}
	if pos != d.IndexOf(NewFact("R", "b")) {
		t.Fatalf("duplicate insert pos = %d, want existing index %d", pos, d.IndexOf(NewFact("R", "b")))
	}
}

func TestRemoveShiftsIndices(t *testing.T) {
	d := NewDatabase(NewFact("R", "a"), NewFact("R", "b"), NewFact("R", "c"))
	nd := d.Remove(1)
	if nd.Len() != 2 || d.Len() != 3 {
		t.Fatalf("lengths after remove: new %d, old %d", nd.Len(), d.Len())
	}
	if nd.Contains(NewFact("R", "b")) {
		t.Fatal("removed fact still present")
	}
	if nd.IndexOf(NewFact("R", "c")) != 1 {
		t.Fatalf("index of R(c) = %d, want 1", nd.IndexOf(NewFact("R", "c")))
	}
}

func TestRemoveOutOfRangePanics(t *testing.T) {
	d := NewDatabase(NewFact("R", "a"))
	defer func() {
		if recover() == nil {
			t.Fatal("Remove(5) did not panic")
		}
	}()
	d.Remove(5)
}

// TestInsertRemoveEquivalentToRebuild drives a random mutation sequence
// and checks the copy-on-write path agrees with rebuilding from scratch.
func TestInsertRemoveEquivalentToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := NewDatabase()
	var facts []Fact
	for step := 0; step < 200; step++ {
		if len(facts) == 0 || rng.Intn(3) > 0 {
			f := NewFact("R", string(rune('a'+rng.Intn(12))), string(rune('a'+rng.Intn(12))))
			nd, pos, ok := cur.Insert(f)
			if ok {
				facts = append(facts, f)
				if !nd.Fact(pos).Equal(f) {
					t.Fatalf("step %d: inserted fact not at pos %d", step, pos)
				}
			}
			cur = nd
		} else {
			i := rng.Intn(cur.Len())
			removed := cur.Fact(i)
			cur = cur.Remove(i)
			for j, f := range facts {
				if f.Equal(removed) {
					facts = append(facts[:j], facts[j+1:]...)
					break
				}
			}
		}
		if want := NewDatabase(facts...); !cur.Equal(want) {
			t.Fatalf("step %d: incremental %v != rebuilt %v", step, cur, want)
		}
	}
}

// TestLookupTableAcrossInsertRemove is the property test of the lookup
// table Insert and Remove derive from their parent's: random writes
// walk the fact count across tableSize boundaries in both directions,
// over three relations of mixed arity, and after every step the table
// must be one a snapshot can carry (NewDatabaseFromParts accepts
// LookupSlots), find every fact at its own index, and find no absent
// fact. The relation spans derived alongside must match a scan.
func TestLookupTableAcrossInsertRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randomFact := func() Fact {
		a, b := string(rune('a'+rng.Intn(9))), string(rune('a'+rng.Intn(9)))
		switch rng.Intn(3) {
		case 0:
			return NewFact("R", a, b)
		case 1:
			return NewFact("S", a)
		default:
			return NewFact("T", a, b, "c")
		}
	}
	cur := NewDatabase()
	grows, shrinks := 0, 0
	target := 3
	for step := 0; step < 1500; step++ {
		if step%150 == 0 {
			// Alternate between filling towards 70 facts and draining
			// towards 3, crossing the 4/8/16/32/64-fact boundaries.
			target = 73 - target
		}
		before := len(cur.LookupSlots())
		if cur.Len() == 0 || cur.Len() < target && rng.Intn(4) > 0 || cur.Len() >= target && rng.Intn(4) == 0 {
			cur, _, _ = cur.Insert(randomFact())
		} else {
			cur = cur.Remove(rng.Intn(cur.Len()))
		}
		switch after := len(cur.LookupSlots()); {
		case after > before:
			grows++
		case after < before:
			shrinks++
		}
		syms, rels, offs, args := cur.Columns()
		if _, err := NewDatabaseFromParts(syms, rels, offs, args, cur.LookupSlots()); err != nil {
			t.Fatalf("step %d (%d facts): NewDatabaseFromParts rejects the derived table: %v", step, cur.Len(), err)
		}
		for i := 0; i < cur.Len(); i++ {
			if got := cur.IndexOf(cur.Fact(i)); got != i {
				t.Fatalf("step %d: IndexOf(%v) = %d, want %d", step, cur.Fact(i), got, i)
			}
		}
		for k := 0; k < 10; k++ {
			f := randomFact()
			want := -1
			for i := 0; i < cur.Len(); i++ {
				if cur.Fact(i).Equal(f) {
					want = i
				}
			}
			if got := cur.IndexOf(f); got != want {
				t.Fatalf("step %d: IndexOf(%v) = %d, want %d", step, f, got, want)
			}
		}
		checkSpans(t, cur, []string{"R", "S", "T"})
	}
	t.Logf("table size changes: %d grows, %d shrinks", grows, shrinks)
	if grows < 20 || shrinks < 20 {
		t.Fatalf("walk crossed tableSize boundaries %d times up and %d down, want ≥ 20 each", grows, shrinks)
	}
}

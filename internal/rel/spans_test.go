package rel

import (
	"fmt"
	"math/rand"
	"testing"
)

// factsOfScan is the pre-cache implementation of FactsOf, kept as the
// test oracle.
func factsOfScan(d *Database, rel string) []Fact {
	var out []Fact
	for _, f := range d.Facts() {
		if f.Rel == rel {
			out = append(out, f)
		}
	}
	return out
}

func checkSpans(t *testing.T, d *Database, rels []string) {
	t.Helper()
	for _, r := range rels {
		want := factsOfScan(d, r)
		got := d.FactsOf(r)
		if len(got) != len(want) {
			t.Fatalf("FactsOf(%q): %d facts, scan gives %d", r, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("FactsOf(%q)[%d] = %v, want %v", r, i, got[i], want[i])
			}
		}
		lo, hi := d.RelRange(r)
		if hi-lo != len(want) {
			t.Fatalf("RelRange(%q) = [%d,%d), want width %d", r, lo, hi, len(want))
		}
		for j := lo; j < hi; j++ {
			if d.Fact(j).Rel != r {
				t.Fatalf("RelRange(%q) covers foreign fact %v at %d", r, d.Fact(j), j)
			}
		}
	}
}

// TestRelSpansAcrossConstructors: the cached grouping stays consistent
// through NewDatabase, Insert and Remove.
func TestRelSpansAcrossConstructors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rels := []string{"A", "B", "C", "missing"}
	for trial := 0; trial < 40; trial++ {
		var facts []Fact
		for i, n := 0, rng.Intn(12); i < n; i++ {
			facts = append(facts, NewFact(rels[rng.Intn(3)], fmt.Sprintf("c%d", rng.Intn(6))))
		}
		d := NewDatabase(facts...)
		checkSpans(t, d, rels)

		d2, _, ok := d.Insert(NewFact("B", "zz"))
		if ok {
			checkSpans(t, d2, rels)
		}
		if d.Len() > 0 {
			checkSpans(t, d.Remove(rng.Intn(d.Len())), rels)
		}
		// The original is untouched (copy-on-write).
		checkSpans(t, d, rels)
	}
}

// TestRelRangeIDNarrowsToFirstArgument: for every relation and every
// symbol, the narrowed range holds exactly the relation's rows led by
// that symbol — over mixed arities (zero-argument rows included), prefix
// strings and Insert/Remove lineages — and -1 keeps the whole run.
func TestRelRangeIDNarrowsToFirstArgument(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := []string{"", "a", "ab", "b", "ba", "c"}
	for trial := 0; trial < 60; trial++ {
		var facts []Fact
		for i, n := 0, rng.Intn(20); i < n; i++ {
			args := make([]string, rng.Intn(4))
			for k := range args {
				args[k] = pool[rng.Intn(len(pool))]
			}
			facts = append(facts, NewFact([]string{"A", "B"}[rng.Intn(2)], args...))
		}
		d := NewDatabase(facts...)
		if d2, _, ok := d.Insert(NewFact("A", "ab", "zz")); ok && trial%2 == 0 {
			d = d2
		}
		if d.Len() > 0 && trial%3 == 0 {
			d = d.Remove(rng.Intn(d.Len()))
		}
		for _, r := range []string{"A", "B"} {
			rid, ok := d.RelIDOf(r)
			if !ok {
				continue
			}
			wlo, whi := d.RelRange(r)
			if lo, hi := d.RelRangeID(rid, -1); lo != wlo || hi != whi {
				t.Fatalf("RelRangeID(%s, -1) = [%d,%d), want [%d,%d)", r, lo, hi, wlo, whi)
			}
			for id := int32(0); id < int32(d.Symbols().Len()); id++ {
				lo, hi := d.RelRangeID(rid, id)
				want := 0
				for i := 0; i < d.Len(); i++ {
					led := d.RelID(i) == rid && d.Arity(i) > 0 && d.ArgIDs(i)[0] == id
					if led {
						want++
					}
					if led != (i >= lo && i < hi) {
						t.Fatalf("RelRangeID(%s, %q) = [%d,%d) disagrees at row %d (%v) in %v",
							r, d.Symbols().Str(id), lo, hi, i, d.Fact(i), d)
					}
				}
				if want == 0 && lo != hi {
					t.Fatalf("RelRangeID(%s, %q) = [%d,%d), want empty", r, d.Symbols().Str(id), lo, hi)
				}
			}
		}
	}
}

package fd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rel"
)

// conflictsFromPairs derives fact i's conflict partners from the full
// ConflictPairs recompute — the ground truth ConflictsOf must match.
func conflictsFromPairs(s *Set, d *rel.Database, i int) []int {
	var out []int
	for _, p := range s.ConflictPairs(d) {
		if p[0] == i {
			out = append(out, p[1])
		}
		if p[1] == i {
			out = append(out, p[0])
		}
	}
	sort.Ints(out)
	return out
}

// conflictSets are FD sets that exercise both of ConflictsOf's scans:
// keys on attribute 0 (the narrowed run of rows sharing the first
// argument), keys that omit it (the whole relation), composite keys,
// general FDs, two constrained relations and a relation Σ does not
// mention. In two-keys and general-fds a pair of facts can violate
// several FDs at once.
func conflictSets() (*rel.Schema, []struct {
	name string
	fds  []FD
}) {
	sch := rel.MustSchema(rel.NewRelation("R", 3), rel.NewRelation("S", 2), rel.NewRelation("T", 2))
	return sch, []struct {
		name string
		fds  []FD
	}{
		{"key-on-A1", []FD{New("R", []int{0}, []int{1, 2})}},
		{"key-omits-A1", []FD{New("R", []int{1}, []int{0, 2})}},
		{"composite-key", []FD{New("R", []int{0, 2}, []int{1})}},
		{"composite-omits-A1", []FD{New("R", []int{1, 2}, []int{0})}},
		{"two-keys", []FD{New("R", []int{0}, []int{1, 2}), New("R", []int{1}, []int{0, 2})}},
		{"general-fds", []FD{New("R", []int{0}, []int{1}), New("R", []int{1}, []int{2}), New("R", []int{2}, []int{0})}},
		{"empty-lhs", []FD{New("R", nil, []int{1})}},
		{"two-relations", []FD{New("R", []int{1}, []int{2}), New("S", []int{0}, []int{1})}},
	}
}

// randomConflictDB draws up to 29 facts over R, S and T from a domain
// of 2 to 5 constants, small enough that many of them conflict.
func randomConflictDB(rng *rand.Rand) *rel.Database {
	domain := 2 + rng.Intn(4)
	val := func() string { return fmt.Sprintf("c%d", rng.Intn(domain)) }
	var facts []rel.Fact
	for k := rng.Intn(30); k > 0; k-- {
		switch rng.Intn(3) {
		case 0:
			facts = append(facts, rel.NewFact("R", val(), val(), val()))
		case 1:
			facts = append(facts, rel.NewFact("S", val(), val()))
		default: // T is in the schema but unconstrained
			facts = append(facts, rel.NewFact("T", val(), val()))
		}
	}
	return rel.NewDatabase(facts...)
}

// TestConflictsOfMatchesConflictPairs checks ConflictsOf against the
// full recompute for every fact of random databases over conflictSets.
func TestConflictsOfMatchesConflictPairs(t *testing.T) {
	sch, sets := conflictSets()
	rng := rand.New(rand.NewSource(5))
	for _, set := range sets {
		name, sigma := set.name, MustSet(sch, set.fds...)
		for trial := 0; trial < 20; trial++ {
			d := randomConflictDB(rng)
			for i := 0; i < d.Len(); i++ {
				got := sigma.ConflictsOf(d, i)
				want := conflictsFromPairs(sigma, d, i)
				if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
					t.Fatalf("%s, trial %d, fact %d (%v): ConflictsOf = %v, want %v",
						name, trial, i, d.Fact(i), got, want)
				}
			}
		}
	}
}

// TestConflictPairsMatchesBruteForce checks ConflictPairs against an
// InConflict test of every pair of facts: each conflicting pair once,
// I < J, in lexicographic order, also where several FDs flag the same
// pair.
func TestConflictPairsMatchesBruteForce(t *testing.T) {
	sch, sets := conflictSets()
	rng := rand.New(rand.NewSource(9))
	shared := 0
	for _, set := range sets {
		name, sigma := set.name, MustSet(sch, set.fds...)
		for trial := 0; trial < 20; trial++ {
			d := randomConflictDB(rng)
			facts := d.Facts()
			var want [][2]int
			for i := range facts {
				for j := i + 1; j < len(facts); j++ {
					if sigma.InConflict(facts[i], facts[j]) {
						want = append(want, [2]int{i, j})
					}
				}
			}
			got := sigma.ConflictPairs(d)
			if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("%s, trial %d: ConflictPairs = %v, brute force %v on %v", name, trial, got, want, d)
			}
			shared += len(sigma.Violations(d)) - len(got)
		}
	}
	if shared == 0 {
		t.Fatal("no pair violated two FDs: the deduplication went untested")
	}
}

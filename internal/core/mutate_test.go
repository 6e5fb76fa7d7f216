package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fd"
	"repro/internal/rel"
)

func mutFixture() (*rel.Database, *fd.Set) {
	d := rel.NewDatabase(
		rel.NewFact("Emp", "1", "Alice"),
		rel.NewFact("Emp", "1", "Tom"),
		rel.NewFact("Emp", "2", "Bob"),
	)
	sch := rel.MustSchema(rel.NewRelation("Emp", 2))
	sigma := fd.MustSet(sch, fd.New("Emp", []int{0}, []int{1}))
	return d, sigma
}

// assertSameStructure checks the incrementally maintained instance is
// indistinguishable from a from-scratch NewInstance over the same
// database: the same conflict pair count and pairs, and every fact's
// BlockOf equal to its brute-force conflict partners plus itself.
func assertSameStructure(t *testing.T, got *Instance) {
	t.Helper()
	want := NewInstance(got.D, got.Sigma)
	if got.ConflictPairCount() != len(want.ConflictPairs()) {
		t.Fatalf("carried conflict pair count %d, from-scratch %d", got.ConflictPairCount(), len(want.ConflictPairs()))
	}
	if gp, wp := got.ConflictPairs(), want.ConflictPairs(); !reflect.DeepEqual(gp, wp) && (len(gp) != 0 || len(wp) != 0) {
		t.Fatalf("conflict pairs diverge:\nincremental %v\nfrom-scratch %v", gp, wp)
	}
	facts := got.D.Facts()
	for i := range facts {
		var block []int
		for j := range facts {
			if j == i || got.Sigma.InConflict(facts[i], facts[j]) {
				block = append(block, j)
			}
		}
		if b := got.BlockOf(i); !reflect.DeepEqual(b, block) {
			t.Fatalf("BlockOf(%d) = %v, brute force %v", i, b, block)
		}
	}
}

func TestInsertFactConflictingMatchesRebuild(t *testing.T) {
	d, sigma := mutFixture()
	inst := NewInstance(d, sigma)
	// A fact conflicting with the whole "2"-block and a fresh block.
	for _, f := range []rel.Fact{
		rel.NewFact("Emp", "2", "Carol"), // conflicts with Emp(2,Bob)
		rel.NewFact("Emp", "1", "Zed"),   // conflicts with both "1" facts
		rel.NewFact("Emp", "9", "Solo"),  // no conflicts
	} {
		ni, pos, err := inst.InsertFact(f)
		if err != nil {
			t.Fatalf("InsertFact(%v): %v", f, err)
		}
		if !ni.D.Fact(pos).Equal(f) {
			t.Fatalf("InsertFact(%v): returned index %d holds %v", f, pos, ni.D.Fact(pos))
		}
		if inst.D.Contains(f) {
			t.Fatalf("InsertFact mutated the receiver's database")
		}
		assertSameStructure(t, ni)
	}
}

func TestDeleteFactMatchesRebuild(t *testing.T) {
	d, sigma := mutFixture()
	inst := NewInstance(d, sigma)
	for i := 0; i < d.Len(); i++ {
		ni, err := inst.DeleteFact(i)
		if err != nil {
			t.Fatalf("DeleteFact(%d): %v", i, err)
		}
		if ni.D.Len() != d.Len()-1 {
			t.Fatalf("DeleteFact(%d): %d facts remain", i, ni.D.Len())
		}
		assertSameStructure(t, ni)
	}
}

func TestMutationErrors(t *testing.T) {
	d, sigma := mutFixture()
	inst := NewInstance(d, sigma)
	if _, _, err := inst.InsertFact(rel.NewFact("Emp", "1", "Alice")); !errors.Is(err, ErrDuplicateFact) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if _, _, err := inst.InsertFact(rel.NewFact("Nope", "1")); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("unknown relation: %v", err)
	}
	if _, _, err := inst.InsertFact(rel.NewFact("Emp", "1")); !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("arity mismatch: %v", err)
	}
	if _, err := inst.DeleteFact(99); !errors.Is(err, ErrFactIndex) {
		t.Fatalf("out-of-range delete: %v", err)
	}
	if _, err := inst.DeleteFact(-1); !errors.Is(err, ErrFactIndex) {
		t.Fatalf("negative delete: %v", err)
	}
}

// TestMutationChainMatchesRebuild drives long random insert/delete
// chains and checks the differential property at every step — the
// acceptance criterion that an inserted conflicting fact changes
// ConflictPairs identically to a fresh NewInstance. Every write must
// leave the derived instance's pair list unbuilt and carry a pair count
// equal to a fresh instance's. The schemas cover general FDs over two
// relations and a primary key that omits attribute 0, where ConflictsOf
// scans the whole relation.
func TestMutationChainMatchesRebuild(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 3), rel.NewRelation("S", 2))
	for _, sigma := range []*fd.Set{
		fd.MustSet(sch,
			fd.New("R", []int{0}, []int{1}),
			fd.New("R", []int{1, 2}, []int{0}),
			fd.New("S", []int{0}, []int{1}),
		),
		fd.MustSet(sch,
			fd.New("R", []int{1}, []int{0, 2}),
			fd.New("S", []int{1}, []int{0}),
		),
	} {
		rng := rand.New(rand.NewSource(23))
		inst := NewInstance(rel.NewDatabase(), sigma)
		letter := func(n int) string { return fmt.Sprintf("c%d", rng.Intn(n)) }
		for step := 0; step < 200; step++ {
			if inst.D.Len() == 0 || rng.Intn(3) > 0 {
				var f rel.Fact
				if rng.Intn(2) == 0 {
					f = rel.NewFact("R", letter(4), letter(4), letter(4))
				} else {
					f = rel.NewFact("S", letter(4), letter(4))
				}
				ni, _, err := inst.InsertFact(f)
				if errors.Is(err, ErrDuplicateFact) {
					continue
				}
				if err != nil {
					t.Fatalf("%v, step %d: %v", sigma, step, err)
				}
				inst = ni
			} else {
				ni, err := inst.DeleteFact(rng.Intn(inst.D.Len()))
				if err != nil {
					t.Fatalf("%v, step %d: %v", sigma, step, err)
				}
				inst = ni
			}
			if inst.pairs != nil {
				t.Fatalf("%v, step %d: the write built the derived instance's conflict pairs", sigma, step)
			}
			assertSameStructure(t, inst)
		}
	}
}

// TestAdjacencyAlongLineage: every instance of a mutation lineage
// starts without a conflict adjacency — InsertFact and DeleteFact never
// build one, even from a parent that has — and builds it once, on
// demand, listing each fact's incident pairs in ascending id with the
// matching neighbours.
func TestAdjacencyAlongLineage(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 3))
	sigma := fd.MustSet(sch,
		fd.New("R", []int{0}, []int{1}),
		fd.New("R", []int{2}, []int{1}),
	)
	rng := rand.New(rand.NewSource(29))
	inst := NewInstance(rel.NewDatabase(), sigma)
	letter := func() string { return fmt.Sprintf("c%d", rng.Intn(4)) }
	for step := 0; step < 150; step++ {
		var next *Instance
		var err error
		if inst.D.Len() == 0 || rng.Intn(3) > 0 {
			next, _, err = inst.InsertFact(rel.NewFact("R", letter(), letter(), letter()))
			if errors.Is(err, ErrDuplicateFact) {
				continue
			}
		} else {
			next, err = inst.DeleteFact(rng.Intn(inst.D.Len()))
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if next.adj != nil {
			t.Fatalf("step %d: the mutation built the derived instance's adjacency", step)
		}
		inst = next
		a := inst.Adjacency()
		if inst.Adjacency() != a {
			t.Fatalf("step %d: a second call rebuilt the adjacency", step)
		}
		var pairIDs, nbrs [][]int
		pairIDs = make([][]int, inst.D.Len())
		nbrs = make([][]int, inst.D.Len())
		for pid, p := range inst.ConflictPairs() {
			pairIDs[p[0]], nbrs[p[0]] = append(pairIDs[p[0]], pid), append(nbrs[p[0]], p[1])
			pairIDs[p[1]], nbrs[p[1]] = append(pairIDs[p[1]], pid), append(nbrs[p[1]], p[0])
		}
		for f := 0; f < inst.D.Len(); f++ {
			lo, hi := a.Start[f], a.Start[f+1]
			if hi-lo != len(pairIDs[f]) ||
				hi > lo && (!reflect.DeepEqual(a.Pair[lo:hi], pairIDs[f]) || !reflect.DeepEqual(a.Nbr[lo:hi], nbrs[f])) {
				t.Fatalf("step %d, fact %d: pairs %v nbrs %v, want %v %v", step, f, a.Pair[lo:hi], a.Nbr[lo:hi], pairIDs[f], nbrs[f])
			}
		}
	}
}

// TestMutatedInstanceDrivesEngines checks a mutated instance is a
// first-class Instance: the exact engines agree with a from-scratch
// instance over the same database.
func TestMutatedInstanceDrivesEngines(t *testing.T) {
	d, sigma := mutFixture()
	inst := NewInstance(d, sigma)
	inst, _, err := inst.InsertFact(rel.NewFact("Emp", "2", "Carol"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewInstance(inst.D, inst.Sigma)
	for _, mode := range []Mode{{Gen: UniformRepairs}, {Gen: UniformSequences}, {Gen: UniformOperations, Singleton: true}} {
		got, err := inst.Semantics(mode, 0)
		if err != nil {
			t.Fatalf("%v semantics (mutated): %v", mode, err)
		}
		want, err := fresh.Semantics(mode, 0)
		if err != nil {
			t.Fatalf("%v semantics (fresh): %v", mode, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d repairs vs %d", mode, len(got), len(want))
		}
		for i := range got {
			if got[i].Repair.Key() != want[i].Repair.Key() || got[i].Prob.Cmp(want[i].Prob) != 0 {
				t.Fatalf("%v repair %d: (%v, %v) vs (%v, %v)", mode, i,
					got[i].Repair, got[i].Prob, want[i].Repair, want[i].Prob)
			}
		}
	}
}

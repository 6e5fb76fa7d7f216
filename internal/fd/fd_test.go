package fd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

func schemaR3() *rel.Schema {
	return rel.MustSchema(rel.NewRelation("R", 3))
}

// runningExample returns the database and FD set of Example 3.6:
// D = {R(a1,b1,c1), R(a1,b2,c2), R(a2,b1,c2)} with φ1 = R: A→B and
// φ2 = R: C→B.
func runningExample() (*rel.Database, *Set) {
	d := rel.NewDatabase(
		rel.NewFact("R", "a1", "b1", "c1"),
		rel.NewFact("R", "a1", "b2", "c2"),
		rel.NewFact("R", "a2", "b1", "c2"),
	)
	s := MustSet(schemaR3(),
		New("R", []int{0}, []int{1}),
		New("R", []int{2}, []int{1}),
	)
	return d, s
}

func TestNewNormalises(t *testing.T) {
	f := New("R", []int{2, 0, 2}, []int{1, 1})
	if len(f.LHS) != 2 || f.LHS[0] != 0 || f.LHS[1] != 2 {
		t.Fatalf("LHS = %v", f.LHS)
	}
	if len(f.RHS) != 1 || f.RHS[0] != 1 {
		t.Fatalf("RHS = %v", f.RHS)
	}
}

func TestValidate(t *testing.T) {
	s := schemaR3()
	if err := New("R", []int{0}, []int{1}).Validate(s); err != nil {
		t.Fatalf("valid FD rejected: %v", err)
	}
	if err := New("S", []int{0}, []int{1}).Validate(s); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := New("R", []int{0}, []int{3}).Validate(s); err == nil {
		t.Fatal("out-of-range attribute accepted")
	}
	if err := New("R", nil, nil).Validate(s); err == nil {
		t.Fatal("empty FD accepted")
	}
}

func TestIsKey(t *testing.T) {
	s := schemaR3()
	if !New("R", []int{0}, []int{1, 2}).IsKey(s) {
		t.Error("A -> B,C should be a key of R/3")
	}
	if New("R", []int{0}, []int{1}).IsKey(s) {
		t.Error("A -> B is not a key of R/3")
	}
	if !New("R", []int{0, 1}, []int{2}).IsKey(s) {
		t.Error("A,B -> C should be a key of R/3")
	}
}

func TestViolatedBy(t *testing.T) {
	phi := New("R", []int{0}, []int{1})
	f1 := rel.NewFact("R", "a", "b", "c")
	f2 := rel.NewFact("R", "a", "x", "c")
	f3 := rel.NewFact("R", "z", "x", "c")
	if !phi.ViolatedBy(f1, f2) {
		t.Error("same LHS, different RHS should violate")
	}
	if phi.ViolatedBy(f1, f3) {
		t.Error("different LHS should not violate")
	}
	if phi.ViolatedBy(f1, f1) {
		t.Error("a fact cannot violate an FD with itself")
	}
	if phi.ViolatedBy(f1, rel.NewFact("S", "a", "x")) {
		t.Error("facts of other relations cannot violate")
	}
}

func TestStringRendering(t *testing.T) {
	f := New("R", []int{0, 2}, []int{1})
	if got := f.String(); got != "R: A1,A3 -> A2" {
		t.Fatalf("String = %q", got)
	}
}

func TestClassify(t *testing.T) {
	s := schemaR3()
	tests := []struct {
		name string
		fds  []FD
		want Class
	}{
		{"empty", nil, PrimaryKeys},
		{"one key", []FD{New("R", []int{0}, []int{1, 2})}, PrimaryKeys},
		{"two keys same rel", []FD{
			New("R", []int{0}, []int{1, 2}),
			New("R", []int{1}, []int{0, 2}),
		}, Keys},
		{"non-key FD", []FD{New("R", []int{0}, []int{1})}, GeneralFDs},
		{"mixed", []FD{
			New("R", []int{0}, []int{1, 2}),
			New("R", []int{2}, []int{1}),
		}, GeneralFDs},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			set := MustSet(s, tc.fds...)
			if got := set.Classify(); got != tc.want {
				t.Fatalf("Classify = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestClassifyTwoRelationsPrimary(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 2), rel.NewRelation("S", 2))
	set := MustSet(sch,
		New("R", []int{0}, []int{1}),
		New("S", []int{0}, []int{1}),
	)
	if set.Classify() != PrimaryKeys {
		t.Fatal("one key per relation should be primary keys")
	}
}

func TestClassString(t *testing.T) {
	if PrimaryKeys.String() != "primary keys" || Keys.String() != "keys" || GeneralFDs.String() != "FDs" {
		t.Fatal("Class.String wrong")
	}
}

func TestViolationsRunningExample(t *testing.T) {
	d, s := runningExample()
	vs := s.Violations(d)
	// V(D,Σ) = {(φ1,{f1,f2}), (φ2,{f2,f3})} where facts sort as
	// f1=R(a1,b1,c1)=0, f2=R(a1,b2,c2)=1, f3=R(a2,b1,c2)=2.
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	if vs[0] != (Violation{FDIndex: 0, I: 0, J: 1}) {
		t.Errorf("vs[0] = %v", vs[0])
	}
	if vs[1] != (Violation{FDIndex: 1, I: 1, J: 2}) {
		t.Errorf("vs[1] = %v", vs[1])
	}
	if s.Satisfies(d) {
		t.Error("D should be inconsistent")
	}
}

func TestSatisfiesConsistent(t *testing.T) {
	d := rel.NewDatabase(
		rel.NewFact("R", "a1", "b1", "c1"),
		rel.NewFact("R", "a2", "b2", "c2"),
	)
	_, s := runningExample()
	if !s.Satisfies(d) {
		t.Error("consistent database rejected")
	}
}

func TestConflictPairsDedup(t *testing.T) {
	// Two keys both violated by the same pair must yield one edge.
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	s := MustSet(sch,
		New("R", []int{0}, []int{1}),
		New("R", []int{1}, []int{0}),
	)
	d := rel.NewDatabase(
		rel.NewFact("R", "a", "b"),
		rel.NewFact("R", "a", "c"),
		rel.NewFact("R", "z", "c"),
	)
	// R(a,b)-R(a,c) violate key1; R(a,c)-R(z,c) violate key2.
	pairs := s.ConflictPairs(d)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestInConflict(t *testing.T) {
	_, s := runningExample()
	f1 := rel.NewFact("R", "a1", "b1", "c1")
	f2 := rel.NewFact("R", "a1", "b2", "c2")
	f3 := rel.NewFact("R", "a2", "b1", "c2")
	if !s.InConflict(f1, f2) || !s.InConflict(f2, f3) {
		t.Error("expected conflicts missing")
	}
	if s.InConflict(f1, f3) {
		t.Error("f1, f3 do not conflict")
	}
}

// figure2 returns the database of Figure 2 with Σ = {R: A1 → A2}.
func figure2() (*rel.Database, *Set) {
	d := rel.NewDatabase(
		rel.NewFact("R", "a1", "b1"),
		rel.NewFact("R", "a1", "b2"),
		rel.NewFact("R", "a1", "b3"),
		rel.NewFact("R", "a2", "b1"),
		rel.NewFact("R", "a3", "b1"),
		rel.NewFact("R", "a3", "b2"),
	)
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	return d, MustSet(sch, New("R", []int{0}, []int{1}))
}

func TestBlocksFigure2(t *testing.T) {
	d, s := figure2()
	blocks := s.Blocks(d)
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
	sizes := []int{blocks[0].Size(), blocks[1].Size(), blocks[2].Size()}
	if sizes[0] != 3 || sizes[1] != 1 || sizes[2] != 2 {
		t.Fatalf("block sizes = %v, want [3 1 2]", sizes)
	}
}

func TestBlocksKeylessRelation(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 2), rel.NewRelation("S", 1))
	s := MustSet(sch, New("R", []int{0}, []int{1}))
	d := rel.NewDatabase(
		rel.NewFact("R", "a", "b"),
		rel.NewFact("R", "a", "c"),
		rel.NewFact("S", "x"),
		rel.NewFact("S", "y"),
	)
	blocks := s.Blocks(d)
	// One block of size 2 for R, singleton blocks for each S fact.
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
	var twos, ones int
	for _, b := range blocks {
		switch b.Size() {
		case 1:
			ones++
		case 2:
			twos++
		}
	}
	if twos != 1 || ones != 2 {
		t.Fatalf("block sizes wrong: %v", blocks)
	}
}

func TestBlocksPanicsForNonPrimary(t *testing.T) {
	d, s := runningExample() // general FDs
	defer func() {
		if recover() == nil {
			t.Fatal("Blocks should panic for non-primary-key sets")
		}
	}()
	s.Blocks(d)
}

func TestSetString(t *testing.T) {
	_, s := runningExample()
	want := "{R: A1 -> A2; R: A3 -> A2}"
	if got := s.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// Property: the conflict-pair relation is exactly the pairs (i,j) with
// InConflict, and blocks partition the database with intra-block pairs
// conflicting and inter-block pairs not (primary keys).
func TestQuickBlocksMatchConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	s := MustSet(sch, New("R", []int{0}, []int{1}))
	prop := func() bool {
		n := 1 + rng.Intn(12)
		facts := make([]rel.Fact, n)
		for i := range facts {
			facts[i] = rel.NewFact("R",
				string(rune('a'+rng.Intn(3))),
				string(rune('p'+rng.Intn(4))))
		}
		d := rel.NewDatabase(facts...)
		blocks := s.Blocks(d)
		covered := make(map[int]int) // fact index -> block id
		for bi, b := range blocks {
			for _, i := range b.Indices {
				if _, dup := covered[i]; dup {
					return false // not a partition
				}
				covered[i] = bi
			}
		}
		if len(covered) != d.Len() {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			for j := i + 1; j < d.Len(); j++ {
				conf := s.InConflict(d.Fact(i), d.Fact(j))
				same := covered[i] == covered[j]
				if conf != same {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Violations agrees with a naive all-pairs check.
func TestQuickViolationsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sch := rel.MustSchema(rel.NewRelation("R", 3))
	s := MustSet(sch,
		New("R", []int{0}, []int{1}),
		New("R", []int{2}, []int{1}),
	)
	prop := func() bool {
		n := rng.Intn(10)
		facts := make([]rel.Fact, n)
		for i := range facts {
			facts[i] = rel.NewFact("R",
				string(rune('a'+rng.Intn(3))),
				string(rune('p'+rng.Intn(3))),
				string(rune('x'+rng.Intn(3))))
		}
		d := rel.NewDatabase(facts...)
		got := s.Violations(d)
		var want []Violation
		for fi, phi := range s.FDs() {
			for i := 0; i < d.Len(); i++ {
				for j := i + 1; j < d.Len(); j++ {
					if phi.ViolatedBy(d.Fact(i), d.Fact(j)) {
						want = append(want, Violation{FDIndex: fi, I: i, J: j})
					}
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

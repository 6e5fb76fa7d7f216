package core

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cq"
	"repro/internal/fd"
	"repro/internal/rel"
)

// runningExample is Example 3.6: D = {f1, f2, f3} over R/3 with
// f1 = R(a1,b1,c1), f2 = R(a1,b2,c2), f3 = R(a2,b1,c2) and
// Σ = {R: A→B, R: C→B}. The sorted fact order matches f1, f2, f3.
func runningExample() *Instance {
	d := rel.NewDatabase(
		rel.NewFact("R", "a1", "b1", "c1"),
		rel.NewFact("R", "a1", "b2", "c2"),
		rel.NewFact("R", "a2", "b1", "c2"),
	)
	sch := rel.MustSchema(rel.NewRelation("R", 3))
	sigma := fd.MustSet(sch,
		fd.New("R", []int{0}, []int{1}),
		fd.New("R", []int{2}, []int{1}),
	)
	return NewInstance(d, sigma)
}

// figure2 is the database of Figure 2 over R/2 with the primary key
// R: A1 → A2. Blocks: {f11,f12,f13}, {f21}, {f31,f32}.
func figure2() *Instance {
	d := rel.NewDatabase(
		rel.NewFact("R", "a1", "b1"),
		rel.NewFact("R", "a1", "b2"),
		rel.NewFact("R", "a1", "b3"),
		rel.NewFact("R", "a2", "b1"),
		rel.NewFact("R", "a3", "b1"),
		rel.NewFact("R", "a3", "b2"),
	)
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	return NewInstance(d, sigma)
}

func ratEq(t *testing.T, got *big.Rat, num, den int64, what string) {
	t.Helper()
	want := big.NewRat(num, den)
	if got.Cmp(want) != 0 {
		t.Fatalf("%s = %s, want %s", what, got.RatString(), want.RatString())
	}
}

func TestConflictStructureRunningExample(t *testing.T) {
	inst := runningExample()
	pairs := inst.ConflictPairs()
	if len(pairs) != 2 || pairs[0] != [2]int{0, 1} || pairs[1] != [2]int{1, 2} {
		t.Fatalf("pairs = %v", pairs)
	}
	if blk := inst.BlockOf(1); !reflect.DeepEqual(blk, []int{0, 1, 2}) {
		t.Fatalf("BlockOf(1) = %v", blk)
	}
	if inst.IsConsistent(inst.Full()) {
		t.Fatal("D should be inconsistent")
	}
}

func TestJustifiedOpsRunningExample(t *testing.T) {
	inst := runningExample()
	ops := inst.JustifiedOps(inst.Full(), false)
	// Singletons -f1, -f2, -f3 and pairs -{f1,f2}, -{f2,f3}.
	if len(ops) != 5 {
		t.Fatalf("got %d ops, want 5: %v", len(ops), ops)
	}
	opsS := inst.JustifiedOps(inst.Full(), true)
	if len(opsS) != 3 {
		t.Fatalf("singleton ops = %v", opsS)
	}
	// After removing f2, the database is consistent: no ops.
	s := inst.Full().WithoutIndices(1)
	if len(inst.JustifiedOps(s, false)) != 0 {
		t.Fatal("consistent state must have no justified ops")
	}
}

func TestOpStringAndApply(t *testing.T) {
	inst := runningExample()
	single := Op{I: 0, J: -1}
	pair := Op{I: 0, J: 1}
	if single.String(inst.D) != "-R(a1,b1,c1)" {
		t.Fatalf("String = %q", single.String(inst.D))
	}
	if pair.String(inst.D) != "-{R(a1,b1,c1),R(a1,b2,c2)}" {
		t.Fatalf("String = %q", pair.String(inst.D))
	}
	s := pair.Apply(inst.Full())
	if s.Count() != 1 || !s.Has(2) {
		t.Fatalf("Apply wrong: %v", s.Indices())
	}
}

func TestIsRepairingAndComplete(t *testing.T) {
	inst := runningExample()
	f1, f2, f3 := Op{I: 0, J: -1}, Op{I: 1, J: -1}, Op{I: 2, J: -1}
	pair23 := Op{I: 1, J: 2}
	// -f1, -f2 is repairing and complete.
	if !inst.IsComplete(Sequence{f1, f2}, false) {
		t.Error("-f1,-f2 should be complete")
	}
	// -f2 alone resolves everything.
	if !inst.IsComplete(Sequence{f2}, false) {
		t.Error("-f2 should be complete")
	}
	// -f1 alone is repairing but not complete.
	if !inst.IsRepairing(Sequence{f1}, false) || inst.IsComplete(Sequence{f1}, false) {
		t.Error("-f1 should be repairing but incomplete")
	}
	// -f1, -f3 leaves {f2}: wait, f2 conflicts with nothing once f1, f3
	// are gone; it IS complete. Check -f3, -f1 then -f2 unjustified:
	if inst.IsRepairing(Sequence{f3, f1, f2}, false) {
		t.Error("after -f3,-f1 the database {f2} is consistent; -f2 unjustified")
	}
	// Pair removal of a non-violating pair is not justified.
	if inst.IsRepairing(Sequence{{I: 0, J: 2}}, false) {
		t.Error("-{f1,f3} is not justified")
	}
	// Singleton mode rejects pair removals.
	if inst.IsRepairing(Sequence{pair23}, true) {
		t.Error("pair op in singleton mode")
	}
	if !inst.IsRepairing(Sequence{pair23}, false) {
		t.Error("-{f2,f3} should be justified")
	}
	// ε is repairing and, for inconsistent D, incomplete.
	if !inst.IsRepairing(Sequence{}, false) || inst.IsComplete(Sequence{}, false) {
		t.Error("ε wrong")
	}
}

func TestSequenceString(t *testing.T) {
	inst := runningExample()
	if got := inst.SequenceString(Sequence{}); got != "ε" {
		t.Fatalf("empty = %q", got)
	}
	s := Sequence{{I: 0, J: -1}, {I: 1, J: 2}}
	want := "-R(a1,b1,c1), -{R(a1,b2,c2),R(a2,b1,c2)}"
	if got := inst.SequenceString(s); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestFigure1TreeShape reproduces Figure 1: the repairing Markov chain
// of the running example has 12 nodes (ε, 5 depth-1 nodes, 3+3 leaves
// below -f1 and -f3), 9 leaves, and the CRS subtree counts of Section 4
// (|CRS_ε| = 9, |CRS_{-f1}| = |CRS_{-f3}| = 3).
func TestFigure1TreeShape(t *testing.T) {
	inst := runningExample()
	tree, err := inst.BuildTree(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NodeCount != 12 {
		t.Errorf("NodeCount = %d, want 12 (= |RS(D,Σ)|)", tree.NodeCount)
	}
	if len(tree.Leaves) != 9 {
		t.Errorf("leaves = %d, want 9 (= |CRS(D,Σ)|)", len(tree.Leaves))
	}
	if tree.Root.SubtreeLeaves().Int64() != 9 {
		t.Errorf("|CRS_ε| = %v, want 9", tree.Root.SubtreeLeaves())
	}
	if len(tree.Root.Children) != 5 {
		t.Fatalf("root children = %d, want 5", len(tree.Root.Children))
	}
	// Our deterministic child order: -f1, -f2, -f3, -{f1,f2}, -{f2,f3}.
	wantCRS := []int64{3, 1, 3, 1, 1}
	wantCan := []int64{3, 1, 1, 0, 0}
	for i, c := range tree.Root.Children {
		if c.SubtreeLeaves().Int64() != wantCRS[i] {
			t.Errorf("child %d |CRS| = %v, want %d", i, c.SubtreeLeaves(), wantCRS[i])
		}
		if c.CanonicalLeaves().Int64() != wantCan[i] {
			t.Errorf("child %d |CanCRS| = %v, want %d", i, c.CanonicalLeaves(), wantCan[i])
		}
	}
	if tree.CanonicalLeafCount().Int64() != 5 {
		t.Errorf("|CanCRS| = %v, want 5 = |CORep|", tree.CanonicalLeafCount())
	}
}

// TestFigure1Probabilities checks the worked probabilities of Section 4
// for all three generators.
func TestFigure1Probabilities(t *testing.T) {
	inst := runningExample()
	tree, err := inst.BuildTree(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// M^us: root transitions 3/9, 1/9, 3/9, 1/9, 1/9; every leaf 1/9.
	wantUS := []*big.Rat{big.NewRat(1, 3), big.NewRat(1, 9), big.NewRat(1, 3), big.NewRat(1, 9), big.NewRat(1, 9)}
	for i := range tree.Root.Children {
		if got := tree.TransitionProb(UniformSequences, tree.Root, i); got.Cmp(wantUS[i]) != 0 {
			t.Errorf("us P(ε, child %d) = %s, want %s", i, got.RatString(), wantUS[i].RatString())
		}
	}
	for i, p := range tree.LeafDistribution(UniformSequences) {
		if p.Cmp(big.NewRat(1, 9)) != 0 {
			t.Errorf("us leaf %d prob = %s, want 1/9", i, p.RatString())
		}
	}
	// M^ur: root transitions 3/5, 1/5, 1/5, 0, 0; reachable leaves are
	// the 5 canonical ones, each with probability 1/5.
	wantUR := []*big.Rat{big.NewRat(3, 5), big.NewRat(1, 5), big.NewRat(1, 5), new(big.Rat), new(big.Rat)}
	for i := range tree.Root.Children {
		if got := tree.TransitionProb(UniformRepairs, tree.Root, i); got.Cmp(wantUR[i]) != 0 {
			t.Errorf("ur P(ε, child %d) = %s, want %s", i, got.RatString(), wantUR[i].RatString())
		}
	}
	rl := tree.ReachableLeaves(UniformRepairs)
	if len(rl) != 5 {
		t.Fatalf("ur reachable leaves = %d, want 5", len(rl))
	}
	dist := tree.LeafDistribution(UniformRepairs)
	for _, i := range rl {
		if dist[i].Cmp(big.NewRat(1, 5)) != 0 {
			t.Errorf("ur leaf %d prob = %s, want 1/5", i, dist[i].RatString())
		}
		if !tree.Leaves[i].Canonical() {
			t.Errorf("reachable leaf %d not canonical", i)
		}
	}
	// M^uo: root transitions all 1/5; depth-1 inner nodes have 3
	// children with probability 1/3.
	for i := range tree.Root.Children {
		if got := tree.TransitionProb(UniformOperations, tree.Root, i); got.Cmp(big.NewRat(1, 5)) != 0 {
			t.Errorf("uo P(ε, child %d) = %s, want 1/5", i, got.RatString())
		}
	}
	for _, c := range tree.Root.Children {
		for i := range c.Children {
			if got := tree.TransitionProb(UniformOperations, c, i); got.Cmp(big.NewRat(1, 3)) != 0 {
				t.Errorf("uo inner transition = %s, want 1/3", got.RatString())
			}
		}
	}
}

// TestRunningExampleSemantics checks [[D]]_M for all three generators
// against hand-computed distributions.
func TestRunningExampleSemantics(t *testing.T) {
	inst := runningExample()
	keyOf := func(idx ...int) string {
		s := rel.NewSubset(3)
		for _, i := range idx {
			s.Set(i)
		}
		return s.Key()
	}
	empty, f1, f2, f3, f13 := keyOf(), keyOf(0), keyOf(1), keyOf(2), keyOf(0, 2)

	check := func(got []RepairProb, want map[string]*big.Rat, label string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d repairs, want %d", label, len(got), len(want))
		}
		sum := new(big.Rat)
		for _, rp := range got {
			w, ok := want[rp.Repair.Key()]
			if !ok {
				t.Fatalf("%s: unexpected repair %v", label, rp.Repair.Indices())
			}
			if rp.Prob.Cmp(w) != 0 {
				t.Errorf("%s: repair %v prob = %s, want %s", label, rp.Repair.Indices(), rp.Prob.RatString(), w.RatString())
			}
			sum.Add(sum, rp.Prob)
		}
		if sum.Cmp(big.NewRat(1, 1)) != 0 {
			t.Errorf("%s: probabilities sum to %s", label, sum.RatString())
		}
	}

	// M^ur: uniform 1/5 over the five candidate repairs.
	ur, err := inst.SemanticsUR(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	check(ur, map[string]*big.Rat{
		empty: big.NewRat(1, 5), f1: big.NewRat(1, 5), f2: big.NewRat(1, 5),
		f3: big.NewRat(1, 5), f13: big.NewRat(1, 5),
	}, "ur")

	// M^us: sequence counts per repair: ∅:2, {f1}:2, {f2}:2, {f3}:2,
	// {f1,f3}:1, out of 9.
	us, err := inst.SemanticsUS(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	check(us, map[string]*big.Rat{
		empty: big.NewRat(2, 9), f1: big.NewRat(2, 9), f2: big.NewRat(2, 9),
		f3: big.NewRat(2, 9), f13: big.NewRat(1, 9),
	}, "us")

	// M^uo: hand-computed: ∅:2/15, {f1}:4/15, {f2}:2/15, {f3}:4/15,
	// {f1,f3}:3/15.
	uo, err := inst.SemanticsUO(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	check(uo, map[string]*big.Rat{
		empty: big.NewRat(2, 15), f1: big.NewRat(4, 15), f2: big.NewRat(2, 15),
		f3: big.NewRat(4, 15), f13: big.NewRat(1, 5),
	}, "uo")
}

// TestTreeMatchesDAGEngines cross-validates the explicit tree against
// the DAG engines on the running example.
func TestTreeMatchesDAGEngines(t *testing.T) {
	inst := runningExample()
	tree, err := inst.BuildTree(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustNew(nil, cq.NewAtom("R", cq.Var("x"), cq.Const("b1"), cq.Var("y")))
	pred := inst.EntailPred(q, cq.Tuple{})

	wantUO, err := inst.ProbUO(false, 0, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Probability(UniformOperations, pred); got.Cmp(wantUO) != 0 {
		t.Errorf("uo: tree %s vs dag %s", got.RatString(), wantUO.RatString())
	}
	wantUS, err := inst.SRFreq(false, 0, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Probability(UniformSequences, pred); got.Cmp(wantUS) != 0 {
		t.Errorf("us: tree %s vs dag %s", got.RatString(), wantUS.RatString())
	}
	wantUR, err := inst.RRFreq(false, 0, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Probability(UniformRepairs, pred); got.Cmp(wantUR) != 0 {
		t.Errorf("ur: tree %s vs component engine %s", got.RatString(), wantUR.RatString())
	}
	// Known values: rrfreq = 3/5 ({f1},{f3},{f1,f3} entail), srfreq =
	// 5/9, uo = 11/15.
	ratEq(t, wantUR, 3, 5, "rrfreq")
	ratEq(t, wantUS, 5, 9, "srfreq")
	ratEq(t, wantUO, 11, 15, "P_uo")
}

func TestCandidateRepairsRunningExample(t *testing.T) {
	inst := runningExample()
	if got := inst.CountCandidateRepairs(false); got.Int64() != 5 {
		t.Fatalf("|CORep| = %v, want 5", got)
	}
	var repairs []rel.Subset
	inst.CandidateRepairs(false, func(s rel.Subset) bool {
		repairs = append(repairs, s)
		return true
	})
	if len(repairs) != 5 {
		t.Fatalf("enumerated %d repairs", len(repairs))
	}
	for _, r := range repairs {
		if !inst.IsCandidateRepair(r, false) {
			t.Errorf("enumerated non-repair %v", r.Indices())
		}
		if !inst.IsConsistent(r) {
			t.Errorf("inconsistent repair %v", r.Indices())
		}
	}
	// Candidate repairs equal the distinct tree-leaf results.
	tree, err := inst.BuildTree(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	leafResults := map[string]bool{}
	for _, l := range tree.Leaves {
		leafResults[l.State.Key()] = true
	}
	if len(leafResults) != 5 {
		t.Fatalf("distinct leaf results = %d", len(leafResults))
	}
	for _, r := range repairs {
		if !leafResults[r.Key()] {
			t.Errorf("repair %v not reachable in tree", r.Indices())
		}
	}
}

func TestSingletonVariantRunningExample(t *testing.T) {
	inst := runningExample()
	// CORep^1: nonempty independent sets of the path f1-f2-f3:
	// {f1},{f2},{f3},{f1,f3} — the empty repair is unreachable.
	if got := inst.CountCandidateRepairs(true); got.Int64() != 4 {
		t.Fatalf("|CORep^1| = %v, want 4", got)
	}
	tree, err := inst.BuildTree(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Singleton sequences: -f1 then (-f2 or -f3); -f2; -f3 then (-f1 or
	// -f2): total 5.
	if len(tree.Leaves) != 5 {
		t.Fatalf("singleton |CRS^1| = %d, want 5", len(tree.Leaves))
	}
	n, err := inst.CountCRS(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Int64() != 5 {
		t.Fatalf("CountCRS singleton = %v, want 5", n)
	}
	if tree.CanonicalLeafCount().Int64() != 4 {
		t.Fatalf("|CanCRS^1| = %v, want 4", tree.CanonicalLeafCount())
	}
}

func TestFigure2Counts(t *testing.T) {
	inst := figure2()
	// Example B.2: 12 candidate repairs.
	if got := inst.CountCandidateRepairs(false); got.Int64() != 12 {
		t.Fatalf("|CORep| = %v, want 12", got)
	}
	// Example C.2: 99 complete repairing sequences.
	n, err := inst.CountCRS(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Int64() != 99 {
		t.Fatalf("|CRS| = %v, want 99", n)
	}
	// Singleton: |CORep^1| = 3·2 = 6 and |CRS^1| = 3!·2!·(3 choose 2
	// interleavings) = 36.
	if got := inst.CountCandidateRepairs(true); got.Int64() != 6 {
		t.Fatalf("|CORep^1| = %v, want 6", got)
	}
	n1, err := inst.CountCRS(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n1.Int64() != 36 {
		t.Fatalf("|CRS^1| = %v, want 36", n1)
	}
}

func TestFigure2Frequencies(t *testing.T) {
	inst := figure2()
	// Example B.3: Q = Ans(x) :- R(a1,x), tuple (b1): rrfreq = 1/4.
	q := cq.MustNew([]string{"x"}, cq.NewAtom("R", cq.Const("a1"), cq.Var("x")))
	pred := inst.EntailPred(q, cq.Tuple{"b1"})
	rr, err := inst.RRFreq(false, 0, pred)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, rr, 1, 4, "rrfreq Figure 2")
	// Example C.3: srfreq = 24/99 = 8/33.
	sr, err := inst.SRFreq(false, 0, pred)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, sr, 24, 99, "srfreq Figure 2")
}

func TestExactProbabilityDispatch(t *testing.T) {
	inst := figure2()
	q := cq.MustNew([]string{"x"}, cq.NewAtom("R", cq.Const("a1"), cq.Var("x")))
	c := cq.Tuple{"b1"}
	pr, err := inst.ExactProbability(Mode{Gen: UniformRepairs}, q, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, pr, 1, 4, "ExactProbability ur")
	ps, err := inst.ExactProbability(Mode{Gen: UniformSequences}, q, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, ps, 24, 99, "ExactProbability us")
	po, err := inst.ExactProbability(Mode{Gen: UniformOperations}, q, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if po.Sign() <= 0 || po.Cmp(big.NewRat(1, 1)) >= 0 {
		t.Fatalf("P_uo = %s out of range", po.RatString())
	}
}

func TestConsistentAnswers(t *testing.T) {
	inst := figure2()
	q := cq.MustNew([]string{"x"}, cq.NewAtom("R", cq.Const("a1"), cq.Var("x")))
	ans, err := inst.ConsistentAnswers(Mode{Gen: UniformRepairs}, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	// b1, b2, b3 each appear in 3 of 12 repairs: probability 1/4 each.
	if len(ans) != 3 {
		t.Fatalf("answers = %v", ans)
	}
	for _, a := range ans {
		ratEq(t, a.Prob, 1, 4, "answer "+a.Tuple.String())
	}
}

// TestPropD6Family validates Proposition D.6: for D_n = {R(0,0,0)} ∪
// {R(0,1,i)} with Σ = {R: A1 → A2}, 0 < P_{uo,Q}(D_n) ≤ 1/2^{n-1} for
// Q = Ans() :- R(0,0,0).
func TestPropD6Family(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 3))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	q := cq.MustNew(nil, cq.NewAtom("R", cq.Const("0"), cq.Const("0"), cq.Const("0")))
	for n := 1; n <= 7; n++ {
		facts := []rel.Fact{rel.NewFact("R", "0", "0", "0")}
		for i := 1; i < n; i++ {
			facts = append(facts, rel.NewFact("R", "0", "1", itoa(i)))
		}
		d := rel.NewDatabase(facts...)
		inst := NewInstance(d, sigma)
		p, err := inst.ProbUO(false, 0, inst.EntailPred(q, cq.Tuple{}))
		if err != nil {
			t.Fatal(err)
		}
		if p.Sign() <= 0 {
			t.Fatalf("n=%d: P_uo = %s, want > 0", n, p.RatString())
		}
		bound := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(n-1)))
		if p.Cmp(bound) > 0 {
			t.Fatalf("n=%d: P_uo = %s exceeds 1/2^{n-1} = %s", n, p.RatString(), bound.RatString())
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestStateLimit(t *testing.T) {
	inst := figure2()
	if _, err := inst.CountCRS(false, 3); err == nil {
		t.Error("CountCRS should hit the state limit")
	} else if _, ok := err.(StateLimitError); !ok {
		t.Errorf("error type = %T", err)
	}
	if _, err := inst.BuildTree(false, 4); err == nil {
		t.Error("BuildTree should hit the node limit")
	}
	if _, err := inst.RRFreq(false, 2, func(rel.Subset) bool { return true }); err == nil {
		t.Error("RRFreq should hit the repair limit")
	}
	if _, err := inst.SemanticsUO(false, 2); err == nil {
		t.Error("SemanticsUO should hit the state limit")
	}
	if _, err := inst.SemanticsUS(false, 2); err == nil {
		t.Error("SemanticsUS should hit the state limit")
	}
}

func TestConsistentDatabaseIsItsOnlyRepair(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	d := rel.NewDatabase(rel.NewFact("R", "a", "b"), rel.NewFact("R", "c", "d"))
	inst := NewInstance(d, sigma)
	if got := inst.CountCandidateRepairs(false); got.Int64() != 1 {
		t.Fatalf("|CORep| = %v, want 1", got)
	}
	n, err := inst.CountCRS(false, 0)
	if err != nil || n.Int64() != 1 {
		t.Fatalf("|CRS| = %v (err %v), want 1 (the empty sequence)", n, err)
	}
	sem, err := inst.SemanticsUO(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sem) != 1 || sem[0].Prob.Cmp(big.NewRat(1, 1)) != 0 || sem[0].Repair.Count() != 2 {
		t.Fatalf("semantics = %v", sem)
	}
}

// randomInstance builds a random binary-relation instance with the key
// A1 → A2 (and optionally a second FD), small enough for both engines.
func randomInstance(rng *rand.Rand, twoFDs bool) *Instance {
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	fds := []fd.FD{fd.New("R", []int{0}, []int{1})}
	if twoFDs {
		fds = append(fds, fd.New("R", []int{1}, []int{0}))
	}
	sigma := fd.MustSet(sch, fds...)
	n := 2 + rng.Intn(4)
	facts := make([]rel.Fact, 0, n)
	for i := 0; i < n; i++ {
		facts = append(facts, rel.NewFact("R",
			string(rune('a'+rng.Intn(3))),
			string(rune('p'+rng.Intn(3)))))
	}
	return NewInstance(rel.NewDatabase(facts...), sigma)
}

// TestQuickTreeVsDAG cross-validates the tree and DAG engines, and the
// component-based CORep enumeration against tree leaf results, on
// random instances (both one-FD and two-FD, both op spaces).
func TestQuickTreeVsDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	q := cq.MustNew(nil, cq.NewAtom("R", cq.Var("x"), cq.Const("p")))
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(rng, trial%2 == 1)
		singleton := trial%4 >= 2
		tree, err := inst.BuildTree(singleton, 200000)
		if err != nil {
			continue // too big; skip
		}
		pred := inst.EntailPred(q, cq.Tuple{})

		// |CRS| via DAG equals tree leaf count.
		n, err := inst.CountCRS(singleton, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n.Int64() != int64(len(tree.Leaves)) {
			t.Fatalf("trial %d: CountCRS = %v, tree leaves = %d", trial, n, len(tree.Leaves))
		}
		// srfreq via DAG equals tree probability.
		sr, err := inst.SRFreq(singleton, 0, pred)
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Probability(UniformSequences, pred); got.Cmp(sr) != 0 {
			t.Fatalf("trial %d: srfreq tree %s vs dag %s", trial, got.RatString(), sr.RatString())
		}
		// P_uo via DAG equals tree probability.
		po, err := inst.ProbUO(singleton, 0, pred)
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Probability(UniformOperations, pred); got.Cmp(po) != 0 {
			t.Fatalf("trial %d: uo tree %s vs dag %s", trial, got.RatString(), po.RatString())
		}
		// rrfreq via components equals tree canonical probability.
		rr, err := inst.RRFreq(singleton, 0, pred)
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Probability(UniformRepairs, pred); got.Cmp(rr) != 0 {
			t.Fatalf("trial %d: rrfreq tree %s vs comp %s", trial, got.RatString(), rr.RatString())
		}
		// |CORep| equals the number of canonical leaves and the number
		// of distinct leaf results.
		distinct := map[string]bool{}
		for _, l := range tree.Leaves {
			distinct[l.State.Key()] = true
		}
		if c := inst.CountCandidateRepairs(singleton); c.Int64() != int64(len(distinct)) {
			t.Fatalf("trial %d: CountCandidateRepairs = %v, distinct leaves = %d", trial, c, len(distinct))
		}
		if tree.CanonicalLeafCount().Int64() != int64(len(distinct)) {
			t.Fatalf("trial %d: canonical leaves != distinct results", trial)
		}
	}
}

// TestQuickSemanticsAgree cross-validates tree-level and DAG-level
// operational semantics on random instances.
func TestQuickSemanticsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, trial%2 == 1)
		tree, err := inst.BuildTree(false, 200000)
		if err != nil {
			continue
		}
		for _, gen := range []Generator{UniformSequences, UniformOperations, UniformRepairs} {
			want := tree.Semantics(gen)
			var got []RepairProb
			switch gen {
			case UniformSequences:
				got, err = inst.SemanticsUS(false, 0)
			case UniformOperations:
				got, err = inst.SemanticsUO(false, 0)
			case UniformRepairs:
				got, err = inst.SemanticsUR(false, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %v: %d vs %d repairs", trial, gen, len(got), len(want))
			}
			for i := range got {
				if !got[i].Repair.Equal(want[i].Repair) || got[i].Prob.Cmp(want[i].Prob) != 0 {
					t.Fatalf("trial %d %v: repair %d mismatch (%v %s vs %v %s)", trial, gen,
						i, got[i].Repair.Indices(), got[i].Prob.RatString(),
						want[i].Repair.Indices(), want[i].Prob.RatString())
				}
			}
		}
	}
}

func TestModeSymbols(t *testing.T) {
	tests := []struct {
		m    Mode
		want string
	}{
		{Mode{Gen: UniformRepairs}, "M^ur"},
		{Mode{Gen: UniformSequences}, "M^us"},
		{Mode{Gen: UniformOperations}, "M^uo"},
		{Mode{Gen: UniformOperations, Singleton: true}, "M^uo,1"},
		{Mode{Gen: UniformRepairs, Singleton: true}, "M^ur,1"},
	}
	for _, tc := range tests {
		if got := tc.m.Symbol(); got != tc.want {
			t.Errorf("Symbol = %q, want %q", got, tc.want)
		}
	}
	if UniformRepairs.String() != "uniform repairs" {
		t.Error("Generator.String wrong")
	}
	if (Mode{Gen: UniformSequences, Singleton: true}).String() != "uniform sequences (singleton operations)" {
		t.Error("Mode.String wrong")
	}
}

func TestRenderContainsProbabilities(t *testing.T) {
	inst := runningExample()
	tree, err := inst.BuildTree(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := tree.Render(UniformSequences)
	if len(out) == 0 {
		t.Fatal("empty render")
	}
	for _, want := range []string{"ε", "p=1/3", "p=1/9", "[leaf, canonical]"} {
		if !contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestSequenceOf(t *testing.T) {
	inst := runningExample()
	tree, err := inst.BuildTree(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Leaves[0]
	seq := tree.SequenceOf(leaf)
	if len(seq) == 0 {
		t.Fatal("empty sequence for leaf")
	}
	if !inst.IsComplete(seq, false) {
		t.Fatalf("reconstructed sequence %v not complete", seq)
	}
	if !inst.Result(seq).Equal(leaf.State) {
		t.Fatal("reconstructed sequence has wrong result")
	}
}

// TestRepairSamplerUniform validates the general-FD candidate-repair
// sampler against the exact M^ur semantics on the running example.
func TestRepairSamplerUniform(t *testing.T) {
	inst := runningExample()
	for _, singleton := range []bool{false, true} {
		want, err := inst.SemanticsUR(singleton, 0)
		if err != nil {
			t.Fatal(err)
		}
		rs := inst.NewRepairSampler()
		rng := rand.New(rand.NewSource(163))
		const n = 40000
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			s := rs.Sample(rng, singleton)
			if !inst.IsCandidateRepair(s, singleton) {
				t.Fatalf("sampled non-repair %v (singleton=%v)", s.Indices(), singleton)
			}
			counts[s.Key()]++
		}
		if len(counts) != len(want) {
			t.Fatalf("singleton=%v: observed %d repairs, want %d", singleton, len(counts), len(want))
		}
		for _, rp := range want {
			p, _ := rp.Prob.Float64()
			got := float64(counts[rp.Repair.Key()]) / n
			sigma := 5 * (p*(1-p)/n + 1e-12)
			_ = sigma
			if got < p-5*0.01 || got > p+5*0.01 {
				t.Errorf("singleton=%v repair %v: freq %.4f, want %.4f", singleton, rp.Repair.Indices(), got, p)
			}
		}
	}
}

// TestRepairSamplerTrivialFactsAlwaysKept: keyless facts survive every
// sampled repair.
func TestRepairSamplerTrivialFacts(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 2), rel.NewRelation("S", 1))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	d := rel.NewDatabase(
		rel.NewFact("R", "a", "x"),
		rel.NewFact("R", "a", "y"),
		rel.NewFact("S", "keep"),
	)
	inst := NewInstance(d, sigma)
	rs := inst.NewRepairSampler()
	rng := rand.New(rand.NewSource(167))
	keepIdx := d.IndexOf(rel.NewFact("S", "keep"))
	for i := 0; i < 200; i++ {
		if !rs.Sample(rng, false).Has(keepIdx) {
			t.Fatal("trivial fact dropped from a sampled repair")
		}
	}
}

// witnessPred is TargetImages as a predicate over subsets, evaluated by
// Holds: nil and false past the image cap.
func witnessPred(inst *Instance, q *cq.Query, c cq.Tuple, maxImages int) (func(rel.Subset) bool, bool) {
	ws, ok := inst.TargetImages(q, c, maxImages)
	if !ok {
		return nil, false
	}
	return func(s rel.Subset) bool { return Holds(ws, s) }, true
}

// TestWitnessPredMatchesEntailPred: the witness-image predicate agrees
// with the materialising predicate on every reachable state of random
// instances and queries.
func TestWitnessPredMatchesEntailPred(t *testing.T) {
	rng := rand.New(rand.NewSource(199))
	q := cq.MustNew([]string{"x"},
		cq.NewAtom("R", cq.Var("x"), cq.Var("y")),
		cq.NewAtom("R", cq.Var("z"), cq.Var("y")),
	)
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, trial%2 == 1)
		dom := inst.D.ActiveDomain()
		if len(dom) == 0 {
			continue
		}
		c := cq.Tuple{dom[rng.Intn(len(dom))]}
		slow := inst.EntailPred(q, c)
		fast, ok := witnessPred(inst, q, c, 0)
		if !ok {
			t.Fatal("witness pred overflowed on a tiny instance")
		}
		// Compare on every candidate repair and on D itself.
		if fast(inst.Full()) != slow(inst.Full()) {
			t.Fatalf("trial %d: disagreement on D", trial)
		}
		inst.CandidateRepairs(false, func(s rel.Subset) bool {
			if fast(s) != slow(s) {
				t.Fatalf("trial %d: disagreement on %v", trial, s.Indices())
			}
			return true
		})
	}
}

// TestWitnessPredBooleanAndMismatch covers Boolean queries and
// wrong-arity tuples.
func TestWitnessPredBooleanAndMismatch(t *testing.T) {
	inst := figure2()
	qb := cq.MustNew(nil, cq.NewAtom("R", cq.Const("a1"), cq.Var("x")))
	pred, ok := witnessPred(inst, qb, cq.Tuple{}, 0)
	if !ok {
		t.Fatal("overflow")
	}
	if !pred(inst.Full()) {
		t.Error("Boolean query should hold on D")
	}
	empty := rel.NewSubset(inst.D.Len())
	if pred(empty) {
		t.Error("Boolean query cannot hold on the empty database")
	}
	// Wrong arity tuple: constant false predicate.
	predBad, ok := witnessPred(inst, qb, cq.Tuple{"a1", "b1"}, 0)
	if !ok || predBad(inst.Full()) {
		t.Error("wrong-arity tuple must yield the constant-false predicate")
	}
}

// TestWitnessPredOverflow forces the image cap.
func TestWitnessPredOverflow(t *testing.T) {
	inst := figure2()
	q := cq.MustNew(nil, cq.NewAtom("R", cq.Var("x"), cq.Var("y")))
	if _, ok := witnessPred(inst, q, cq.Tuple{}, 2); ok {
		t.Fatal("expected overflow with maxImages=2 and 6 facts")
	}
}

// TestWitnessPredConstantOnlyQuery: queries whose atoms mention
// constants absent from D have no witnesses.
func TestWitnessPredConstantOnlyQuery(t *testing.T) {
	inst := figure2()
	q := cq.MustNew(nil, cq.NewAtom("R", cq.Const("nope"), cq.Var("x")))
	ws, ok := inst.TargetImages(q, cq.Tuple{}, 0)
	if !ok {
		t.Fatal("overflow")
	}
	if len(ws) != 0 || Holds(ws, inst.Full()) {
		t.Errorf("no witness should exist, got %v", ws)
	}
}

// TestWitnessSequenceEveryRepair: the Lemma 5.4 construction yields a
// valid complete sequence for every candidate repair of random
// instances, in both operation spaces.
func TestWitnessSequenceEveryRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, trial%2 == 1)
		for _, singleton := range []bool{false, true} {
			inst.CandidateRepairs(singleton, func(r rel.Subset) bool {
				seq, ok := inst.WitnessSequence(r, singleton)
				if !ok {
					t.Fatalf("trial %d: repair %v rejected", trial, r.Indices())
				}
				if !inst.IsComplete(seq, singleton) {
					t.Fatalf("trial %d singleton=%v: witness %v not a complete sequence for %v",
						trial, singleton, seq, r.Indices())
				}
				if !inst.Result(seq).Equal(r) {
					t.Fatalf("trial %d: witness result %v != repair %v",
						trial, inst.Result(seq).Indices(), r.Indices())
				}
				return true
			})
		}
	}
}

// TestWitnessSequenceRejectsNonRepairs: subsets that are not candidate
// repairs are rejected.
func TestWitnessSequenceRejectsNonRepairs(t *testing.T) {
	inst := runningExample()
	// {f1, f2} is inconsistent.
	bad := rel.NewSubset(3)
	bad.Set(0)
	bad.Set(1)
	if _, ok := inst.WitnessSequence(bad, false); ok {
		t.Error("inconsistent subset accepted")
	}
	// ∅ is a candidate repair with pairs but not with singletons.
	empty := rel.NewSubset(3)
	if _, ok := inst.WitnessSequence(empty, false); !ok {
		t.Error("∅ should be reachable with pair operations")
	}
	if _, ok := inst.WitnessSequence(empty, true); ok {
		t.Error("∅ must be unreachable with singleton operations")
	}
}

// TestWitnessSequenceEmptyRepairUsesOnePair: emptying a component uses
// exactly one pair removal (the last operation), per the Lemma 5.4
// Case 2 construction.
func TestWitnessSequenceEmptyRepairUsesOnePair(t *testing.T) {
	inst := runningExample()
	empty := rel.NewSubset(3)
	seq, ok := inst.WitnessSequence(empty, false)
	if !ok {
		t.Fatal("empty repair rejected")
	}
	pairs := 0
	for _, op := range seq {
		if !op.Singleton() {
			pairs++
		}
	}
	if pairs != 1 || seq[len(seq)-1].Singleton() {
		t.Fatalf("want exactly one final pair removal, got %v", seq)
	}
}

// TestPropositionA2A4LeafDistributions verifies the appendix
// propositions on random instances: under M^ur the reachable leaves
// are exactly the canonical sequences, each with probability
// 1/|CanCRS| (Prop A.2); under M^us every leaf has probability
// 1/|CRS| (Prop A.4).
func TestPropositionA2A4LeafDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 25; trial++ {
		inst := randomInstance(rng, trial%2 == 1)
		tree, err := inst.BuildTree(false, 100000)
		if err != nil {
			continue
		}
		crs := int64(len(tree.Leaves))
		can := tree.CanonicalLeafCount().Int64()
		urDist := tree.LeafDistribution(UniformRepairs)
		usDist := tree.LeafDistribution(UniformSequences)
		for i, leaf := range tree.Leaves {
			if usDist[i].Cmp(big.NewRat(1, crs)) != 0 {
				t.Fatalf("trial %d: us leaf %d prob %s, want 1/%d", trial, i, usDist[i].RatString(), crs)
			}
			if leaf.Canonical() {
				if urDist[i].Cmp(big.NewRat(1, can)) != 0 {
					t.Fatalf("trial %d: canonical leaf %d prob %s, want 1/%d", trial, i, urDist[i].RatString(), can)
				}
			} else if urDist[i].Sign() != 0 {
				t.Fatalf("trial %d: non-canonical leaf %d has prob %s", trial, i, urDist[i].RatString())
			}
		}
	}
}

// prop73Family builds the structured keys family behind Proposition
// 7.3's analysis: a hot fact conflicting with k facts through the
// first key and k facts through the second key of R/3.
func prop73Family(k int) *Instance {
	sch := rel.MustSchema(rel.NewRelation("R", 3))
	sigma := fd.MustSet(sch,
		fd.New("R", []int{0}, []int{1, 2}),
		fd.New("R", []int{1}, []int{0, 2}),
	)
	facts := []rel.Fact{rel.NewFact("R", "a", "b", "hot")}
	for i := 0; i < k; i++ {
		facts = append(facts, rel.NewFact("R", "a", "b"+itoa(i+1), "x"+itoa(i)))
		facts = append(facts, rel.NewFact("R", "a"+itoa(i+1), "b", "y"+itoa(i)))
	}
	return NewInstance(rel.NewDatabase(facts...), sigma)
}

// TestProp73RatioPolynomial checks the quantitative heart of
// Proposition 7.3 on the structured family: Λ_{¬f}/Λ_f — the odds
// against the witness fact surviving an M^uo walk — stays polynomially
// bounded in ‖D‖ (here against the loose envelope (2‖D‖)²), in sharp
// contrast with the exponential FD family of Proposition D.6.
func TestProp73RatioPolynomial(t *testing.T) {
	for k := 1; k <= 4; k++ {
		inst := prop73Family(k)
		hot := inst.D.IndexOf(rel.NewFact("R", "a", "b", "hot"))
		p, err := inst.ProbUO(false, 500000, func(s rel.Subset) bool { return s.Has(hot) })
		if err != nil {
			t.Fatal(err)
		}
		pf, _ := p.Float64()
		if pf <= 0 {
			t.Fatalf("k=%d: probability vanished", k)
		}
		n := float64(inst.D.Len())
		ratio := (1 - pf) / pf
		if ratio > 4*n*n {
			t.Fatalf("k=%d: odds ratio %.2f exceeds the polynomial envelope %.2f", k, ratio, 4*n*n)
		}
	}
}

// TestPropD6ContrastExponential: on the Proposition D.6 family the
// same odds ratio grows exponentially — the two tests together exhibit
// the keys-vs-FDs separation of Section 7.
func TestPropD6ContrastExponential(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 3))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	prev := 0.0
	for n := 4; n <= 10; n += 2 {
		facts := []rel.Fact{rel.NewFact("R", "0", "0", "0")}
		for i := 1; i < n; i++ {
			facts = append(facts, rel.NewFact("R", "0", "1", itoa(i)))
		}
		inst := NewInstance(rel.NewDatabase(facts...), sigma)
		hot := inst.D.IndexOf(rel.NewFact("R", "0", "0", "0"))
		p, err := inst.ProbUO(false, 0, func(s rel.Subset) bool { return s.Has(hot) })
		if err != nil {
			t.Fatal(err)
		}
		pf, _ := p.Float64()
		ratio := (1 - pf) / pf
		if prev > 0 && ratio < 2.5*prev {
			t.Fatalf("n=%d: odds ratio %.1f did not grow exponentially from %.1f", n, ratio, prev)
		}
		prev = ratio
	}
}

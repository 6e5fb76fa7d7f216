package sampler

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/rel"
	"repro/internal/workload"
)

func figure2() *core.Instance {
	d := rel.NewDatabase(
		rel.NewFact("R", "a1", "b1"),
		rel.NewFact("R", "a1", "b2"),
		rel.NewFact("R", "a1", "b3"),
		rel.NewFact("R", "a2", "b1"),
		rel.NewFact("R", "a3", "b1"),
		rel.NewFact("R", "a3", "b2"),
	)
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	return core.NewInstance(d, fd.MustSet(sch, fd.New("R", []int{0}, []int{1})))
}

func runningExample() *core.Instance {
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
	return core.NewInstance(d, sigma)
}

func TestNewBlockSamplerRejectsFDs(t *testing.T) {
	if _, err := NewBlockSampler(runningExample()); err == nil {
		t.Fatal("block sampler must reject general FDs")
	}
}

func TestNewBlockSamplerRejectsMultipleKeys(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	sigma := fd.MustSet(sch,
		fd.New("R", []int{0}, []int{1}),
		fd.New("R", []int{1}, []int{0}),
	)
	d := rel.NewDatabase(rel.NewFact("R", "a", "b"))
	if _, err := NewBlockSampler(core.NewInstance(d, sigma)); err == nil {
		t.Fatal("block sampler must reject non-primary keys")
	}
}

func TestBlockSamplerCounts(t *testing.T) {
	bs, err := NewBlockSampler(figure2())
	if err != nil {
		t.Fatal(err)
	}
	if got := bs.CountRepairs(false); got.Int64() != 12 {
		t.Errorf("|CORep| = %v, want 12", got)
	}
	if got := bs.CountRepairs(true); got.Int64() != 6 {
		t.Errorf("|CORep^1| = %v, want 6", got)
	}
	if got := bs.CountSequences(false); got.Int64() != 99 {
		t.Errorf("|CRS| = %v, want 99", got)
	}
	if got := bs.CountSequences(true); got.Int64() != 36 {
		t.Errorf("|CRS^1| = %v, want 36", got)
	}
	sizes := bs.Blocks()
	if len(sizes) != 2 {
		t.Fatalf("blocks = %v, want the two non-singleton blocks", sizes)
	}
}

// assertUniform checks that the observed counts over cells are within
// tol standard deviations of uniform.
func assertUniform(t *testing.T, counts map[string]int, cells, n int, tol float64) {
	t.Helper()
	if len(counts) != cells {
		t.Fatalf("observed %d distinct outcomes, want %d", len(counts), cells)
	}
	p := 1.0 / float64(cells)
	sigma := math.Sqrt(p * (1 - p) * float64(n))
	want := p * float64(n)
	for k, c := range counts {
		if math.Abs(float64(c)-want) > tol*sigma {
			t.Errorf("cell %q: count %d deviates from %.1f by more than %.0fσ", k, c, want, tol)
		}
	}
}

func TestSampleRepairUniform(t *testing.T) {
	inst := figure2()
	bs, err := NewBlockSampler(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	const n = 36000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		s := bs.SampleRepair(rng, false)
		if !inst.IsCandidateRepair(s, false) {
			t.Fatalf("sampled non-repair %v", s.Indices())
		}
		counts[s.Key()]++
	}
	assertUniform(t, counts, 12, n, 5)
}

func TestSampleRepairSingletonUniform(t *testing.T) {
	inst := figure2()
	bs, err := NewBlockSampler(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	const n = 18000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		s := bs.SampleRepair(rng, true)
		if !inst.IsCandidateRepair(s, true) {
			t.Fatalf("sampled non-CORep^1 element %v", s.Indices())
		}
		counts[s.Key()]++
	}
	assertUniform(t, counts, 6, n, 5)
}

func TestSampleSequenceValidAndComplete(t *testing.T) {
	inst := figure2()
	bs, err := NewBlockSampler(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 200; i++ {
		singleton := i%2 == 1
		seq, res := bs.SampleSequence(rng, singleton)
		if !inst.IsComplete(seq, singleton) {
			t.Fatalf("sampled sequence %v not complete (singleton=%v)", seq, singleton)
		}
		if !inst.Result(seq).Equal(res) {
			t.Fatal("returned result does not match sequence result")
		}
	}
}

// seqKey canonically encodes a sequence for counting.
func seqKey(s core.Sequence) string {
	out := ""
	for _, op := range s {
		out += "("
		out += itoa(op.I)
		out += ","
		out += itoa(op.J)
		out += ")"
	}
	return out
}

func itoa(i int) string {
	if i < 0 {
		return "-" + itoa(-i)
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

func TestSampleSequenceUniformSmall(t *testing.T) {
	// Two blocks of size 2: |CRS| = 18 cells.
	d := rel.NewDatabase(
		rel.NewFact("R", "a", "x"),
		rel.NewFact("R", "a", "y"),
		rel.NewFact("R", "b", "x"),
		rel.NewFact("R", "b", "y"),
	)
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	inst := core.NewInstance(d, fd.MustSet(sch, fd.New("R", []int{0}, []int{1})))
	bs, err := NewBlockSampler(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got := bs.CountSequences(false); got.Int64() != 18 {
		t.Fatalf("|CRS| = %v, want 18", got)
	}
	rng := rand.New(rand.NewSource(73))
	const n = 54000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		seq, _ := bs.SampleSequence(rng, false)
		counts[seqKey(seq)]++
	}
	assertUniform(t, counts, 18, n, 5)
}

func TestSampleSequenceSingletonUniform(t *testing.T) {
	// One block of size 3 singleton: 3! = 6 sequences.
	d := rel.NewDatabase(
		rel.NewFact("R", "a", "x"),
		rel.NewFact("R", "a", "y"),
		rel.NewFact("R", "a", "z"),
	)
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	inst := core.NewInstance(d, fd.MustSet(sch, fd.New("R", []int{0}, []int{1})))
	bs, err := NewBlockSampler(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	const n = 30000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		seq, _ := bs.SampleSequence(rng, true)
		counts[seqKey(seq)]++
	}
	assertUniform(t, counts, 6, n, 5)
}

// TestSampleSequenceMatchesUSSemantics checks that the repair
// distribution induced by uniform sequences matches SemanticsUS on
// Figure 2.
func TestSampleSequenceMatchesUSSemantics(t *testing.T) {
	inst := figure2()
	bs, err := NewBlockSampler(inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.SemanticsUS(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	const n = 60000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		_, res := bs.SampleSequence(rng, false)
		counts[res.Key()]++
	}
	for _, rp := range want {
		p, _ := rp.Prob.Float64()
		got := float64(counts[rp.Repair.Key()]) / n
		sigma := math.Sqrt(p * (1 - p) / n)
		if math.Abs(got-p) > 5*sigma {
			t.Errorf("repair %v: sampled %.4f, exact %.4f", rp.Repair.Indices(), got, p)
		}
	}
}

// TestSampleUOMatchesExact checks the M^uo walk against the exact DAG
// distribution on the running example (general FDs).
func TestSampleUOMatchesExact(t *testing.T) {
	inst := runningExample()
	for _, singleton := range []bool{false, true} {
		want, err := inst.SemanticsUO(singleton, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(89))
		const n = 60000
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			seq, res := SampleUO(inst, singleton, rng)
			if !inst.IsComplete(seq, singleton) {
				t.Fatalf("sampled incomplete sequence %v", seq)
			}
			counts[res.Key()]++
		}
		totalSeen := 0
		for _, c := range counts {
			totalSeen += c
		}
		if totalSeen != n {
			t.Fatal("lost samples")
		}
		for _, rp := range want {
			p, _ := rp.Prob.Float64()
			got := float64(counts[rp.Repair.Key()]) / n
			sigma := math.Sqrt(p*(1-p)/n) + 1e-12
			if math.Abs(got-p) > 5*sigma {
				t.Errorf("singleton=%v repair %v: sampled %.4f, exact %.4f", singleton, rp.Repair.Indices(), got, p)
			}
		}
	}
}

// TestSampleUOConsistentInput checks that a consistent database yields
// the empty sequence and the database itself.
func TestSampleUOConsistentInput(t *testing.T) {
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	d := rel.NewDatabase(rel.NewFact("R", "a", "b"))
	inst := core.NewInstance(d, fd.MustSet(sch, fd.New("R", []int{0}, []int{1})))
	seq, res := SampleUO(inst, false, rand.New(rand.NewSource(1)))
	if len(seq) != 0 || res.Count() != 1 {
		t.Fatalf("seq = %v, res = %v", seq, res.Indices())
	}
}

// TestSampleSequenceLargerInstanceStillExact stresses the weight
// invariant (panic inside SampleSequence if the group weights do not
// sum to |CRS|) on a larger block profile.
func TestSampleSequenceLargerInstanceStillExact(t *testing.T) {
	var facts []rel.Fact
	blockSizes := []int{5, 4, 3, 3, 2, 1}
	for b, m := range blockSizes {
		for j := 0; j < m; j++ {
			facts = append(facts, rel.NewFact("R", "a"+itoa(b), "b"+itoa(j)))
		}
	}
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	inst := core.NewInstance(rel.NewDatabase(facts...), fd.MustSet(sch, fd.New("R", []int{0}, []int{1})))
	bs, err := NewBlockSampler(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 50; i++ {
		seq, _ := bs.SampleSequence(rng, false)
		if !inst.IsComplete(seq, false) {
			t.Fatalf("incomplete sequence on larger instance")
		}
	}
	// Cross-check the DP against the DAG engine once.
	want, err := inst.CountCRS(false, 0)
	if err == nil {
		if bs.CountSequences(false).Cmp(want) != 0 {
			t.Fatalf("DP %v != DAG %v", bs.CountSequences(false), want)
		}
	}
}

// TestSampleRepairMatchesURSemantics: uniform repairs equals the exact
// M^ur semantics (Proposition A.2) empirically.
func TestSampleRepairMatchesURSemantics(t *testing.T) {
	inst := figure2()
	bs, err := NewBlockSampler(inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.SemanticsUR(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 12 {
		t.Fatalf("expected 12 repairs, got %d", len(want))
	}
	for _, rp := range want {
		if rp.Prob.Cmp(big.NewRat(1, 12)) != 0 {
			t.Fatalf("non-uniform exact semantics: %s", rp.Prob.RatString())
		}
	}
	rng := rand.New(rand.NewSource(101))
	const n = 24000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[bs.SampleRepair(rng, false).Key()]++
	}
	assertUniform(t, counts, 12, n, 5)
}

// TestUOWalkerGolden pins the walker's draw streams: sequences and
// results of 200 walks per case hash to the values the walker produced
// before it read the instance's shared conflict adjacency, so fact
// marginals and shared answers passes under M^uo repeat bit for bit.
func TestUOWalkerGolden(t *testing.T) {
	for _, c := range []struct {
		name      string
		w         workload.Instance
		singleton bool
		want      uint64
	}{
		{"multikey", workload.MultiKeyDatabase(rand.New(rand.NewSource(5)), 200, 60), false, 0xab061226fbc8810d},
		{"multikey", workload.MultiKeyDatabase(rand.New(rand.NewSource(5)), 200, 60), true, 0x1da726cc11d15db8},
		{"fdchain", workload.FDChainDatabase(rand.New(rand.NewSource(7)), 300, 80), false, 0xb33e3091305c7675},
		{"fdchain", workload.FDChainDatabase(rand.New(rand.NewSource(7)), 300, 80), true, 0x60b53cb2ba46935b},
	} {
		walker := NewUOWalker(c.w.Core())
		rng := rand.New(rand.NewSource(11))
		h := fnv.New64a()
		for i := 0; i < 200; i++ {
			seq, res := walker.Walk(rng, c.singleton)
			for _, op := range seq {
				fmt.Fprintf(h, "%d,%d;", op.I, op.J)
			}
			h.Write([]byte(res.Key()))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s singleton=%v: walks hash to %#x, want %#x", c.name, c.singleton, got, c.want)
		}
	}
}

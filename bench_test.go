// Benchmarks, one per experiment of the evaluation suite (E01–E14;
// `go run ./cmd/ocqa-bench` prints every experiment's table),
// plus micro-benchmarks for the hot kernels (samplers, counting DP,
// conflict detection, CQ evaluation). Run with:
//
//	go test -bench=. -benchmem
package ocqa_test

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	ocqa "repro"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/reduction"
	"repro/internal/sampler"
	"repro/internal/workload"
)

// --- fixtures -------------------------------------------------------------

func runningExampleInstance(b *testing.B) *ocqa.Instance {
	b.Helper()
	inst, err := ocqa.NewInstanceFromText(
		"R(a1,b1,c1)\nR(a1,b2,c2)\nR(a2,b1,c2)",
		"R: A1 -> A2\nR: A3 -> A2")
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func benchFigure2Instance(b *testing.B) *ocqa.Instance {
	b.Helper()
	inst, err := ocqa.NewInstanceFromText(
		"R(a1,b1)\nR(a1,b2)\nR(a1,b3)\nR(a2,b1)\nR(a3,b1)\nR(a3,b2)",
		"R: A1 -> A2")
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func blockWorkload(b *testing.B, blocks, size int) workload.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	return workload.HotBlockDatabase(rng, workload.BlockSpec{
		Blocks: blocks, MinSize: size, MaxSize: size, ValueSkew: 0.5,
	})
}

// --- one bench per experiment ---------------------------------------------

// BenchmarkE01Figure1 materialises the running example's repairing
// Markov chain and computes all three leaf distributions.
func BenchmarkE01Figure1(b *testing.B) {
	inst := runningExampleInstance(b)
	for i := 0; i < b.N; i++ {
		chain, err := inst.BuildChain(false, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, gen := range []ocqa.Generator{ocqa.UniformRepairs, ocqa.UniformSequences, ocqa.UniformOperations} {
			chain.LeafDistribution(gen)
		}
	}
}

// BenchmarkE02Figure2 computes the Figure 2 quantities: |CORep|,
// |CRS| via the DAG, and the exact rrfreq/srfreq of Example B.3/C.3.
func BenchmarkE02Figure2(b *testing.B) {
	inst := benchFigure2Instance(b)
	q, err := ocqa.ParseQuery("Ans(x) :- R('a1', x)")
	if err != nil {
		b.Fatal(err)
	}
	c := ocqa.Tuple{"b1"}
	for i := 0; i < b.N; i++ {
		inst.CountRepairs(false)
		if _, err := inst.CountSequences(false, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, c, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformSequences}, q, c, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE03RRFreqFPRAS measures one repair draw + entailment check,
// the kernel of the Theorem 5.1(2) FPRAS, at two scales.
func BenchmarkE03RRFreqFPRAS(b *testing.B) {
	for _, blocks := range []int{20, 100} {
		b.Run(bsize(blocks), func(b *testing.B) {
			w := blockWorkload(b, blocks, 4)
			inst := w.Core()
			bs, err := sampler.NewBlockSampler(inst)
			if err != nil {
				b.Fatal(err)
			}
			pred := inst.EntailPred(w.Query, w.Tuple)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pred(bs.SampleRepair(rng, false))
			}
		})
	}
}

// BenchmarkE04SRFreqFPRAS measures one uniform-sequence draw, both via
// Algorithm 1 (per-step counting) and via the profile-traceback
// sampler — the ablation for the sampler design choice.
func BenchmarkE04SRFreqFPRAS(b *testing.B) {
	w := blockWorkload(b, 20, 4)
	inst := w.Core()
	b.Run("algorithm1", func(b *testing.B) {
		bs, err := sampler.NewBlockSampler(inst)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.SampleSequence(rng, false)
		}
	})
	b.Run("traceback", func(b *testing.B) {
		ss, err := sampler.NewSequenceSampler(inst, false)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ss.Sample(rng)
		}
	})
}

// BenchmarkE05UniformOps measures one M^uo chain walk under keys.
func BenchmarkE05UniformOps(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	w := workload.MultiKeyDatabase(rng, 200, 12)
	inst := w.Core()
	walker := sampler.NewUOWalker(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walker.WalkResult(rng, false)
	}
}

// BenchmarkE05UniformOpsLocal measures one M^uo leaf drawn by UOLocal
// on E05's instance, in the two cases that bound its use: deciding only
// the query's one-fact target (what a single-target estimate pays per
// draw), and deciding every fact (what a whole-database consumer would
// pay, against BenchmarkE05UniformOps' walk).
func BenchmarkE05UniformOpsLocal(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	w := workload.MultiKeyDatabase(rng, 200, 12)
	benchLocalLeaf(b, w, false, rng)
}

// benchLocalLeaf runs the target and every-fact cases of a UOLocal
// benchmark.
func benchLocalLeaf(b *testing.B, w workload.Instance, singleton bool, rng *rand.Rand) {
	inst := w.Core()
	mp := inst.CompileTarget(w.Query, w.Tuple, 0)
	images, ok := mp.TupleWitnesses(0)
	if len(mp.Tuples()) != 1 || !ok || len(images) != 1 || len(images[0]) != 1 {
		b.Fatalf("want a one-fact target, got %v", images)
	}
	leaf := sampler.NewUOLocal(inst.Adjacency(), singleton)
	b.Run("target", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			leaf.Draw(rng)
			core.Holds(images, leaf)
		}
	})
	b.Run("every-fact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			leaf.Draw(rng)
			for f := 0; f < inst.D.Len(); f++ {
				leaf.Has(f)
			}
		}
	})
}

// BenchmarkE06FDExpSmall computes the exact (exponentially small)
// Proposition D.6 probability on D_12.
func BenchmarkE06FDExpSmall(b *testing.B) {
	p := reduction.PropD6(12)
	inst := core.NewInstance(p.DB, p.Sigma)
	pred := inst.EntailPred(p.Query, cq.Tuple{})
	for i := 0; i < b.N; i++ {
		if _, err := inst.ProbUO(false, 0, pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE07SingletonFD measures one M^{uo,1} walk on a general-FD
// instance (the Theorem 7.5 FPRAS kernel).
func BenchmarkE07SingletonFD(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	w := workload.FDChainDatabase(rng, 300, 12)
	inst := w.Core()
	walker := sampler.NewUOWalker(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walker.WalkResult(rng, true)
	}
}

// BenchmarkE07SingletonFDLocal is BenchmarkE05UniformOpsLocal for one
// M^{uo,1} leaf on E07's general-FD instance.
func BenchmarkE07SingletonFDLocal(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	w := workload.FDChainDatabase(rng, 300, 12)
	benchLocalLeaf(b, w, true, rng)
}

// BenchmarkE08HColoring runs the ♯H-Coloring Turing reduction with the
// exact oracle on a fixed 4-node graph.
func BenchmarkE08HColoring(b *testing.B) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	oracle := func(p reduction.Problem) (float64, error) {
		inst := core.NewInstance(p.DB, p.Sigma)
		r, err := inst.RRFreq(false, 0, inst.EntailPred(p.Query, cq.Tuple{}))
		if err != nil {
			return 0, err
		}
		f, _ := r.Float64()
		return f, nil
	}
	for i := 0; i < b.N; i++ {
		if _, err := reduction.HOMCount(g, oracle); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE09Pos2DNF runs the ♯Pos2DNF reduction with the exact
// oracle on a fixed formula.
func BenchmarkE09Pos2DNF(b *testing.B) {
	f := reduction.Pos2DNF{Vars: 5, Clauses: [][2]int{{0, 1}, {1, 2}, {3, 4}}}
	oracle := func(p reduction.Problem) (float64, error) {
		inst := core.NewInstance(p.DB, p.Sigma)
		r, err := inst.RRFreq(true, 0, inst.EntailPred(p.Query, cq.Tuple{}))
		if err != nil {
			return 0, err
		}
		ff, _ := r.Float64()
		return ff, nil
	}
	for i := 0; i < b.N; i++ {
		if _, err := reduction.SATCount(f, oracle); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10VizingIS builds the Proposition 5.5 database (including
// the Misra–Gries edge colouring) and counts its repairs.
func BenchmarkE10VizingIS(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := graph.RandomConnectedBoundedDegreeGraph(rng, 30, 5, 60)
	for i := 0; i < b.N; i++ {
		vp := reduction.Vizing(g)
		inst := core.NewInstance(vp.DB, vp.Sigma)
		inst.CountCandidateRepairs(false)
	}
}

// BenchmarkE11FDTransfer builds the Lemma 5.6 lifting and verifies the
// +1 counting identity.
func BenchmarkE11FDTransfer(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomConnectedBoundedDegreeGraph(rng, 16, 4, 32)
	vp := reduction.Vizing(g)
	base := core.NewInstance(vp.DB, vp.Sigma)
	want := new(big.Int).Add(base.CountCandidateRepairs(false), big.NewInt(1))
	for i := 0; i < b.N; i++ {
		tp := reduction.FDTransfer(vp.DB, vp.Sigma)
		lifted := core.NewInstance(tp.DB, tp.Sigma)
		if lifted.CountCandidateRepairs(false).Cmp(want) != 0 {
			b.Fatal("counting identity violated")
		}
	}
}

// BenchmarkE12LowerBounds computes the exact rrfreq on a small random
// instance — the quantity the lower-bound sweep compares against its
// bound.
func BenchmarkE12LowerBounds(b *testing.B) {
	w := blockWorkload(b, 4, 3)
	inst := w.Core()
	pred := inst.EntailPred(w.Query, w.Tuple)
	for i := 0; i < b.N; i++ {
		if _, err := inst.RRFreq(false, 0, pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Scaling measures the per-draw cost of all three samplers
// across database sizes — the polynomial-time claims of Lemmas 5.2,
// 6.2 and 7.2.
func BenchmarkE13Scaling(b *testing.B) {
	for _, blocks := range []int{25, 100, 400} {
		w := blockWorkload(b, blocks, 4)
		inst := w.Core()
		b.Run("SampleRep/"+bsize(blocks), func(b *testing.B) {
			bs, err := sampler.NewBlockSampler(inst)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs.SampleRepair(rng, false)
			}
		})
		b.Run("SampleSeq/"+bsize(blocks), func(b *testing.B) {
			ss, err := sampler.NewSequenceSampler(inst, false)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ss.Sample(rng)
			}
		})
		b.Run("WalkUO/"+bsize(blocks), func(b *testing.B) {
			walker := sampler.NewUOWalker(inst)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walker.WalkResult(rng, false)
			}
		})
	}
}

// BenchmarkE14Crossover contrasts exact enumeration against one full
// FPRAS estimate at the crossover point observed in E14.
func BenchmarkE14Crossover(b *testing.B) {
	w := blockWorkload(b, 6, 3)
	inst := w.Core()
	pred := inst.EntailPred(w.Query, w.Tuple)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inst.RRFreq(false, 0, pred); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fpras", func(b *testing.B) {
		bs, err := sampler.NewBlockSampler(inst)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := engine.EstimateStoppingRule(context.Background(), func() engine.Sampler {
				return func(r *rand.Rand) bool { return pred(bs.SampleRepair(r, false)) }
			}, 0.1, 0.05, int64(i), 1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExperimentSuite runs the full experiment registry in Quick
// mode — the end-to-end evaluation cost.
func BenchmarkExperimentSuite(b *testing.B) {
	cfg := experiments.Config{Seed: 42, Quick: true}
	for i := 0; i < b.N; i++ {
		for _, e := range experiments.All() {
			tab, err := e.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !tab.OK {
				b.Fatalf("%s failed", e.ID)
			}
		}
	}
}

// --- micro-benchmarks -------------------------------------------------------

// BenchmarkMicroViolations measures conflict detection (V(D,Σ)).
func BenchmarkMicroViolations(b *testing.B) {
	w := blockWorkload(b, 200, 4)
	for i := 0; i < b.N; i++ {
		w.Sigma.Violations(w.DB)
	}
}

// BenchmarkMicroCQEval measures conjunctive query evaluation.
func BenchmarkMicroCQEval(b *testing.B) {
	w := blockWorkload(b, 200, 4)
	for i := 0; i < b.N; i++ {
		w.Query.Entails(w.DB)
	}
}

// BenchmarkMicroCountDP measures the Lemma C.1 counting DP.
func BenchmarkMicroCountDP(b *testing.B) {
	w := blockWorkload(b, 200, 4)
	inst := w.Core()
	bs, err := sampler.NewBlockSampler(inst)
	if err != nil {
		b.Fatal(err)
	}
	sizes := bs.Blocks()
	for i := 0; i < b.N; i++ {
		count.CRSPrimaryKeys(sizes, false)
	}
}

// BenchmarkMicroISCount measures exact independent-set counting on a
// bounded-degree graph.
func BenchmarkMicroISCount(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomConnectedBoundedDegreeGraph(rng, 40, 4, 80)
	for i := 0; i < b.N; i++ {
		g.CountIndependentSets()
	}
}

// BenchmarkMicroEdgeColoring measures Misra–Gries edge colouring.
func BenchmarkMicroEdgeColoring(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g := graph.RandomConnectedBoundedDegreeGraph(rng, 120, 6, 400)
	for i := 0; i < b.N; i++ {
		graph.ColorEdgesMisraGries(g)
	}
}

func bsize(blocks int) string {
	switch {
	case blocks < 50:
		return "small"
	case blocks < 200:
		return "medium"
	default:
		return "large"
	}
}

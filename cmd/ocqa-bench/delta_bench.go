package main

// The -delta mode: mutate-then-query benchmarks for the incremental
// estimation layer. The fixture is a primary-key instance of 4-fact
// conflict blocks plus two 64-fact "hot" blocks whose joint cluster is
// too large for the exact outcome enumeration — the regime where the
// approximate path samples per-stratum. Every benchmark op applies one
// fact mutation and re-answers a standing query:
//
//   - cold: rebuild the database and a fresh instance from scratch,
//     then query — what a server without the delta layer pays per write;
//   - delta: advance the same instance lineage through
//     ApplyInsert/ApplyDelete, then query — witnesses are maintained
//     incrementally and untouched cluster factors (or sampled-stratum
//     draw statistics) are served from the caches carried across the
//     mutation.
//
// Before any timing, the suite proves the paths agree: the delta
// lineage's exact probabilities and consistent answers must be
// big.Rat-identical to a cold instance at every step of a mixed
// mutation trace, and the warm stratified estimate must be
// deterministic for a fixed seed with every stored stratum reused
// (fresh draws exactly zero). The cold approximate cells run the paper's
// whole-instance stopping rule (harness.WholeInstanceStoppingRule): the
// facade, cold or warm, answers them by block factorization. Emits a
// BENCH_delta.json trajectory file;
// the acceptance floor is a 5x mutate-then-query speedup over cold at
// the committed 100k-fact size.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	ocqa "repro"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/oracle/harness"
	"repro/internal/rel"
)

type deltaBenchFile struct {
	Suite string `json:"suite"`
	benchStamp
	// Facts is the instance size; Blocks the number of 4-fact conflict
	// blocks (two further 64-fact hot blocks host the sampled stratum).
	Facts  int `json:"facts"`
	Blocks int `json:"blocks"`
	// Epsilon/Delta parameterise the approximate benchmarks.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// EqualitySteps is the number of mutation steps of the pre-timing
	// differential trace (each step compares the warm lineage against a
	// cold instance, bitwise, on both standing queries).
	EqualitySteps int `json:"equality_steps"`
	// Draws is the Monte-Carlo draws one cold approximate op performs;
	// ReusedDraws / FreshDraws are the warm stratified op's accounting
	// (full reuse means FreshDraws is 0).
	Draws       int64 `json:"draws"`
	ReusedDraws int64 `json:"reused_draws"`
	FreshDraws  int64 `json:"fresh_draws"`
	// StratifiedRoute is the plan route the warm approximate path
	// selected (must be delta-stratified); Deterministic reports that
	// two warm estimates with the same seed were bitwise identical.
	StratifiedRoute string `json:"stratified_route"`
	Deterministic   bool   `json:"deterministic"`
	// AutoWorkers is the worker count adaptive selection chose for the
	// cold approximate op on this host.
	AutoWorkers int `json:"auto_workers"`
	// PhaseSeconds is the per-phase span breakdown of one traced cold
	// approximate run.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	Results      []benchResult      `json:"results"`
	// SpeedupExact is ns(cold exact mutate+query) / ns(delta, mutation
	// away from the probed block) — the headline number. SpeedupProbe
	// is the same ratio when every mutation hits the probed block
	// itself (only that cluster's factor recomputes). SpeedupStratified
	// is ns(cold approximate, 1 worker) / ns(warm stratified reuse).
	SpeedupExact      float64 `json:"speedup_exact"`
	SpeedupProbe      float64 `json:"speedup_probe"`
	SpeedupStratified float64 `json:"speedup_stratified"`
}

// deltaBenchFacts builds the fixture fact list: two 64-fact hot blocks
// h0/h1 first, then 4-fact blocks k0,k1,... up to n facts total.
func deltaBenchFacts(n int) []rel.Fact {
	facts := make([]rel.Fact, 0, n)
	for _, h := range []string{"h0", "h1"} {
		for i := 0; i < 64 && len(facts) < n; i++ {
			facts = append(facts, rel.NewFact("R", h, fmt.Sprintf("v%d", i)))
		}
	}
	for b := 0; len(facts) < n; b++ {
		for i := 0; i < 4 && len(facts) < n; i++ {
			facts = append(facts, rel.NewFact("R", fmt.Sprintf("k%d", b), fmt.Sprintf("v%d", i)))
		}
	}
	return facts
}

func deltaBenchSigma() *fd.Set {
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	return fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
}

// deltaMutateQueryOp alternates inserting a fresh fact into the named
// block and deleting it again, re-answering q after every mutation —
// the standing-query-under-churn loop the delta benchmarks time. The
// returned closure performs one mutation+query.
func deltaMutateQueryOp(p *ocqa.Instance, block string, q *ocqa.Query) func() error {
	pos, have := 0, false
	i := 0
	cur := p
	return func() error {
		var err error
		if !have {
			i++
			cur, pos, err = cur.ApplyInsert(ocqa.Fact{Rel: "R", Args: []string{block, fmt.Sprintf("w%d", i)}})
		} else {
			cur, err = cur.ApplyDelete(pos)
		}
		if err != nil {
			return err
		}
		have = !have
		_, err = cur.ExactProbability(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{}, 0)
		return err
	}
}

// deltaEqualityTrace drives a mixed mutation trace through the lineage
// and, at every step, demands bitwise agreement with a cold instance on
// the same database for both exact standing queries (single-block probe
// and two-block cluster) — the in-bench correctness gate that runs
// before any timing. The hot-cluster query stays out: its outcome
// product exceeds the exact enumeration cap by construction (that is
// what makes it the stratified fixture), so it has no feasible exact
// answer at bench size.
func deltaEqualityTrace(p *ocqa.Instance, sigma *fd.Set, probeQ, pairQ *ocqa.Query, steps int) (*ocqa.Instance, error) {
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	blocks := []string{"k1", "k0", "h0", "k2", "h1", "k0"}
	pos := make(map[string]int)
	for s := 0; s < steps; s++ {
		block := blocks[s%len(blocks)]
		var err error
		if at, have := pos[block]; have {
			p, err = p.ApplyDelete(at)
			delete(pos, block)
			// Deleting shifts every index past the hole left by at.
			for b, other := range pos {
				if other > at {
					pos[b] = other - 1
				}
			}
		} else {
			var at int
			p, at, err = p.ApplyInsert(ocqa.Fact{Rel: "R", Args: []string{block, fmt.Sprintf("eq%d", s)}})
			pos[block] = at
		}
		if err != nil {
			return nil, fmt.Errorf("equality trace step %d (%s): %v", s, block, err)
		}
		cold := ocqa.NewInstance(p.DB(), sigma)
		for _, q := range []*ocqa.Query{probeQ, pairQ} {
			warm, err := p.ExactProbability(mode, q, ocqa.Tuple{}, 0)
			if err != nil {
				return nil, fmt.Errorf("equality trace step %d: warm %q: %v", s, q.String(), err)
			}
			want, err := cold.ExactProbability(mode, q, ocqa.Tuple{}, 0)
			if err != nil {
				return nil, fmt.Errorf("equality trace step %d: cold %q: %v", s, q.String(), err)
			}
			if warm.Cmp(want) != 0 {
				return nil, fmt.Errorf("delta ≢ cold at step %d, %q: warm %s, cold %s",
					s, q.String(), warm.RatString(), want.RatString())
			}
		}
	}
	return p, nil
}

func runDeltaBenchmarks(outPath string, facts int) error {
	const (
		eps   = 0.1
		delta = 0.05
	)
	if facts < 256 {
		facts = 256
	}
	fl := deltaBenchFacts(facts)
	sigma := deltaBenchSigma()
	base := rel.NewDatabase(fl...)
	probeQ, err := ocqa.ParseQuery("Ans() :- R('k0', x)")
	if err != nil {
		return err
	}
	hotQ, err := ocqa.ParseQuery("Ans() :- R('h0', x), R('h1', y)")
	if err != nil {
		return err
	}
	pairQ, err := ocqa.ParseQuery("Ans() :- R('k0', x), R('k1', y)")
	if err != nil {
		return err
	}
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	ctx := context.Background()
	aopts := ocqa.ApproxOptions{Epsilon: eps, Delta: delta, Seed: 11}

	// --- correctness gates, before any timing --------------------------
	const eqSteps = 18
	lineage, err := deltaEqualityTrace(ocqa.NewInstance(base, sigma), sigma, probeQ, pairQ, eqSteps)
	if err != nil {
		return err
	}
	// The lineage is warm now; its stratified estimate must route
	// delta-stratified, reuse every stored stratum on re-estimation,
	// and be deterministic in the seed.
	if _, err := lineage.Approximate(ctx, mode, hotQ, ocqa.Tuple{}, aopts); err != nil {
		return err
	}
	plan, err := lineage.PlanApproximate(mode, hotQ, ocqa.Tuple{}, true, aopts)
	if err != nil {
		return err
	}
	if plan.Route != ocqa.RouteDeltaStratified {
		return fmt.Errorf("warm plan routed %q, want %q", plan.Route, ocqa.RouteDeltaStratified)
	}
	est1, err := lineage.Approximate(ctx, mode, hotQ, ocqa.Tuple{}, aopts)
	if err != nil {
		return err
	}
	est2, err := lineage.Approximate(ctx, mode, hotQ, ocqa.Tuple{}, aopts)
	if err != nil {
		return err
	}
	deterministic := est1.Value == est2.Value
	if est1.Acct.ReusedDraws <= 0 {
		return fmt.Errorf("warm stratified estimate reused no draws (acct %+v)", est1.Acct)
	}
	if est1.Acct.Draws != 0 {
		return fmt.Errorf("warm stratified estimate performed %d fresh draws on an untouched stratum", est1.Acct.Draws)
	}

	// --- timed mutate-then-query loops ---------------------------------
	coldExact := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		extra := false
		for i := 0; i < b.N; i++ {
			cur := fl
			if extra = !extra; extra {
				cur = append(append(make([]rel.Fact, 0, len(fl)+1), fl...),
					rel.NewFact("R", "k1", "wcold"))
			}
			p := ocqa.NewInstance(rel.NewDatabase(cur...), sigma)
			if _, err := p.ExactProbability(mode, probeQ, ocqa.Tuple{}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	deltaFar := deltaMutateQueryOp(ocqa.NewInstance(base, sigma), "k1", probeQ)
	if err := deltaFar(); err != nil { // warm the lineage outside the timing
		return err
	}
	deltaExact := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := deltaFar(); err != nil {
				b.Fatal(err)
			}
		}
	})

	deltaNear := deltaMutateQueryOp(ocqa.NewInstance(base, sigma), "k0", probeQ)
	if err := deltaNear(); err != nil {
		return err
	}
	deltaProbe := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := deltaNear(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Cold approximate: a fresh instance estimates the hot-cluster query
	// with the whole-instance stopping rule per op, at 1 worker and under
	// adaptive selection — the worker ladder the inversion gate checks.
	coldApprox := func(workers int) (ocqa.Estimate, error) {
		o := aopts
		o.Workers = workers
		return harness.WholeInstanceStoppingRule(ctx, ocqa.NewInstance(base, sigma), mode, hotQ, ocqa.Tuple{}, o)
	}
	probeEst, err := coldApprox(1)
	if err != nil {
		return err
	}
	coldDraws := probeEst.Acct.Draws
	coldApproxRun := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := coldApprox(workers); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The worker-inversion gate compares the two rungs of the ladder.
	// One run per side lets host noise invert them, so each side is
	// measured over alternating repeated runs and reported by its median
	// run, as in the answers suite.
	var runs1, runsAuto []testing.BenchmarkResult
	for r := 0; r < inversionRuns; r++ {
		runs1 = append(runs1, testing.Benchmark(coldApproxRun(1)))
		runsAuto = append(runsAuto, testing.Benchmark(coldApproxRun(engine.AutoWorkers)))
	}
	coldApprox1, coldApproxAuto := medianRun(runs1), medianRun(runsAuto)
	auto := int(engine.LastAutoWorkers.Value())
	if auto < 1 {
		return fmt.Errorf("adaptive selection did not run (LastAutoWorkers = %d)", auto)
	}

	// Warm stratified: the lineage mutates away from the hot cluster and
	// re-estimates; the stored stratum statistics are reused wholesale.
	stratLineage := lineage
	stratPos, stratHave, stratI := 0, false, 0
	stratOp := func() error {
		var err error
		if !stratHave {
			stratI++
			stratLineage, stratPos, err = stratLineage.ApplyInsert(
				ocqa.Fact{Rel: "R", Args: []string{"k3", fmt.Sprintf("s%d", stratI)}})
		} else {
			stratLineage, err = stratLineage.ApplyDelete(stratPos)
		}
		if err != nil {
			return err
		}
		stratHave = !stratHave
		_, err = stratLineage.Approximate(ctx, mode, hotQ, ocqa.Tuple{}, aopts)
		return err
	}
	if err := stratOp(); err != nil {
		return err
	}
	deltaStrat := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := stratOp(); err != nil {
				b.Fatal(err)
			}
		}
	})

	out := deltaBenchFile{
		Suite:         "delta",
		benchStamp:    newBenchStamp(),
		Facts:         base.Len(),
		Blocks:        (base.Len() - 128 + 3) / 4,
		Epsilon:       eps,
		Delta:         delta,
		EqualitySteps: eqSteps,
		Draws:         coldDraws,
		ReusedDraws:   est1.Acct.ReusedDraws,
		FreshDraws:    est1.Acct.Draws,

		StratifiedRoute: plan.Route,
		Deterministic:   deterministic,
		AutoWorkers:     auto,
		PhaseSeconds: func() map[string]float64 {
			return spanSeconds(func(ctx context.Context) {
				o := aopts
				o.Workers = engine.AutoWorkers
				_, _ = harness.WholeInstanceStoppingRule(ctx, ocqa.NewInstance(base, sigma), mode, hotQ, ocqa.Tuple{}, o)
			})
		}(),
		Results: []benchResult{
			toResult("DeltaColdExactMutateQuery", coldExact),
			toResult("DeltaExactMutateQuery", deltaExact),
			toResult("DeltaExactProbeBlockMutateQuery", deltaProbe),
			toWorkerResult("DeltaColdApprox1Worker", "delta_cold_approx", 1, coldApprox1),
			toWorkerResult("DeltaColdApproxAutoWorkers", "delta_cold_approx", auto, coldApproxAuto),
			toResult("DeltaStratifiedMutateQuery", deltaStrat),
		},
	}
	if d := out.Results[1].NsPerOp; d > 0 {
		out.SpeedupExact = out.Results[0].NsPerOp / d
	}
	if d := out.Results[2].NsPerOp; d > 0 {
		out.SpeedupProbe = out.Results[0].NsPerOp / d
	}
	if d := out.Results[5].NsPerOp; d > 0 {
		out.SpeedupStratified = out.Results[3].NsPerOp / d
	}
	if v := workerInversions(out.Results); len(v) > 0 {
		return fmt.Errorf("worker inversion in delta suite: %s", v[0])
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range out.Results {
		fmt.Printf("%-34s %14.0f ns/op %12d B/op %8d allocs/op  (n=%d)\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Iterations)
	}
	fmt.Printf("facts: %d (%d small blocks + 2 hot blocks of 64)\n", out.Facts, out.Blocks)
	fmt.Printf("equality trace: delta ≡ cold across %d mutation steps (big.Rat bitwise, both queries)\n", eqSteps)
	fmt.Printf("warm stratified: route %s, %d draws reused, %d fresh, deterministic=%v\n",
		out.StratifiedRoute, out.ReusedDraws, out.FreshDraws, deterministic)
	fmt.Printf("mutate-then-query speedup vs cold: %.1fx exact (far block), %.1fx exact (probe block), %.1fx stratified\n",
		out.SpeedupExact, out.SpeedupProbe, out.SpeedupStratified)
	fmt.Printf("host: %d CPU(s), GOMAXPROCS=%d\n", out.NumCPU, out.GOMAXPROCS)
	fmt.Printf("wrote %s\n", outPath)

	// Acceptance gates. The 5x floor is the committed-size contract
	// (100k facts); smoke runs at reduced sizes keep a sanity floor,
	// since the cold rebuild shrinks with the instance.
	floor := 1.5
	if facts >= 100_000 {
		floor = 5
	}
	if out.SpeedupExact < floor {
		return fmt.Errorf("mutate-then-query speedup %.2fx below acceptance floor %.1fx at %d facts",
			out.SpeedupExact, floor, facts)
	}
	if !deterministic {
		return fmt.Errorf("warm stratified estimates not deterministic for a fixed seed")
	}
	return nil
}

package main

// The -answers mode: shared-draw answers-estimation benchmarks. The
// shared pass (ApproximateAnswers) evaluates every candidate answer
// tuple of Q(D) against the SAME repair draws, so K tuples cost one
// Monte-Carlo pass; the baseline is the per-tuple path it replaced —
// one independent stopping-rule estimation per tuple via Approximate.
// Emits a BENCH_answers.json trajectory file recording the draw-count
// reduction (the headline number: ≈ K for K same-probability tuples)
// and a bitwise-determinism check for fixed (seed, workers).
//
// The fixture is a symmetric multi-answer query: K values cyclically
// shared across 2-fact key blocks, so every tuple has the same
// survival probability and the per-tuple stopping points coincide —
// the regime where the shared pass saves a full factor K of draws.
// Both sides sample M^us, whose draws are whole repairing sequences:
// M^ur under primary keys is answered by block factorization, with no
// draws to compare.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	ocqa "repro"
	"repro/internal/engine"
)

type answersBenchFile struct {
	Suite string `json:"suite"`
	benchStamp
	// Facts/Tuples describe the bench instance: Tuples is K, the
	// number of candidate answer tuples sharing the pass.
	Facts   int     `json:"facts"`
	Tuples  int     `json:"tuples"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// BaselineDraws is the total Monte-Carlo draws of K independent
	// per-tuple estimations; SharedDraws is the draws of the one
	// shared pass (discarded parallel tails included). DrawReduction
	// is their ratio — the acceptance floor is K/2.
	BaselineDraws int64   `json:"baseline_draws"`
	SharedDraws   int64   `json:"shared_draws"`
	DrawReduction float64 `json:"draw_reduction"`
	// AutoWorkers is the worker count adaptive selection chose for this
	// fixture on this host (ResolveWorkers with a zero request).
	AutoWorkers int `json:"auto_workers"`
	// PerWorkerDrawsAuto is the shared pass's per-worker draw split
	// under adaptive workers, from the engine's own accounting.
	PerWorkerDrawsAuto []int64 `json:"per_worker_draws_auto"`
	// Deterministic reports that two runs with identical seed and
	// worker count produced bitwise-identical estimates, serially and
	// under adaptive workers.
	Deterministic bool `json:"deterministic"`
	// PhaseSeconds is the per-phase span breakdown (compile, shared
	// sampling pass) of one traced auto-worker verification run.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	Results      []benchResult      `json:"results"`
	// SpeedupShared1W / SpeedupSharedAuto are ns(per-tuple baseline) /
	// ns(shared pass) at 1 worker and under adaptive workers.
	SpeedupShared1W   float64 `json:"speedup_shared_1w"`
	SpeedupSharedAuto float64 `json:"speedup_shared_auto"`
}

// answersBenchInstance builds the symmetric multi-answer fixture:
// every block holds two facts whose values are adjacent in the cyclic
// value pool, so all K values are candidate answers of
// Ans(x) :- R(k, x) with identical survival probability.
func answersBenchInstance(values, blocksPerValue int) (*ocqa.Instance, error) {
	var fl string
	for j := 0; j < values; j++ {
		for i := 0; i < blocksPerValue; i++ {
			fl += fmt.Sprintf("R(b%d_%d,v%02d)\n", j, i, j)
			fl += fmt.Sprintf("R(b%d_%d,v%02d)\n", j, i, (j+1)%values)
		}
	}
	return ocqa.NewInstanceFromText(fl, "R: A1 -> A2")
}

// perTupleBaseline is the pre-shared-pass implementation of
// ApproximateAnswers, kept verbatim as the benchmark baseline: one
// full, independent stopping-rule estimation per candidate tuple.
func perTupleBaseline(ctx context.Context, inst *ocqa.Instance, mode ocqa.Mode, q *ocqa.Query, opts ocqa.ApproxOptions) ([]ocqa.ApproxAnswer, error) {
	var out []ocqa.ApproxAnswer
	for _, c := range q.Answers(inst.DB()) {
		e, err := inst.Approximate(ctx, mode, q, c, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, ocqa.ApproxAnswer{Tuple: c, Estimate: e})
	}
	return out, nil
}

// inversionRuns is the number of alternating runs per side behind the
// answers and delta suites' worker-inversion gates.
const inversionRuns = 5

// medianRun returns the run with the median ns/op.
func medianRun(runs []testing.BenchmarkResult) testing.BenchmarkResult {
	sorted := append([]testing.BenchmarkResult(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NsPerOp() < sorted[j].NsPerOp() })
	return sorted[len(sorted)/2]
}

// sameEstimates reports bitwise equality of two answer vectors.
func sameEstimates(a, b []ocqa.ApproxAnswer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Tuple.Equal(b[i].Tuple) ||
			a[i].Estimate.Value != b[i].Estimate.Value ||
			a[i].Estimate.Samples != b[i].Estimate.Samples {
			return false
		}
	}
	return true
}

func runAnswersBenchmarks(outPath string) error {
	const (
		values         = 12
		blocksPerValue = 3
		eps            = 0.1
		delta          = 0.05
	)
	inst, err := answersBenchInstance(values, blocksPerValue)
	if err != nil {
		return err
	}
	q, err := ocqa.ParseQuery("Ans(x) :- R(k, x)")
	if err != nil {
		return err
	}
	mode := ocqa.Mode{Gen: ocqa.UniformSequences}
	ctx := context.Background()
	opts := ocqa.ApproxOptions{Epsilon: eps, Delta: delta, Seed: 7, Workers: 1}
	tuples := len(q.Answers(inst.DB()))

	// Draw accounting via the engine's process-wide counter, so the
	// comparison includes every draw actually performed (parallel
	// discarded tails included).
	mark := engine.SamplesDrawn.Value()
	base, err := perTupleBaseline(ctx, inst, mode, q, opts)
	if err != nil {
		return err
	}
	baselineDraws := engine.SamplesDrawn.Value() - mark

	mark = engine.SamplesDrawn.Value()
	shared, err := inst.ApproximateAnswers(ctx, mode, q, opts)
	if err != nil {
		return err
	}
	sharedDraws := engine.SamplesDrawn.Value() - mark

	// Cross-check before timing: baseline and shared estimates target
	// the same probabilities under the same (ε, δ), so they must agree
	// to combined estimator accuracy — otherwise the draw reduction is
	// measuring a different computation.
	if len(base) != len(shared) {
		return fmt.Errorf("baseline returned %d tuples, shared pass %d", len(base), len(shared))
	}
	for i := range base {
		if math.Abs(base[i].Estimate.Value-shared[i].Estimate.Value) > 0.1 {
			return fmt.Errorf("shared pass disagrees with baseline at %v: %.4f vs %.4f",
				base[i].Tuple, shared[i].Estimate.Value, base[i].Estimate.Value)
		}
	}

	// Bitwise determinism for fixed (seed, workers), serial and under
	// adaptive worker selection (Workers: 0 — the default every entry
	// point now uses; the engine resolves the count from the conflict
	// structure and draw budget).
	deterministic := true
	var splitAuto []int64
	for _, workers := range []int{1, engine.AutoWorkers} {
		o := opts
		o.Workers = workers
		r1, err := inst.ApproximateAnswers(ctx, mode, q, o)
		if err != nil {
			return err
		}
		if workers == engine.AutoWorkers && len(r1) > 0 {
			// Every estimate of a shared pass carries the run's record.
			acct := r1[0].Estimate.Acct
			if acct.PerWorker != nil {
				splitAuto = acct.PerWorker
			} else {
				splitAuto = []int64{acct.Draws}
			}
		}
		r2, err := inst.ApproximateAnswers(ctx, mode, q, o)
		if err != nil {
			return err
		}
		if !sameEstimates(r1, r2) {
			deterministic = false
		}
	}
	auto := int(engine.LastAutoWorkers.Value())
	if auto < 1 {
		return fmt.Errorf("adaptive selection did not run (LastAutoWorkers = %d)", auto)
	}

	sharedRun := func(workers int) func(*testing.B) {
		o := opts
		o.Workers = workers
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inst.ApproximateAnswers(ctx, mode, q, o); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	baseBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := perTupleBaseline(ctx, inst, mode, q, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The worker-inversion gate compares the two worker counts of the
	// shared pass. One run per side lets host noise invert them, so each
	// side is measured over alternating repeated runs and reported by its
	// median run.
	var runs1, runsAuto []testing.BenchmarkResult
	for r := 0; r < inversionRuns; r++ {
		runs1 = append(runs1, testing.Benchmark(sharedRun(1)))
		runsAuto = append(runsAuto, testing.Benchmark(sharedRun(engine.AutoWorkers)))
	}
	shared1, sharedAuto := medianRun(runs1), medianRun(runsAuto)

	out := answersBenchFile{
		Suite:              "answers",
		benchStamp:         newBenchStamp(),
		Facts:              inst.DB().Len(),
		Tuples:             tuples,
		Epsilon:            eps,
		Delta:              delta,
		BaselineDraws:      baselineDraws,
		SharedDraws:        sharedDraws,
		AutoWorkers:        auto,
		PerWorkerDrawsAuto: splitAuto,
		Deterministic:      deterministic,
		// One extra traced run, outside the timed loops, so tracing never
		// touches the benchmark iterations themselves.
		PhaseSeconds: spanSeconds(func(ctx context.Context) {
			o := opts
			o.Workers = engine.AutoWorkers
			_, _ = inst.ApproximateAnswers(ctx, mode, q, o)
		}),
		Results: []benchResult{
			toResult("AnswersPerTupleBaseline", baseBench),
			toWorkerResult("AnswersShared1Worker", "answers_shared", 1, shared1),
			toWorkerResult("AnswersSharedAutoWorkers", "answers_shared", auto, sharedAuto),
		},
	}
	if sharedDraws > 0 {
		out.DrawReduction = float64(baselineDraws) / float64(sharedDraws)
	}
	if s1 := out.Results[1].NsPerOp; s1 > 0 {
		out.SpeedupShared1W = out.Results[0].NsPerOp / s1
	}
	if sa := out.Results[2].NsPerOp; sa > 0 {
		out.SpeedupSharedAuto = out.Results[0].NsPerOp / sa
	}
	if v := workerInversions(out.Results); len(v) > 0 {
		return fmt.Errorf("worker inversion in answers suite: %s", v[0])
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range out.Results {
		fmt.Printf("%-28s %14.0f ns/op %12d B/op %8d allocs/op  (n=%d)\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Iterations)
	}
	fmt.Printf("tuples sharing the pass: %d\n", tuples)
	fmt.Printf("draws: per-tuple baseline %d, shared pass %d — %.2fx reduction\n",
		baselineDraws, sharedDraws, out.DrawReduction)
	fmt.Printf("deterministic for fixed (seed, workers): %v\n", deterministic)
	fmt.Printf("shared pass speedup: %.2fx (1 worker), %.2fx (auto, %d worker(s))\n",
		out.SpeedupShared1W, out.SpeedupSharedAuto, auto)
	fmt.Printf("host: %d CPU(s), GOMAXPROCS=%d", out.NumCPU, out.GOMAXPROCS)
	if auto == 1 {
		fmt.Printf(" — adaptive selection stayed serial on this host")
	}
	fmt.Println()
	fmt.Printf("wrote %s\n", outPath)

	// Acceptance gates: the shared pass must save at least half the
	// per-tuple factor, deterministically — enforced here so the CI
	// smoke run fails when either regresses.
	if out.DrawReduction < float64(tuples)/2 {
		return fmt.Errorf("draw reduction %.2fx below acceptance floor %.1fx (tuples/2)",
			out.DrawReduction, float64(tuples)/2)
	}
	if !deterministic {
		return fmt.Errorf("estimates not deterministic for fixed (seed, workers)")
	}
	return nil
}

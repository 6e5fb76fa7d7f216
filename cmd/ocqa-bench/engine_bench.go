package main

// The -engine mode: marginal-estimation benchmarks for the shared
// estimation engine, comparing the pre-engine serial implementation of
// ApproximateFactMarginals (draw a Subset, materialise its index
// slice, increment per-fact counters — O(‖D‖) and two allocations per
// draw) against the engine's amortised counting drawer (O(#undetermined
// blocks) per draw, allocation-free, facts outside every conflict
// hoisted out of the loop), serially and under adaptive worker
// selection (Workers: 0 — the engine picks the count from the conflict
// structure and draw budget, never exceeding GOMAXPROCS). Emits a
// BENCH_engine.json trajectory file for cross-PR tracking.
//
// The fixture is a mostly-consistent database — the realistic serving
// shape: most facts are in no conflict, a minority sit in key blocks —
// which is exactly where hoisting the always-surviving facts out of
// the per-draw loop pays. NumCPU and GOMAXPROCS are recorded because
// the adaptive worker count depends on them: on a single-core host
// auto resolves to 1 and the headline number is the amortised drawer
// alone. Because auto is bounded by the core count, the committed file
// never contains a configuration where more workers is slower than
// fewer — workerInversions enforces that before the file is written.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	ocqa "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sampler"
)

type engineBenchFile struct {
	Suite string `json:"suite"`
	benchStamp
	// Facts/Blocks/BlockSize describe the bench instance; Draws is the
	// per-run sample budget.
	Facts     int `json:"facts"`
	Blocks    int `json:"blocks"`
	BlockSize int `json:"block_size"`
	Draws     int `json:"draws"`
	// AutoWorkers is the worker count adaptive selection chose for this
	// fixture on this host (ResolveWorkers with a zero request).
	AutoWorkers int `json:"auto_workers"`
	// PerWorkerDraws1W/Auto are the engine accounting's per-worker draw
	// splits of the verification runs — evidence the auto-worker number
	// actually fanned out when auto picked more than one worker (a
	// [20000] split would mean the engine collapsed to one goroutine and
	// any speedup is noise).
	PerWorkerDraws1W   []int64 `json:"per_worker_draws_1w"`
	PerWorkerDrawsAuto []int64 `json:"per_worker_draws_auto"`
	// PhaseSeconds is the per-phase span breakdown (compile, sampling)
	// of one traced auto-worker verification run — where one marginals
	// pass actually spends its wall time.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	Results      []benchResult      `json:"results"`
	// SerialSpeedup is ns(serial baseline) / ns(engine, 1 worker): the
	// gain of the amortised counting drawer alone.
	SerialSpeedup float64 `json:"serial_speedup"`
	// AutoSpeedup is ns(serial baseline) / ns(engine, auto workers):
	// the headline number under adaptive parallelism.
	AutoSpeedup float64 `json:"auto_speedup"`
}

// engineBenchInstance builds the mostly-consistent fixture: clean
// singleton-key facts plus `blocks` conflicting blocks of `blockSize`
// facts under one primary key.
func engineBenchInstance(clean, blocks, blockSize int) (*ocqa.Instance, error) {
	var facts []string
	for i := 0; i < clean; i++ {
		facts = append(facts, fmt.Sprintf("R(c%d,v)", i))
	}
	for b := 0; b < blocks; b++ {
		for i := 0; i < blockSize; i++ {
			facts = append(facts, fmt.Sprintf("R(k%d,v%d)", b, i))
		}
	}
	var fl string
	for _, f := range facts {
		fl += f + "\n"
	}
	return ocqa.NewInstanceFromText(fl, "R: A1 -> A2")
}

// baselineMarginals is the pre-engine hot loop of
// ApproximateFactMarginals, kept verbatim as the benchmark baseline:
// one goroutine, one Subset materialised and one index slice allocated
// per draw, every fact's counter touched on every draw.
func baselineMarginals(bs *sampler.BlockSampler, nFacts, draws int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, nFacts)
	for i := 0; i < draws; i++ {
		s := bs.SampleRepair(rng, false)
		for _, idx := range s.Indices() {
			counts[idx]++
		}
	}
	out := make([]float64, nFacts)
	for i, c := range counts {
		out[i] = float64(c) / float64(draws)
	}
	return out
}

func runEngineBenchmarks(outPath string) error {
	const (
		clean     = 6000
		blocks    = 250
		blockSize = 4
		draws     = 20_000
	)
	inst, err := engineBenchInstance(clean, blocks, blockSize)
	if err != nil {
		return err
	}
	p := inst.Prepare()
	bs, err := sampler.NewBlockSampler(core.NewInstance(inst.DB(), inst.Sigma()))
	if err != nil {
		return err
	}
	nFacts := inst.DB().Len()
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	ctx := context.Background()

	engineRunAcct := func(workers int) ([]float64, ocqa.Accounting, error) {
		return p.ApproximateFactMarginalsAcct(ctx, mode, ocqa.ApproxOptions{
			Seed: 1, MaxSamples: draws, Workers: workers,
		})
	}
	engineRun := func(workers int) ([]float64, error) {
		vals, _, err := engineRunAcct(workers)
		return vals, err
	}

	// Cross-check before timing: baseline and engine must agree to
	// Monte-Carlo accuracy on every fact, or the speedup is measuring a
	// different computation. The accounting of these runs also records
	// the per-worker draw splits for the trajectory file. Workers: 0 is
	// the adaptive path — the same default every CLI and server entry
	// point now uses.
	base := baselineMarginals(bs, nFacts, draws, 1)
	splits := map[int][]int64{}
	for _, workers := range []int{1, engine.AutoWorkers} {
		vals, acct, err := engineRunAcct(workers)
		if err != nil {
			return err
		}
		// The engine fills PerWorker only for parallel passes; a serial
		// run's split is trivially its total.
		if acct.PerWorker != nil {
			splits[workers] = acct.PerWorker
		} else {
			splits[workers] = []int64{acct.Draws}
		}
		for i := range vals {
			if math.Abs(vals[i]-base[i]) > 0.03 {
				return fmt.Errorf("engine(%dw) disagrees with baseline at fact %d: %.4f vs %.4f",
					workers, i, vals[i], base[i])
			}
		}
	}
	auto := int(engine.LastAutoWorkers.Value())
	if auto < 1 {
		return fmt.Errorf("adaptive selection did not run (LastAutoWorkers = %d)", auto)
	}

	serial := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baselineMarginals(bs, nFacts, draws, 1)
		}
	})
	engine1 := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engineRun(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	engineAuto := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engineRun(engine.AutoWorkers); err != nil {
				b.Fatal(err)
			}
		}
	})

	out := engineBenchFile{
		Suite:              "engine",
		benchStamp:         newBenchStamp(),
		Facts:              nFacts,
		Blocks:             blocks,
		BlockSize:          blockSize,
		Draws:              draws,
		AutoWorkers:        auto,
		PerWorkerDraws1W:   splits[1],
		PerWorkerDrawsAuto: splits[engine.AutoWorkers],
		// One extra traced run, outside the timed loops: tracing is off
		// during the benchmark iterations, so the headline numbers stay
		// comparable with earlier trajectory files.
		PhaseSeconds: spanSeconds(func(ctx context.Context) {
			_, _, _ = p.ApproximateFactMarginalsAcct(ctx, mode, ocqa.ApproxOptions{
				Seed: 1, MaxSamples: draws, Workers: engine.AutoWorkers,
			})
		}),
		Results: []benchResult{
			toResult("MarginalsSerialBaseline", serial),
			toWorkerResult("MarginalsEngine1Worker", "marginals_engine", 1, engine1),
			toWorkerResult("MarginalsEngineAutoWorkers", "marginals_engine", auto, engineAuto),
		},
	}
	if e1 := out.Results[1].NsPerOp; e1 > 0 {
		out.SerialSpeedup = out.Results[0].NsPerOp / e1
	}
	if ea := out.Results[2].NsPerOp; ea > 0 {
		out.AutoSpeedup = out.Results[0].NsPerOp / ea
	}
	if v := workerInversions(out.Results); len(v) > 0 {
		return fmt.Errorf("worker inversion in engine suite: %s", v[0])
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
	fmt.Printf("engine (1 worker)       speedup over pre-engine serial baseline: %.2fx\n", out.SerialSpeedup)
	fmt.Printf("engine (auto, %d worker) speedup over pre-engine serial baseline: %.2fx\n", auto, out.AutoSpeedup)
	fmt.Printf("host: %d CPU(s), GOMAXPROCS=%d", out.NumCPU, out.GOMAXPROCS)
	if auto == 1 {
		fmt.Printf(" — adaptive selection stayed serial on this host; the gain above is the amortised drawer")
	}
	fmt.Println()
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

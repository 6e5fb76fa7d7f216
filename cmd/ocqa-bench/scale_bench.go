package main

// The -scale mode: the million-fact suite for the interned columnar
// data plane. Where -store and -engine measure micro-costs on small
// fixtures, -scale builds one large mostly-consistent instance
// (singleton-key clean facts plus 2-fact conflict blocks under a
// primary key — the shape the block sampler handles without the O(n²)
// sequence DP) and records the numbers that decide whether a single
// node can serve it: Monte-Carlo draws/sec for fact marginals at 1
// worker and under adaptive selection, a capped stopping-rule query
// estimation (which must plan delta-exact and draw nothing: the
// facade factorizes M^ur over the one key block the query touches),
// resident memory and snapshot bytes per fact, and the
// snapshot encode / cold-boot / warm-boot (mmap) timings of the
// columnar v2 codec. Emits a BENCH_scale.json trajectory file; -check
// compares draws/sec and bytes/fact against it.
//
// The fact count is a flag (-scale-facts, default one million) so CI
// can run a ~100k smoke pass; the committed BENCH_scale.json comes
// from a real 1M-fact run. The instance is built directly from interned
// columns — no text parse — so build_seconds measures the data plane,
// not fmt.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	ocqa "repro"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/rel"
	"repro/internal/store"
)

type scaleBenchFile struct {
	Suite string `json:"suite"`
	benchStamp
	// Facts = CleanFacts + Blocks × BlockSize. One in ten facts sits in
	// a conflict block — the mostly-consistent serving shape.
	Facts      int `json:"facts"`
	CleanFacts int `json:"clean_facts"`
	Blocks     int `json:"blocks"`
	BlockSize  int `json:"block_size"`
	// Draws is the marginals sample budget per benchmarked pass.
	Draws int64 `json:"draws"`
	// AutoWorkers is the worker count adaptive selection chose for this
	// instance on this host.
	AutoWorkers int `json:"auto_workers"`
	// BuildSeconds: interned columnar database construction (sort,
	// dedup, dictionary) for all facts. PrepareSeconds:
	// conflict graph + sampler preparation on top of it.
	BuildSeconds   float64 `json:"build_seconds"`
	PrepareSeconds float64 `json:"prepare_seconds"`
	// SnapshotBytes is the size of the columnar v2 snapshot;
	// BytesPerFactDisk = SnapshotBytes / Facts — the on-disk density
	// the -check gate tracks.
	SnapshotBytes    int64   `json:"snapshot_bytes"`
	BytesPerFactDisk float64 `json:"bytes_per_fact_disk"`
	// HeapBytes is the live-heap growth attributable to the instance
	// (runtime.MemStats.HeapAlloc delta across build + prepare, after
	// GC); BytesPerFactMem = HeapBytes / Facts. SysBytes is the
	// process's total OS-reserved memory after the build — the
	// runtime.MemStats proxy for resident set size.
	HeapBytes       uint64  `json:"heap_bytes"`
	SysBytes        uint64  `json:"sys_bytes"`
	BytesPerFactMem float64 `json:"bytes_per_fact_mem"`
	// DrawsPerSec1W/Auto are the headline marginals sampling rates,
	// derived from the benchmark results below.
	DrawsPerSec1W   float64 `json:"draws_per_sec_1w"`
	DrawsPerSecAuto float64 `json:"draws_per_sec_auto"`
	// StoppingRuleDraws/Seconds record one capped Dagum–Karp stopping-
	// rule query estimation on the full instance (adaptive workers),
	// planning included; it must route delta-exact with zero draws.
	StoppingRuleDraws   int64   `json:"stopping_rule_draws"`
	StoppingRuleSeconds float64 `json:"stopping_rule_seconds"`
	// PhaseSeconds is the span breakdown of one traced auto-worker
	// marginals pass.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	Results      []benchResult      `json:"results"`
}

// benchBest runs a benchmark three times and keeps the fastest result.
// At a million facts each operation takes hundreds of milliseconds, so
// testing.Benchmark's one-second budget fits only a handful of
// iterations and a single run's mean carries scheduler and page-cache
// noise well past the -check tolerance; min-of-k is the robust
// statistic for regression gating (a benchmark can only look slow
// because of noise, never fast).
func benchBest(f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 1; i < 3; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// scaleInstance builds the fixture straight from interned parts: 90%
// clean singleton-key facts, 10% in 2-fact key blocks.
func scaleInstance(facts int) (*ocqa.Instance, int, int, int, error) {
	const blockSize = 2
	blocks := facts / (10 * blockSize)
	clean := facts - blocks*blockSize
	fs := make([]rel.Fact, 0, facts)
	for i := 0; i < clean; i++ {
		fs = append(fs, rel.NewFact("R", fmt.Sprintf("c%08d", i), "v"))
	}
	for b := 0; b < blocks; b++ {
		for j := 0; j < blockSize; j++ {
			fs = append(fs, rel.NewFact("R", fmt.Sprintf("k%08d", b), fmt.Sprintf("v%d", j)))
		}
	}
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	sigma, err := fd.NewSet(sch, fd.New("R", []int{0}, []int{1}))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return ocqa.NewInstance(rel.NewDatabase(fs...), sigma), clean, blocks, blockSize, nil
}

// heapAlloc returns the live heap after a full GC.
func heapAlloc() (heap, sys uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.Sys
}

func runScaleBenchmarks(outPath string, facts int) error {
	if facts < 1000 {
		return fmt.Errorf("scale suite needs at least 1000 facts, got %d", facts)
	}
	const draws = 2000

	heap0, _ := heapAlloc()
	buildStart := time.Now()
	inst, clean, blocks, blockSize, err := scaleInstance(facts)
	if err != nil {
		return err
	}
	buildSeconds := time.Since(buildStart).Seconds()
	prepStart := time.Now()
	p := inst.Prepare()
	prepareSeconds := time.Since(prepStart).Seconds()
	heap1, sys1 := heapAlloc()
	heapBytes := heap1 - heap0
	if heap1 < heap0 {
		heapBytes = 0
	}

	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	ctx := context.Background()
	marginalsRun := func(workers int) (ocqa.Accounting, error) {
		_, acct, err := p.ApproximateFactMarginalsAcct(ctx, mode, ocqa.ApproxOptions{
			Seed: 1, MaxSamples: draws, Workers: workers,
		})
		return acct, err
	}

	// Verification pass (also resolves the adaptive worker count):
	// marginals at 1 worker and auto must agree on a conflicting
	// block's facts and on a clean fact (always 1). A 2-fact key block
	// has three repairs — either fact alone, or the empty set, since an
	// operation may delete both sides of a conflict — so each fact
	// survives with probability 1/3 under M^ur.
	vals1, _, err := p.ApproximateFactMarginalsAcct(ctx, mode, ocqa.ApproxOptions{
		Seed: 1, MaxSamples: draws, Workers: 1,
	})
	if err != nil {
		return err
	}
	valsA, acctA, err := p.ApproximateFactMarginalsAcct(ctx, mode, ocqa.ApproxOptions{
		Seed: 1, MaxSamples: draws, Workers: engine.AutoWorkers,
	})
	if err != nil {
		return err
	}
	auto := int(engine.LastAutoWorkers.Value())
	if auto < 1 {
		return fmt.Errorf("adaptive selection did not run (LastAutoWorkers = %d)", auto)
	}
	if acctA.Draws != draws {
		return fmt.Errorf("marginals drew %d, want the exact budget %d", acctA.Draws, draws)
	}
	db := inst.DB()
	for i := 0; i < db.Len(); i++ {
		want, tol := 1.0, 0.0
		if f := db.Fact(i); f.Arg(0)[0] == 'k' {
			want, tol = 1.0/3, 0.05
		}
		for _, got := range []float64{vals1[i], valsA[i]} {
			if got < want-tol || got > want+tol {
				return fmt.Errorf("marginal of fact %d = %.3f, want %.2f±%.2f", i, got, want, tol)
			}
		}
	}

	// One capped stopping-rule query over the same instance: it holds in
	// a repair iff block k0's first fact survives, so the probability is
	// 1/3. The facade factorizes M^ur over that one block, so the plan
	// must be delta-exact and the run must draw nothing — the gate that
	// goes red if cold queries ever fall back to whole-instance draws.
	q, err := ocqa.ParseQuery("Ans() :- R('k00000000', 'v0')")
	if err != nil {
		return err
	}
	srOpts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 1, MaxSamples: 5000, Workers: engine.AutoWorkers}
	srStart := time.Now()
	plan, err := p.PlanApproximate(mode, q, ocqa.Tuple{}, true, srOpts)
	if err != nil {
		return err
	}
	est, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, srOpts)
	if err != nil {
		return err
	}
	srSeconds := time.Since(srStart).Seconds()
	if plan.Route != ocqa.RouteDeltaExact || est.Acct.Draws != 0 {
		return fmt.Errorf("stopping-rule query routed %q with %d draws, want %q with none",
			plan.Route, est.Acct.Draws, ocqa.RouteDeltaExact)
	}
	if est.Value < 0.2 || est.Value > 0.47 {
		return fmt.Errorf("stopping-rule estimate %.3f for a probability-1/3 query", est.Value)
	}

	// Snapshot round trip: encode once for the size numbers and the
	// boot fixtures, cross-check both boot paths, then time each leg.
	var snap bytes.Buffer
	if err := store.EncodeInstance(&snap, db, inst.Sigma()); err != nil {
		return err
	}
	snapBytes := int64(snap.Len())
	dir, err := os.MkdirTemp("", "ocqa-bench-scale")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "scale.snap")
	if err := os.WriteFile(snapPath, snap.Bytes(), 0o644); err != nil {
		return err
	}
	cold, coldSigma, err := store.DecodeInstance(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return err
	}
	warm, warmSigma, closeWarm, err := store.MapInstance(snapPath)
	if err != nil {
		return err
	}
	if !cold.Equal(db) || !warm.Equal(db) ||
		coldSigma.String() != inst.Sigma().String() || warmSigma.String() != inst.Sigma().String() {
		return fmt.Errorf("snapshot boot paths diverged from the live instance")
	}
	if err := closeWarm(); err != nil {
		return err
	}

	marg1 := benchBest(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := marginalsRun(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	margAuto := benchBest(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := marginalsRun(engine.AutoWorkers); err != nil {
				b.Fatal(err)
			}
		}
	})
	encode := benchBest(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			buf.Grow(int(snapBytes))
			if err := store.EncodeInstance(&buf, db, inst.Sigma()); err != nil {
				b.Fatal(err)
			}
		}
	})
	coldBoot := benchBest(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := store.DecodeInstance(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	warmBoot := benchBest(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, closeFn, err := store.MapInstance(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			if err := closeFn(); err != nil {
				b.Fatal(err)
			}
		}
	})

	out := scaleBenchFile{
		Suite:               "scale",
		benchStamp:          newBenchStamp(),
		Facts:               db.Len(),
		CleanFacts:          clean,
		Blocks:              blocks,
		BlockSize:           blockSize,
		Draws:               draws,
		AutoWorkers:         auto,
		BuildSeconds:        buildSeconds,
		PrepareSeconds:      prepareSeconds,
		SnapshotBytes:       snapBytes,
		BytesPerFactDisk:    float64(snapBytes) / float64(db.Len()),
		HeapBytes:           heapBytes,
		SysBytes:            sys1,
		BytesPerFactMem:     float64(heapBytes) / float64(db.Len()),
		StoppingRuleDraws:   int64(est.Samples),
		StoppingRuleSeconds: srSeconds,
		PhaseSeconds: spanSeconds(func(ctx context.Context) {
			_, _, _ = p.ApproximateFactMarginalsAcct(ctx, mode, ocqa.ApproxOptions{
				Seed: 1, MaxSamples: draws, Workers: engine.AutoWorkers,
			})
		}),
		Results: []benchResult{
			toWorkerResult("ScaleMarginals1Worker", "scale_marginals", 1, marg1),
			toWorkerResult("ScaleMarginalsAutoWorkers", "scale_marginals", auto, margAuto),
			toResult("ScaleSnapshotEncode", encode),
			toResult("ScaleColdBoot", coldBoot),
			toResult("ScaleWarmBoot", warmBoot),
		},
	}
	if ns := out.Results[0].NsPerOp; ns > 0 {
		out.DrawsPerSec1W = float64(draws) / (ns / 1e9)
	}
	if ns := out.Results[1].NsPerOp; ns > 0 {
		out.DrawsPerSecAuto = float64(draws) / (ns / 1e9)
	}
	if v := workerInversions(out.Results); len(v) > 0 {
		return fmt.Errorf("worker inversion in scale suite: %s", v[0])
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
	fmt.Printf("facts: %d (%d clean + %d blocks × %d), built in %.2fs, prepared in %.2fs\n",
		out.Facts, clean, blocks, blockSize, buildSeconds, prepareSeconds)
	fmt.Printf("memory: %.1f B/fact live heap (%d MiB), %d MiB OS-reserved\n",
		out.BytesPerFactMem, heapBytes>>20, sys1>>20)
	fmt.Printf("snapshot: %.1f B/fact on disk (%d MiB, columnar v2)\n",
		out.BytesPerFactDisk, snapBytes>>20)
	fmt.Printf("marginals: %.0f draws/sec (1 worker), %.0f draws/sec (auto, %d worker(s))\n",
		out.DrawsPerSec1W, out.DrawsPerSecAuto, auto)
	fmt.Printf("stopping rule: route %s, %d draws in %.6fs, estimate %.3f for a 1/3-probability query\n",
		plan.Route, out.StoppingRuleDraws, srSeconds, est.Value)
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

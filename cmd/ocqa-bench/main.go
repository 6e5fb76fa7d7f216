// Command ocqa-bench runs the reproduction's experiment suite — one
// experiment per paper artefact (both figures, every theorem/lemma with
// empirical content) — and prints each experiment's table: run
// `go run ./cmd/ocqa-bench` to see every table.
//
// With -store it instead runs the persistence micro-benchmarks
// (incremental InsertFact vs. full conflict-structure rebuild, WAL
// replay, snapshot round-trip) and emits a BENCH_store.json trajectory
// file. With -engine it runs the estimation-engine benchmarks
// (pre-engine serial marginals baseline vs. the amortised parallel
// engine) and emits BENCH_engine.json. With -answers it runs the
// shared-draw answers benchmarks (per-tuple estimation baseline vs.
// one Monte-Carlo pass for all answer tuples) and emits
// BENCH_answers.json.
//
// With -scale it runs the million-fact data-plane suite (marginals
// draws/sec at 1 worker and under adaptive selection, a stopping-rule
// query, live-heap and snapshot bytes per fact, columnar v2 encode /
// cold-boot / warm-boot timings) and emits BENCH_scale.json;
// -scale-facts shrinks the instance for CI smoke runs.
//
// With -delta it runs the incremental-estimation suite: mutate-then-
// query throughput of the ApplyInsert/ApplyDelete lineage
// (per-block factor caching, stratified draw reuse) against cold
// from-scratch recomputation on a 100k-fact instance, with an in-bench
// big.Rat equality trace and a 5x speedup acceptance floor. Emits
// BENCH_delta.json; -delta-facts shrinks the instance for CI smoke
// runs.
//
// With -check BASELINE.json it reruns the suite named in the baseline
// trajectory file and exits non-zero when any benchmark's ns_per_op
// grew — or its draws/sec shrank — by more than the suite's tolerance
// band (15% for the micro suites, 40% for the noisier macro-scale
// suite), or the scale suite's bytes/fact grew by more than 15%: the
// CI bench regression gate. The gate also rejects any file containing
// a worker inversion (a configuration where more workers ran slower
// than fewer). -check-selftest BASELINE.json proves the gate itself
// still discriminates (the file passes against itself, a synthetic
// slowdown past the band and a synthetic worker inversion fail)
// without rerunning any benchmark.
//
// Every trajectory file is stamped with the git commit, Go version,
// CPU count and GOMAXPROCS of the run, so cross-host comparisons are
// visible as such.
//
// With -oracle it runs the randomized differential verification gate:
// the brute-force repair oracle is checked against every exact engine
// on -oracle-scenarios random instances (each under all six modes),
// the estimators' (ε, δ) envelopes are audited empirically, and random
// mutation traces are replayed through the durable store. Any
// divergence exits non-zero — this is the CI safety net every scaling
// PR runs under.
//
// Usage:
//
//	ocqa-bench [-quick] [-seed N] [-only E06]
//	ocqa-bench -store [-store-out BENCH_store.json]
//	ocqa-bench -engine [-engine-out BENCH_engine.json]
//	ocqa-bench -answers [-answers-out BENCH_answers.json]
//	ocqa-bench -scale [-scale-facts 1000000] [-scale-out BENCH_scale.json]
//	ocqa-bench -delta [-delta-facts 100000] [-delta-out BENCH_delta.json]
//	ocqa-bench -check BENCH_engine.json
//	ocqa-bench -check-selftest BENCH_engine.json
//	ocqa-bench -oracle [-seed N] [-oracle-scenarios 500]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "smaller instances and sample counts")
		seed       = flag.Int64("seed", 42, "random seed")
		only       = flag.String("only", "", "run a single experiment by ID (e.g. E06)")
		storeRun   = flag.Bool("store", false, "run the persistence micro-benchmarks instead of the experiment suite")
		storeOut   = flag.String("store-out", "BENCH_store.json", "trajectory file for -store results")
		engineRun  = flag.Bool("engine", false, "run the estimation-engine benchmarks instead of the experiment suite")
		engineOut  = flag.String("engine-out", "BENCH_engine.json", "trajectory file for -engine results")
		answersRun = flag.Bool("answers", false, "run the shared-draw answers benchmarks instead of the experiment suite")
		answersOut = flag.String("answers-out", "BENCH_answers.json", "trajectory file for -answers results")
		scaleRun   = flag.Bool("scale", false, "run the million-fact data-plane suite instead of the experiment suite")
		scaleFacts = flag.Int("scale-facts", 1_000_000, "instance size for -scale (CI smoke runs use ~100k)")
		scaleOut   = flag.String("scale-out", "BENCH_scale.json", "trajectory file for -scale results")
		deltaRun   = flag.Bool("delta", false, "run the incremental-estimation mutate-then-query suite instead of the experiment suite")
		deltaFacts = flag.Int("delta-facts", 100_000, "instance size for -delta (CI smoke runs use ~10k)")
		deltaOut   = flag.String("delta-out", "BENCH_delta.json", "trajectory file for -delta results")
		oracleRun  = flag.Bool("oracle", false, "run the oracle differential verification gate instead of the experiment suite")
		oracleN    = flag.Int("oracle-scenarios", 500, "random scenarios for the -oracle gate (each checked under all six modes)")
		check      = flag.String("check", "", "baseline BENCH_*.json: rerun its suite and exit non-zero on an ns/op or draws/sec regression past the suite's tolerance band")
		checkSelf  = flag.String("check-selftest", "", "baseline BENCH_*.json: verify the regression gate flags a synthetic 20% slowdown (no benchmarks rerun)")
	)
	flag.Parse()
	if *checkSelf != "" {
		if err := runCheckSelftest(*checkSelf); err != nil {
			fmt.Fprintln(os.Stderr, "ocqa-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *check != "" {
		if err := runCheck(*check); err != nil {
			fmt.Fprintln(os.Stderr, "ocqa-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *oracleRun {
		if err := runOracleHarness(*seed, *oracleN); err != nil {
			fmt.Fprintln(os.Stderr, "ocqa-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *storeRun {
		if err := runStoreBenchmarks(*storeOut); err != nil {
			fmt.Fprintln(os.Stderr, "ocqa-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *engineRun {
		if err := runEngineBenchmarks(*engineOut); err != nil {
			fmt.Fprintln(os.Stderr, "ocqa-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *answersRun {
		if err := runAnswersBenchmarks(*answersOut); err != nil {
			fmt.Fprintln(os.Stderr, "ocqa-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *scaleRun {
		if err := runScaleBenchmarks(*scaleOut, *scaleFacts); err != nil {
			fmt.Fprintln(os.Stderr, "ocqa-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *deltaRun {
		if err := runDeltaBenchmarks(*deltaOut, *deltaFacts); err != nil {
			fmt.Fprintln(os.Stderr, "ocqa-bench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick}

	exps := experiments.All()
	if *only != "" {
		e, ok := experiments.ByID(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "ocqa-bench: unknown experiment %q\n", *only)
			os.Exit(1)
		}
		exps = []experiments.Experiment{e}
	}

	failed := 0
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(cfg)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocqa-bench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Print(tab.Format())
		fmt.Printf("   (%s)\n\n", elapsed.Round(time.Millisecond))
		if !tab.OK {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ocqa-bench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
	fmt.Println("all experiments passed")
}

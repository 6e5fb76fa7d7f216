package main

// The -store mode: persistence micro-benchmarks mirroring the
// package-level Benchmark* functions (internal/core/mutate_bench_test.go,
// internal/store/bench_test.go), runnable from the binary and emitting
// a machine-readable trajectory file for cross-PR tracking.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/rel"
	"repro/internal/store"
)

// benchResult is one benchmark's line in the trajectory file. Results
// that measure the same computation at different worker counts share a
// Group and record their Workers, so the regression gate can assert
// that no committed file contains a configuration where more workers
// is slower than fewer (see workerInversions).
type benchResult struct {
	Name        string  `json:"name"`
	Group       string  `json:"group,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type storeBenchFile struct {
	Suite string `json:"suite"`
	benchStamp
	Results []benchResult `json:"results"`
	// IncrementalSpeedup is ns(rebuild) / ns(incremental) for the
	// InsertFact pair — the headline number of the incremental
	// conflict-maintenance path.
	IncrementalSpeedup float64 `json:"incremental_speedup"`
}

func toResult(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// toWorkerResult is toResult for a worker-parameterized benchmark:
// same-group results form the ladder the inversion gate checks.
func toWorkerResult(name, group string, workers int, r testing.BenchmarkResult) benchResult {
	br := toResult(name, r)
	br.Group = group
	br.Workers = workers
	return br
}

// storeBenchDB mirrors the core benchmark fixture: `blocks` key-blocks
// of `blockSize` mutually conflicting facts under one primary key.
func storeBenchDB(blocks, blockSize int) (*rel.Database, *fd.Set) {
	var facts []rel.Fact
	for b := 0; b < blocks; b++ {
		for i := 0; i < blockSize; i++ {
			facts = append(facts, rel.NewFact("R", fmt.Sprintf("k%d", b), fmt.Sprintf("v%d", i)))
		}
	}
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	return rel.NewDatabase(facts...), fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
}

func runStoreBenchmarks(outPath string) error {
	d, sigma := storeBenchDB(200, 8)
	base := core.NewInstance(d, sigma)
	f := rel.NewFact("R", "k7", "fresh")
	d2, _, ok := d.Insert(f)
	if !ok {
		return fmt.Errorf("store bench: fixture insert failed")
	}

	incremental := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := base.InsertFact(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	rebuild := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.NewInstance(d2, sigma)
		}
	})

	// WAL replay: one registration plus 512 incremental mutations.
	walDir, err := os.MkdirTemp("", "ocqa-bench-wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	st, err := store.Open(store.Options{Dir: walDir, CompactEvery: -1})
	if err != nil {
		return err
	}
	if err := st.LogRegister("i1", "bench", time.Now(), rel.NewDatabase(), sigma); err != nil {
		return err
	}
	for i := 0; i < 512; i++ {
		if err := st.LogInsertFact("i1", rel.NewFact("R", fmt.Sprintf("k%d", i%64), fmt.Sprintf("v%d", i))); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	replay := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := store.Open(store.Options{Dir: walDir, CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			if n := len(st.Instances()); n != 1 {
				b.Fatalf("replayed %d instances", n)
			}
			st.Close()
		}
	})

	snapshot := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := store.EncodeInstance(&buf, d, sigma); err != nil {
				b.Fatal(err)
			}
			if _, _, err := store.DecodeInstance(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})

	out := storeBenchFile{
		Suite:      "store",
		benchStamp: newBenchStamp(),
		Results: []benchResult{
			toResult("InsertFactIncremental", incremental),
			toResult("InsertFactRebuild", rebuild),
			toResult("WALReplay512Ops", replay),
			toResult("SnapshotRoundTrip1600Facts", snapshot),
		},
	}
	if inc := out.Results[0].NsPerOp; inc > 0 {
		out.IncrementalSpeedup = out.Results[1].NsPerOp / inc
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range out.Results {
		fmt.Printf("%-28s %12.0f ns/op %10d B/op %8d allocs/op  (n=%d)\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Iterations)
	}
	fmt.Printf("incremental InsertFact speedup over full rebuild: %.2fx\n", out.IncrementalSpeedup)
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

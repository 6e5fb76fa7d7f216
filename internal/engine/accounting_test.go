package engine

import (
	"context"
	"math/rand"
	"testing"
)

func coin(p float64) func() Sampler {
	return func() Sampler {
		return func(rng *rand.Rand) bool { return rng.Float64() < p }
	}
}

// TestAccountingFixed: the per-worker split must sum to the draw
// total and match splitQuota, and wall time must be recorded.
func TestAccountingFixed(t *testing.T) {
	for _, workers := range []int{1, 4} {
		est, err := EstimateFixed(context.Background(), coin(0.5), 10_000, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		a := est.Acct
		if a.Draws != 10_000 {
			t.Fatalf("workers=%d: %d draws accounted, want 10000", workers, a.Draws)
		}
		if a.Workers != workers {
			t.Fatalf("workers=%d: accounted %d workers", workers, a.Workers)
		}
		if a.Chunks <= 0 || a.WallNanos < 0 || a.Cancelled {
			t.Fatalf("workers=%d: implausible accounting %+v", workers, a)
		}
		if workers == 1 {
			if a.PerWorker != nil {
				t.Fatalf("serial run should have no per-worker split, got %v", a.PerWorker)
			}
			continue
		}
		var sum int64
		for w, d := range a.PerWorker {
			if d != int64(splitQuota(10_000, workers, w)) {
				t.Fatalf("worker %d drew %d, want splitQuota %d", w, d, splitQuota(10_000, workers, w))
			}
			sum += d
		}
		if sum != a.Draws {
			t.Fatalf("per-worker split sums to %d, draws %d", sum, a.Draws)
		}
	}
}

// TestAccountingStoppingRuleParallel: Draws counts the discarded tail
// (a multiple of workers×Chunk), Samples only the consumed prefix.
func TestAccountingStoppingRuleParallel(t *testing.T) {
	est, err := EstimateStoppingRule(context.Background(), coin(0.3), 0.2, 0.1, 7, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := est.Acct
	if a.Draws < int64(est.Samples) {
		t.Fatalf("accounted draws %d < consumed samples %d", a.Draws, est.Samples)
	}
	if a.Draws%(4*Chunk) != 0 {
		t.Fatalf("parallel rule draws %d not a whole number of rounds", a.Draws)
	}
	var sum int64
	for _, d := range a.PerWorker {
		sum += d
	}
	if sum != a.Draws {
		t.Fatalf("per-worker split sums to %d, draws %d", sum, a.Draws)
	}
}

// TestAccountingCancelled: a cancelled run is flagged in its own
// accounting and in the process-wide counter.
func TestAccountingCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := CancelledRuns.Value()
	est, err := EstimateFixed(ctx, coin(0.5), 100_000, 1, 2)
	if err == nil {
		t.Fatal("want context error")
	}
	if !est.Acct.Cancelled {
		t.Fatalf("cancelled run not flagged: %+v", est.Acct)
	}
	if CancelledRuns.Value() != before+1 {
		t.Fatalf("cancelled-runs counter moved %d, want 1", CancelledRuns.Value()-before)
	}
}

// TestRunHistograms: every run, single- or multi-target, adds one
// observation of its draws and wall time to the run histograms in
// metrics.Process; a multi-target run also adds one multi run and its
// targets to the multi-run counters.
func TestRunHistograms(t *testing.T) {
	type snap struct {
		runs, wallRuns, multiRuns, multiTargets int64
		draws                                   float64
	}
	take := func() snap {
		return snap{runDraws.Count(), runSeconds.Count(), MultiRuns.Value(), MultiTargets.Value(), runDraws.Sum()}
	}
	check := func(name string, before snap, wantMulti, wantTargets int64) {
		t.Helper()
		after := take()
		if d := after.runs - before.runs; d != 1 {
			t.Errorf("%s: run draws histogram took %d observations, want 1", name, d)
		}
		if d := after.wallRuns - before.wallRuns; d != 1 {
			t.Errorf("%s: run duration histogram took %d observations, want 1", name, d)
		}
		if d := after.draws - before.draws; d != 1000 {
			t.Errorf("%s: run draws histogram sum moved %v, want 1000", name, d)
		}
		if d := after.multiRuns - before.multiRuns; d != wantMulti {
			t.Errorf("%s: multi runs moved %d, want %d", name, d, wantMulti)
		}
		if d := after.multiTargets - before.multiTargets; d != wantTargets {
			t.Errorf("%s: multi targets moved %d, want %d", name, d, wantTargets)
		}
	}

	before := take()
	if _, err := EstimateFixed(context.Background(), coin(0.5), 1000, 1, 1); err != nil {
		t.Fatal(err)
	}
	check("fixed", before, 0, 0)

	multi := func() MultiSampler {
		return func(rng *rand.Rand, out []bool, _ []int) {
			out[0] = rng.Float64() < 0.5
			out[1] = rng.Float64() < 0.2
		}
	}
	before = take()
	if _, err := EstimateFixedMulti(context.Background(), multi, 2, 1000, 1, 1); err != nil {
		t.Fatal(err)
	}
	check("multi", before, 1, 2)
}

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
	before := CancelledRuns()
	est, err := EstimateFixed(ctx, coin(0.5), 100_000, 1, 2)
	if err == nil {
		t.Fatal("want context error")
	}
	if !est.Acct.Cancelled {
		t.Fatalf("cancelled run not flagged: %+v", est.Acct)
	}
	if CancelledRuns() != before+1 {
		t.Fatalf("cancelled-runs counter moved %d, want 1", CancelledRuns()-before)
	}
}

// TestRunHook: the hook observes every run exactly once, with the
// phase and the run's accounting; SetRunHook(nil) removes it.
func TestRunHook(t *testing.T) {
	var infos []RunInfo
	SetRunHook(func(ri RunInfo) { infos = append(infos, ri) })
	defer SetRunHook(nil)

	if _, err := EstimateFixed(context.Background(), coin(0.5), 1000, 1, 1); err != nil {
		t.Fatal(err)
	}
	multi := func() MultiSampler {
		return func(rng *rand.Rand, out []bool, _ []int) {
			out[0] = rng.Float64() < 0.5
			out[1] = rng.Float64() < 0.2
		}
	}
	if _, err := EstimateFixedMulti(context.Background(), multi, 2, 1000, 1, 1); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(infos))
	}
	if infos[0].Phase != PhaseFixed || infos[0].Targets != 0 || infos[0].Acct.Draws != 1000 {
		t.Fatalf("fixed run info %+v", infos[0])
	}
	if infos[1].Phase != PhaseMultiFixed || infos[1].Targets != 2 || infos[1].Acct.Draws != 1000 {
		t.Fatalf("multi run info %+v", infos[1])
	}

	SetRunHook(nil)
	if _, err := EstimateFixed(context.Background(), coin(0.5), 1000, 1, 1); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatal("hook fired after removal")
	}
}

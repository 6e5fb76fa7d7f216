package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
)

// countingFactory returns a sampler factory whose total draw count is
// observable, optionally cancelling the context once `after` draws
// have been performed (after < 0 never cancels).
func countingFactory(total *atomic.Int64, cancel context.CancelFunc, after int64) func() Sampler {
	return func() Sampler {
		return func(rng *rand.Rand) bool {
			if n := total.Add(1); cancel != nil && n == after {
				cancel()
			}
			return rng.Float64() < 0.5
		}
	}
}

func TestEstimateFixedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var total atomic.Int64
	for _, workers := range []int{1, 4} {
		before := CancelledRuns.Value()
		e, err := EstimateFixed(ctx, countingFactory(&total, nil, -1), 1_000_000, 5, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if e.Samples != 0 && int64(e.Samples) > int64(workers)*Chunk {
			t.Fatalf("workers=%d: pre-cancelled run drew %d samples", workers, e.Samples)
		}
		if CancelledRuns.Value() <= before {
			t.Fatalf("workers=%d: cancelled-runs counter did not move", workers)
		}
	}
	if got := total.Load(); got > int64(4)*Chunk {
		t.Fatalf("pre-cancelled runs performed %d draws in total", got)
	}
}

// TestEstimateFixedMidFlightCancel: cancelling during the run stops
// every worker within one chunk — the sample counter must come out
// near the cancellation point, far below the requested budget.
func TestEstimateFixedMidFlightCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var total atomic.Int64
		const stopAfter = 2000
		const budget = 50_000_000
		e, err := EstimateFixed(ctx, countingFactory(&total, cancel, stopAfter), budget, 7, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Each worker may finish the chunk it was inside when the
		// cancellation landed, nothing more.
		limit := int64(stopAfter + (workers+1)*Chunk)
		if got := total.Load(); got > limit {
			t.Fatalf("workers=%d: %d draws performed after cancel at %d (limit %d)", workers, got, stopAfter, limit)
		}
		if e.Samples >= budget {
			t.Fatalf("workers=%d: cancelled run drained its full budget", workers)
		}
	}
}

func TestStoppingRuleMidFlightCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var total atomic.Int64
	const stopAfter = 1500
	// p = 0 never converges, so only the cancellation can stop it.
	f := func() Sampler {
		return func(rng *rand.Rand) bool {
			if total.Add(1) == stopAfter {
				cancel()
			}
			return false
		}
	}
	e, err := EstimateStoppingRule(ctx, f, 0.1, 0.05, 3, 1, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := total.Load(); got > stopAfter+2*Chunk {
		t.Fatalf("%d draws performed after cancel at %d", got, stopAfter)
	}
	if e.Value != 0 {
		t.Fatalf("partial estimate of an all-miss stream = %v", e.Value)
	}
}

func TestStoppingRuleParallelMidFlightCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var total atomic.Int64
	const workers = 4
	const stopAfter = 3000
	e, err := EstimateStoppingRule(ctx, countingFactory(&total, cancel, stopAfter), 0.01, 0.01, 9, workers, 0)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The round in flight completes (workers × Chunk draws), then the
	// next round's context check fires.
	if got := total.Load(); got > stopAfter+2*workers*Chunk {
		t.Fatalf("%d draws performed after cancel at %d", got, stopAfter)
	}
	if e.Converged {
		t.Fatal("cancelled run cannot report convergence")
	}
}

func TestEstimateAAMidFlightCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var total atomic.Int64
	const stopAfter = 2500
	f := countingFactory(&total, cancel, stopAfter)
	e, err := EstimateAA(ctx, f(), 0.05, 0.05, 11, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := total.Load(); got > stopAfter+2*Chunk {
		t.Fatalf("%d draws performed after cancel at %d", got, stopAfter)
	}
	if e.Samples > int(total.Load()) {
		t.Fatalf("Samples = %d exceeds draws performed", e.Samples)
	}
}

func TestMarginalsPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	newSampler := func() CountSampler {
		return func(rng *rand.Rand, counts []int) { counts[rng.Intn(len(counts))]++ }
	}
	for _, workers := range []int{1, 4} {
		counts, acct, err := Marginals(ctx, newSampler, 8, 100_000, 3, workers)
		drawn := acct.Draws
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if drawn != 0 {
			t.Fatalf("workers=%d: pre-cancelled marginals drew %d", workers, drawn)
		}
		for i, c := range counts {
			if c != 0 {
				t.Fatalf("workers=%d: counts[%d] = %d on a zero-draw run", workers, i, c)
			}
		}
	}
}

func TestMarginalsMidFlightCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var total atomic.Int64
		const stopAfter = 2000
		const budget = 50_000_000
		newSampler := func() CountSampler {
			return func(rng *rand.Rand, counts []int) {
				if total.Add(1) == stopAfter {
					cancel()
				}
				counts[rng.Intn(len(counts))]++
			}
		}
		counts, acct, err := Marginals(ctx, newSampler, 16, budget, 5, workers)
		drawn := int(acct.Draws)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		limit := int64(stopAfter + (workers+1)*Chunk)
		if got := total.Load(); got > limit {
			t.Fatalf("workers=%d: %d draws after cancel at %d (limit %d)", workers, got, stopAfter, limit)
		}
		if drawn >= budget {
			t.Fatalf("workers=%d: cancelled marginals drained the budget", workers)
		}
		// The partial counts are consistent with the partial draw count.
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if sum != drawn {
			t.Fatalf("workers=%d: counts sum %d != drawn %d", workers, sum, drawn)
		}
	}
}

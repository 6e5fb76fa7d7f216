package ocqa_test

// Cancellation tests at the facade level: the public Approximate*
// methods must propagate a done context into the engine's draw loops
// and surface the context error instead of draining their sample
// budgets. The chunk-granularity guarantees themselves are asserted in
// internal/engine's tests; here we check the plumbing end to end.

import (
	"context"
	"errors"
	"testing"
	"time"

	ocqa "repro"
	"repro/internal/engine"
)

func cancelFixture(t *testing.T) *ocqa.Instance {
	t.Helper()
	inst, err := ocqa.NewInstanceFromText(
		"Emp(1,Alice)\nEmp(1,Tom)\nEmp(2,Bob)\nEmp(3,Eve)\nEmp(3,Mallory)\n",
		"Emp: A1 -> A2\n")
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestApproximatePreCancelled(t *testing.T) {
	inst := cancelFixture(t)
	q, err := ocqa.ParseQuery("Ans(n) :- Emp(i, n)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := inst.Approximate(ctx, ocqa.Mode{Gen: ocqa.UniformSequences}, q, ocqa.ParseTuple("Alice"),
			ocqa.ApproxOptions{Seed: 3, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// The AA estimator path observes the context too.
	_, err = inst.Approximate(ctx, ocqa.Mode{Gen: ocqa.UniformSequences}, q, ocqa.ParseTuple("Alice"),
		ocqa.ApproxOptions{Seed: 3, UseAA: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("UseAA: err = %v, want context.Canceled", err)
	}
}

func TestApproximateFactMarginalsPreCancelled(t *testing.T) {
	inst := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := inst.ApproximateFactMarginals(ctx, ocqa.Mode{Gen: ocqa.UniformRepairs},
			ocqa.ApproxOptions{Seed: 3, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestApproximateFactMarginalsMidFlightCancel: cancelling during the
// run stops it long before the requested budget — observed through the
// engine's process-wide draw counter, which moves by far less than the
// 200M-draw request.
func TestApproximateFactMarginalsMidFlightCancel(t *testing.T) {
	inst := cancelFixture(t)
	// The budget is sized to take tens of seconds uncancelled, so a
	// 50ms cancellation provably lands mid-flight (and if scheduling
	// delays the start past it, the pre-cancelled path returns the same
	// error — either way no drain).
	const budget = 200_000_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	before := engine.SamplesDrawn.Value()
	_, err := inst.ApproximateFactMarginals(ctx, ocqa.Mode{Gen: ocqa.UniformRepairs},
		ocqa.ApproxOptions{Seed: 9, MaxSamples: budget, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if drawn := engine.SamplesDrawn.Value() - before; drawn >= budget {
		t.Fatalf("cancelled marginals drained the full %d-draw budget (drew %d)", budget, drawn)
	}
}

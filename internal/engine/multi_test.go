package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// biasedMulti builds a MultiSampler whose target t succeeds with
// probability ps[t], all targets driven by the same draw (one uniform
// variate per draw, thresholded per target — the shared-stream shape
// of the answers path).
func biasedMulti(ps []float64) func() MultiSampler {
	return func() MultiSampler {
		return func(rng *rand.Rand, out []bool, _ []int) {
			u := rng.Float64()
			for t, p := range ps {
				out[t] = u < p
			}
		}
	}
}

// sameEstimate compares the statistical outcome of two estimates,
// ignoring Acct: determinism is promised for the estimate's law, not
// for wall-clock metadata.
func sameEstimate(a, b Estimate) bool {
	return a.Value == b.Value && a.Samples == b.Samples &&
		a.Epsilon == b.Epsilon && a.Delta == b.Delta && a.Converged == b.Converged
}

func TestEstimateFixedMultiMeans(t *testing.T) {
	ps := []float64{0.8, 0.5, 0.1}
	for _, workers := range []int{1, 4} {
		ests, err := EstimateFixedMulti(context.Background(), biasedMulti(ps), len(ps), 40_000, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range ests {
			if e.Samples != 40_000 || !e.Converged {
				t.Fatalf("workers=%d target %d: samples=%d converged=%v", workers, i, e.Samples, e.Converged)
			}
			if math.Abs(e.Value-ps[i]) > 0.02 {
				t.Errorf("workers=%d target %d: estimate %.4f, want ≈ %.2f", workers, i, e.Value, ps[i])
			}
		}
	}
}

func TestEstimateFixedMultiDeterministic(t *testing.T) {
	ps := []float64{0.6, 0.3}
	for _, workers := range []int{1, 3} {
		a, err := EstimateFixedMulti(context.Background(), biasedMulti(ps), len(ps), 10_000, 11, workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EstimateFixedMulti(context.Background(), biasedMulti(ps), len(ps), 10_000, 11, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !sameEstimate(a[i], b[i]) {
				t.Fatalf("workers=%d target %d: %+v != %+v", workers, i, a[i], b[i])
			}
		}
	}
}

func TestEstimateStoppingRuleMultiConverges(t *testing.T) {
	ps := []float64{0.9, 0.5, 0.2}
	for _, workers := range []int{1, 4} {
		ests, err := EstimateStoppingRuleMulti(context.Background(), biasedMulti(ps), len(ps), 0.1, 0.05, 5, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range ests {
			if !e.Converged {
				t.Fatalf("workers=%d target %d did not converge", workers, i)
			}
			if math.Abs(e.Value-ps[i]) > 0.1*ps[i]+0.02 {
				t.Errorf("workers=%d target %d: estimate %.4f, want ≈ %.2f", workers, i, e.Value, ps[i])
			}
		}
		// A rarer target needs a longer prefix of the shared stream.
		if ests[2].Samples < ests[0].Samples {
			t.Errorf("workers=%d: rare target stopped before the common one: %d < %d",
				workers, ests[2].Samples, ests[0].Samples)
		}
	}
}

func TestEstimateStoppingRuleMultiDeterministic(t *testing.T) {
	ps := []float64{0.7, 0.3, 0.05}
	for _, workers := range []int{1, 4} {
		a, err := EstimateStoppingRuleMulti(context.Background(), biasedMulti(ps), len(ps), 0.2, 0.1, 21, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EstimateStoppingRuleMulti(context.Background(), biasedMulti(ps), len(ps), 0.2, 0.1, 21, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !sameEstimate(a[i], b[i]) {
				t.Fatalf("workers=%d target %d: %+v != %+v", workers, i, a[i], b[i])
			}
		}
	}
}

// TestEstimateStoppingRuleMultiSingleTargetLaw: with one target, the
// multi rule applied to a stream must produce exactly the sequential
// stopping rule's output on that same stream (same Υ₁ crossing, same
// consumed prefix).
func TestEstimateStoppingRuleMultiSingleTargetLaw(t *testing.T) {
	// Drive both rules from identical pre-recorded outcomes.
	outcomes := make([]bool, 200_000)
	rng := rand.New(rand.NewSource(99))
	for i := range outcomes {
		outcomes[i] = rng.Float64() < 0.4
	}
	iMulti := 0
	multi := func() MultiSampler {
		return func(_ *rand.Rand, out []bool, _ []int) { out[0] = outcomes[iMulti]; iMulti++ }
	}
	iSingle := 0
	single := func(_ *rand.Rand) bool { b := outcomes[iSingle]; iSingle++; return b }

	m, err := EstimateStoppingRuleMulti(context.Background(), multi, 1, 0.1, 0.05, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := EstimateStoppingRule(context.Background(), func() Sampler { return single }, 0.1, 0.05, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].Value != s.Value || m[0].Samples != s.Samples || m[0].Converged != s.Converged {
		t.Fatalf("multi %+v != sequential %+v on the same stream", m[0], s)
	}
}

func TestEstimateStoppingRuleMultiCap(t *testing.T) {
	ps := []float64{0.9, 0.0} // target 1 never succeeds: only the cap stops it
	for _, workers := range []int{1, 4} {
		ests, err := EstimateStoppingRuleMulti(context.Background(), biasedMulti(ps), len(ps), 0.1, 0.05, 2, workers, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if !ests[0].Converged {
			t.Errorf("workers=%d: likely target should converge before the cap", workers)
		}
		if ests[1].Converged || ests[1].Value != 0 {
			t.Errorf("workers=%d: impossible target: %+v, want unconverged zero", workers, ests[1])
		}
		if ests[1].Samples != 5000 {
			t.Errorf("workers=%d: cap target consumed %d draws, want exactly the cap", workers, ests[1].Samples)
		}
	}
}

func TestEstimateMultiCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ps := []float64{0.5, 0.0}
	for _, workers := range []int{1, 4} {
		ests, err := EstimateStoppingRuleMulti(ctx, biasedMulti(ps), len(ps), 0.1, 0.05, 2, workers, 0)
		if err == nil {
			t.Fatalf("workers=%d: want context error", workers)
		}
		if len(ests) != len(ps) {
			t.Fatalf("workers=%d: partial estimates missing", workers)
		}
		if _, err := EstimateFixedMulti(ctx, biasedMulti(ps), len(ps), 100_000, 2, workers); err == nil {
			t.Fatalf("workers=%d: fixed multi: want context error", workers)
		}
	}
}

// TestEstimateStoppingRuleMultiActiveSkip: a sampler that strictly
// honours the active hint — and actively garbles every inactive out
// entry — must produce the identical estimates to one that always
// evaluates all targets, because the rule never reads closed targets'
// outputs.
func TestEstimateStoppingRuleMultiActiveSkip(t *testing.T) {
	ps := []float64{0.9, 0.4, 0.1}
	strict := func() MultiSampler {
		full := biasedMulti(ps)()
		buf := make([]bool, len(ps))
		return func(rng *rand.Rand, out []bool, active []int) {
			full(rng, buf, nil)
			for i := range out {
				out[i] = !out[i] // garbage unless overwritten below
			}
			if active == nil {
				copy(out, buf)
				return
			}
			for _, t := range active {
				out[t] = buf[t]
			}
		}
	}
	for _, workers := range []int{1, 4} {
		a, err := EstimateStoppingRuleMulti(context.Background(), biasedMulti(ps), len(ps), 0.15, 0.1, 17, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EstimateStoppingRuleMulti(context.Background(), strict, len(ps), 0.15, 0.1, 17, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !sameEstimate(a[i], b[i]) {
				t.Fatalf("workers=%d target %d: full-eval %+v != active-skip %+v", workers, i, a[i], b[i])
			}
		}
	}
}

func TestEstimateStoppingRuleMultiNoTargets(t *testing.T) {
	ests, err := EstimateStoppingRuleMulti(context.Background(), biasedMulti(nil), 0, 0.1, 0.05, 1, 4, 0)
	if err != nil || len(ests) != 0 {
		t.Fatalf("no-target run: ests=%v err=%v", ests, err)
	}
}

func BenchmarkMultiStoppingRule8Targets(b *testing.B) {
	ps := make([]float64, 8)
	for i := range ps {
		ps[i] = 0.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateStoppingRuleMulti(context.Background(), biasedMulti(ps), len(ps), 0.1, 0.05, int64(i+1), 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiFixed8Targets(b *testing.B) {
	ps := make([]float64, 8)
	for i := range ps {
		ps[i] = 0.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateFixedMulti(context.Background(), biasedMulti(ps), len(ps), 20_000, int64(i+1), 1); err != nil {
			b.Fatal(err)
		}
	}
}

package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fpras"
)

func bernoulli(p float64) Sampler {
	return func(rng *rand.Rand) bool { return rng.Float64() < p }
}

func factory(p float64) func() Sampler {
	return func() Sampler { return bernoulli(p) }
}

var bg = context.Background()

func TestSubstreamDistinctAcrossPhasesAndWorkers(t *testing.T) {
	seen := make(map[int64][2]any)
	for _, phase := range []Phase{PhaseFixed, PhaseStoppingRule, PhaseAA, PhaseMarginals} {
		for w := 0; w < 64; w++ {
			s := Substream(7, phase, w)
			if prev, dup := seen[s]; dup {
				t.Fatalf("substream collision: (%v,%d) and %v both map to %d", phase, w, prev, s)
			}
			seen[s] = [2]any{phase, w}
		}
	}
	// The same triple is stable.
	if Substream(7, PhaseFixed, 3) != Substream(7, PhaseFixed, 3) {
		t.Fatal("Substream must be deterministic")
	}
	// Different user seeds move every stream.
	if Substream(7, PhaseFixed, 0) == Substream(8, PhaseFixed, 0) {
		t.Fatal("seed must perturb the stream")
	}
}

// TestSubstreamSeparatesPhases is the regression test for the
// correlated-substream bug: the old per-call-site derivations
// (seed + w·0x5851f42d4c957f2d in both the fixed and stopping-rule
// loops) handed identical worker streams to different estimation
// phases for the same user seed. Phases must now never share a stream.
func TestSubstreamSeparatesPhases(t *testing.T) {
	for w := 0; w < 16; w++ {
		if Substream(42, PhaseFixed, w) == Substream(42, PhaseStoppingRule, w) {
			t.Fatalf("worker %d: fixed and stopping-rule phases share a substream", w)
		}
		if Substream(42, PhaseStoppingRule, w) == Substream(42, PhaseAA, w) {
			t.Fatalf("worker %d: stopping-rule and AA phases share a substream", w)
		}
	}
}

func TestEstimateFixedAccuracy(t *testing.T) {
	const p = 0.3
	e, err := EstimateFixed(bg, factory(p), 200000, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Value-p) > 0.01 {
		t.Fatalf("estimate %.4f far from %.2f", e.Value, p)
	}
	if e.Samples != 200000 || !e.Converged {
		t.Fatal("metadata wrong")
	}
}

func TestEstimateFixedParallelMatchesBudget(t *testing.T) {
	const p = 0.25
	e, err := EstimateFixed(bg, factory(p), 100001, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.Samples != 100001 {
		t.Fatalf("Samples = %d", e.Samples)
	}
	if math.Abs(e.Value-p) > 0.02 {
		t.Fatalf("parallel estimate %.4f far from %.2f", e.Value, p)
	}
}

func TestEstimateFixedPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EstimateFixed(bg, factory(0.5), 0, 1, 1)
}

func TestEstimateFixedDeterministicPerSeedAndWorkers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a, _ := EstimateFixed(bg, factory(0.4), 10000, 42, workers)
		b, _ := EstimateFixed(bg, factory(0.4), 10000, 42, workers)
		if a.Value != b.Value {
			t.Fatalf("workers=%d: same seed must give same estimate", workers)
		}
		c, _ := EstimateFixed(bg, factory(0.4), 10000, 43, workers)
		if a.Value == c.Value {
			t.Fatalf("workers=%d: different seeds should differ (overwhelmingly)", workers)
		}
	}
}

// TestEstimateFPRASGuarantee runs the FPRAS template (Chernoff sample
// count + fixed-sample mean) many times and checks the empirical
// failure rate is below δ.
func TestEstimateFPRASGuarantee(t *testing.T) {
	const (
		p     = 0.2
		eps   = 0.2
		delta = 0.1
	)
	n := fpras.ChernoffSamples(eps, delta, p)
	fail := 0
	const runs = 60
	for i := 0; i < runs; i++ {
		e, err := EstimateFixed(bg, factory(p), n, int64(1000+i), 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e.Value-p) > eps*p {
			fail++
		}
	}
	// Expected failures ≤ δ·runs = 6; allow generous slack.
	if fail > 12 {
		t.Fatalf("failed %d/%d runs; guarantee broken", fail, runs)
	}
}

func TestEstimateStoppingRuleAccuracy(t *testing.T) {
	for _, p := range []float64{0.5, 0.1, 0.01} {
		e, err := EstimateStoppingRule(bg, factory(p), 0.1, 0.05, 13, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Converged {
			t.Fatalf("p=%v did not converge", p)
		}
		if math.Abs(e.Value-p) > 0.15*p {
			t.Fatalf("p=%v: estimate %.5f outside 15%%", p, e.Value)
		}
	}
}

// TestStoppingRuleAdaptiveCost verifies E[N] scales like 1/p: the run
// at p=0.01 must use roughly 10× the samples of the run at p=0.1.
func TestStoppingRuleAdaptiveCost(t *testing.T) {
	hi, _ := EstimateStoppingRule(bg, factory(0.1), 0.2, 0.1, 17, 1, 0)
	lo, _ := EstimateStoppingRule(bg, factory(0.01), 0.2, 0.1, 17, 1, 0)
	ratio := float64(lo.Samples) / float64(hi.Samples)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("sample ratio %.1f, want ≈10 (N_hi=%d, N_lo=%d)", ratio, hi.Samples, lo.Samples)
	}
}

func TestStoppingRuleZeroProbabilityCapped(t *testing.T) {
	e, err := EstimateStoppingRule(bg, factory(0), 0.1, 0.1, 19, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if e.Converged {
		t.Fatal("p=0 cannot converge")
	}
	if e.Value != 0 || e.Samples != 5000 {
		t.Fatalf("capped estimate = %+v", e)
	}
}

func TestStoppingRulePanics(t *testing.T) {
	for _, args := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EstimateStoppingRule(%v) should panic", args)
				}
			}()
			EstimateStoppingRule(bg, factory(0.5), args[0], args[1], 1, 1, 0)
		}()
	}
}

func TestSafeDiv(t *testing.T) {
	if safeDiv(1, 0) != 0 {
		t.Fatal("safeDiv(x, 0) must be 0")
	}
	if safeDiv(6, 3) != 2 {
		t.Fatal("safeDiv wrong")
	}
}

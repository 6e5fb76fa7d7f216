package engine

import (
	"math"
	"math/rand"
	"testing"
)

func TestEstimateAAAccuracy(t *testing.T) {
	for _, p := range []float64{0.5, 0.1, 0.02} {
		e, err := EstimateAA(bg, bernoulli(p), 0.1, 0.05, 23, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Converged {
			t.Fatalf("p=%v: did not converge", p)
		}
		if math.Abs(e.Value-p) > 0.15*p {
			t.Fatalf("p=%v: estimate %.5f outside tolerance", p, e.Value)
		}
	}
}

// TestEstimateAABeatsSRAForLargeMu: for μ ≫ ε the variance phase lets
// AA stop with far fewer samples than the plain stopping rule, which
// is the whole point of [8]'s optimality.
func TestEstimateAABeatsSRAForLargeMu(t *testing.T) {
	const p, eps, delta = 0.9, 0.05, 0.05
	aa, err := EstimateAA(bg, bernoulli(p), eps, delta, 29, 0)
	if err != nil {
		t.Fatal(err)
	}
	sra, err := EstimateStoppingRule(bg, factory(p), eps, delta, 29, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !aa.Converged || !sra.Converged {
		t.Fatal("estimators did not converge")
	}
	if math.Abs(aa.Value-p) > eps*p {
		t.Fatalf("AA estimate %.4f outside ε", aa.Value)
	}
	if aa.Samples >= sra.Samples {
		t.Fatalf("AA used %d samples, SRA %d: variance phase should win at μ=0.9",
			aa.Samples, sra.Samples)
	}
}

func TestEstimateAACapped(t *testing.T) {
	e, err := EstimateAA(bg, bernoulli(0), 0.1, 0.1, 31, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if e.Converged {
		t.Fatal("p=0 cannot converge")
	}
	if e.Samples > 3000 {
		t.Fatalf("budget exceeded: %d", e.Samples)
	}
}

// TestAACutShortPhase3 pins what a capped 𝒜𝒜 run reports once phase 3
// has begun: the mean of phase 3's draws so far, or phase 1's μ̂ — what
// a run stopped in phase 2 reports — when the cap leaves phase 3 no
// draw. On an always-true sampler with ε=0.2, δ=0.1 and seed 7 the run
// converges to 1 after 978 draws and phase 3 starts after draw 676.
func TestAACutShortPhase3(t *testing.T) {
	always := func(*rand.Rand) bool { return true }
	run := func(maxS int) Estimate {
		t.Helper()
		e, err := EstimateAA(bg, always, 0.2, 0.1, 7, maxS)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if full := run(0); !full.Converged || full.Value != 1 || full.Samples != 978 {
		t.Fatalf("uncapped run = %+v; want converged to 1 after 978 draws", full)
	}
	for _, maxS := range []int{977, 800, 677} {
		if e := run(maxS); e.Converged || e.Samples != maxS || e.Value != 1 {
			t.Errorf("cap %d: value %v after %d draws (converged %t), want 1 after %d, unconverged",
				maxS, e.Value, e.Samples, e.Converged, maxS)
		}
	}
	inPhase2 := run(675)
	if e := run(676); e.Converged || e.Value != inPhase2.Value || e.Value < 0.99 {
		t.Errorf("cap 676: value %v (converged %t), want phase 2's μ̂ %v", e.Value, e.Converged, inPhase2.Value)
	}
}

func TestEstimateAAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EstimateAA(bg, bernoulli(0.5), 0, 0.1, 1, 0)
}

func TestStoppingRuleParallelAccuracy(t *testing.T) {
	for _, p := range []float64{0.3, 0.05} {
		e, err := EstimateStoppingRule(bg, factory(p), 0.1, 0.05, 37, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Converged {
			t.Fatalf("p=%v: did not converge", p)
		}
		if math.Abs(e.Value-p) > 0.15*p {
			t.Fatalf("p=%v: estimate %.5f outside tolerance", p, e.Value)
		}
	}
}

// TestStoppingRuleParallelSingleWorkerDelegates: workers ≤ 1 all run
// the sequential rule, which draws exactly the samples it consumes.
func TestStoppingRuleParallelSingleWorkerDelegates(t *testing.T) {
	a, _ := EstimateStoppingRule(bg, factory(0.4), 0.1, 0.05, 41, 1, 0)
	b, _ := EstimateStoppingRule(bg, factory(0.4), 0.1, 0.05, 41, 0, 0)
	if a.Value != b.Value || a.Samples != b.Samples {
		t.Fatal("workers=0 and workers=1 must both run the sequential rule")
	}
	if a.Acct.Draws != int64(a.Samples) {
		t.Fatalf("sequential rule drew %d for %d consumed samples", a.Acct.Draws, a.Samples)
	}
}

func TestStoppingRuleParallelDeterministic(t *testing.T) {
	a, _ := EstimateStoppingRule(bg, factory(0.2), 0.1, 0.05, 43, 4, 0)
	b, _ := EstimateStoppingRule(bg, factory(0.2), 0.1, 0.05, 43, 4, 0)
	if a.Value != b.Value || a.Samples != b.Samples {
		t.Fatal("same seed and workers must reproduce")
	}
}

func TestStoppingRuleParallelCapped(t *testing.T) {
	e, err := EstimateStoppingRule(bg, factory(0), 0.1, 0.1, 47, 4, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if e.Converged || e.Value != 0 {
		t.Fatalf("capped run wrong: %+v", e)
	}
}

// TestParallelMatchesSequentialLaw: across many seeds, the parallel
// rule's estimates have the same accuracy profile as the sequential
// rule (both honour the (ε, δ) guarantee).
func TestParallelMatchesSequentialLaw(t *testing.T) {
	const p, eps = 0.15, 0.2
	failSeq, failPar := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		seq, _ := EstimateStoppingRule(bg, factory(p), eps, 0.1, 1000+seed, 1, 0)
		par, _ := EstimateStoppingRule(bg, factory(p), eps, 0.1, 2000+seed, 3, 0)
		if math.Abs(seq.Value-p) > eps*p {
			failSeq++
		}
		if math.Abs(par.Value-p) > eps*p {
			failPar++
		}
	}
	if failSeq > 10 || failPar > 10 {
		t.Fatalf("failure rates too high: seq %d, par %d of 40", failSeq, failPar)
	}
}

// TestStoppingRuleExactCap: maxSamples bounds the consumed prefix
// exactly at every worker count. A parallel run must not consume — or
// converge on — draws past the cap, which a round-boundary check alone
// allows (up to workers×Chunk−1 of them).
func TestStoppingRuleExactCap(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e, err := EstimateStoppingRule(bg, factory(0), 0.1, 0.05, 5, workers, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if e.Samples != 1000 || e.Converged || e.Acct.Draws != 1000 {
			t.Errorf("workers=%d, p=0: samples=%d draws=%d converged=%v, want exactly the cap of 1000 unconverged",
				workers, e.Samples, e.Acct.Draws, e.Converged)
		}
		ests, err := EstimateStoppingRuleMulti(bg, biasedMulti([]float64{0.9, 0}), 2, 0.1, 0.05, 5, workers, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if ests[1].Samples != 1000 || ests[1].Converged || ests[1].Acct.Draws != 1000 {
			t.Errorf("workers=%d, impossible target: samples=%d draws=%d converged=%v, want exactly the cap of 1000 unconverged",
				workers, ests[1].Samples, ests[1].Acct.Draws, ests[1].Converged)
		}
	}
	// The serial rule stops unconverged at this cap; the parallel rule
	// meets Υ₁ only a few draws past it, and must stop there too.
	for _, workers := range []int{1, 4} {
		e, err := EstimateStoppingRule(bg, factory(0.5), 0.3, 0.1, 111, workers, 300)
		if err != nil {
			t.Fatal(err)
		}
		if e.Converged || e.Samples != 300 {
			t.Errorf("workers=%d: converged=%v at %d samples, want unconverged at the cap of 300", workers, e.Converged, e.Samples)
		}
	}
}

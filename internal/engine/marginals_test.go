package engine

import (
	"math"
	"math/rand"
	"testing"
)

// biasedCounter simulates a repair drawer over nFacts facts where fact
// i survives independently with probability p[i]; one call updates
// every fact's counter — the amortised marginals shape.
func biasedCounter(p []float64) func() CountSampler {
	return func() CountSampler {
		return func(rng *rand.Rand, counts []int) {
			for i, pi := range p {
				if rng.Float64() < pi {
					counts[i]++
				}
			}
		}
	}
}

func TestMarginalsAccuracy(t *testing.T) {
	p := []float64{0.9, 0.5, 0.1, 1, 0}
	counts, acct, err := Marginals(bg, biasedCounter(p), len(p), 60_000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	drawn := int(acct.Draws)
	if drawn != 60_000 {
		t.Fatalf("drawn = %d", drawn)
	}
	for i, pi := range p {
		got := float64(counts[i]) / float64(drawn)
		if math.Abs(got-pi) > 0.01 {
			t.Fatalf("fact %d: marginal %.4f far from %.2f", i, got, pi)
		}
	}
}

func TestMarginalsParallelAccuracyAndFullBudget(t *testing.T) {
	p := []float64{0.8, 0.25}
	counts, acct, err := Marginals(bg, biasedCounter(p), len(p), 100_001, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	drawn := int(acct.Draws)
	if drawn != 100_001 {
		t.Fatalf("parallel marginals drew %d of 100001", drawn)
	}
	for i, pi := range p {
		got := float64(counts[i]) / float64(drawn)
		if math.Abs(got-pi) > 0.01 {
			t.Fatalf("fact %d: marginal %.4f far from %.2f", i, got, pi)
		}
	}
}

// TestMarginalsDeterministicPerSeedAndWorkers: the worker/seed
// determinism guarantee — same (seed, workers) reproduces the exact
// count vector; different seeds or worker counts move it.
func TestMarginalsDeterministicPerSeedAndWorkers(t *testing.T) {
	p := []float64{0.6, 0.3, 0.9}
	run := func(seed int64, workers int) []int {
		counts, _, err := Marginals(bg, biasedCounter(p), len(p), 20_000, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}
	for _, workers := range []int{1, 4} {
		a, b := run(11, workers), run(11, workers)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: counts differ at %d: %d vs %d", workers, i, a[i], b[i])
			}
		}
	}
	a, c := run(11, 1), run(12, 1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should produce different counts (overwhelmingly)")
	}
}

func TestMarginalsPanicsOnZeroBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Marginals(bg, biasedCounter([]float64{0.5}), 1, 0, 1, 1)
}

func TestSamplesDrawnCounterMoves(t *testing.T) {
	before := SamplesDrawn.Value()
	if _, _, err := Marginals(bg, biasedCounter([]float64{0.5}), 1, 1000, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := SamplesDrawn.Value() - before; got < 1000 {
		t.Fatalf("samples-drawn counter moved by %d, want ≥ 1000", got)
	}
}

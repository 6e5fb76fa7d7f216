package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// The package benchmarks cover the hot shapes: the Bernoulli
// fixed-sample and stopping-rule loops and the amortised marginal
// counting loop, serially and in parallel. CI runs them with -benchtime=1x as a smoke test so the
// benchmark code cannot rot; cmd/ocqa-bench -engine runs the full
// end-to-end comparison against the pre-engine serial baseline and
// records BENCH_engine.json.

func BenchmarkEstimateFixedSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := EstimateFixed(bg, factory(0.3), 100_000, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateFixed8Workers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := EstimateFixed(bg, factory(0.3), 100_000, 1, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCounter mimics a marginals drawer over a mostly-consistent
// instance: 250 undetermined blocks, one Intn decision each.
func benchCounter() CountSampler {
	return func(rng *rand.Rand, counts []int) {
		for b := 0; b < len(counts); b += 4 {
			if pick := rng.Intn(5); pick < 4 {
				counts[b+pick]++
			}
		}
	}
}

func BenchmarkMarginalsSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Marginals(bg, func() CountSampler { return benchCounter() }, 1000, 20_000, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarginals8Workers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Marginals(bg, func() CountSampler { return benchCounter() }, 1000, 20_000, 1, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateStoppingRule times the stopping-rule loop every
// approximate query runs. The Bernoulli draws are cheap, so any
// per-draw cost of the round driver shows; the fixed seed makes every
// iteration consume the same stream.
func BenchmarkEstimateStoppingRule(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateStoppingRule(bg, factory(0.3), 0.1, 0.05, 1, workers, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

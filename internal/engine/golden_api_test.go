package engine

import "context"

// The golden grid's two entry points whose signatures changed when the
// serial and parallel draw loops were merged onto one driver. Against
// the older API, goldenStopping called the parallel stopping-rule entry
// point (which ran the serial rule at one worker) and goldenMarginals
// the variant of Marginals that returned the run's accounting.

func goldenStopping(ctx context.Context, newSampler func() Sampler, eps, delta float64, seed int64, workers, maxSamples int) (Estimate, error) {
	return EstimateStoppingRule(ctx, newSampler, eps, delta, seed, workers, maxSamples)
}

func goldenMarginals(ctx context.Context, newSampler func() CountSampler, nFacts, n int, seed int64, workers int) ([]int, Accounting, error) {
	return Marginals(ctx, newSampler, nFacts, n, seed, workers)
}

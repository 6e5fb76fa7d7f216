// Package engine is the shared Monte-Carlo estimation engine every
// sampling consumer of the reproduction runs through: the fixed-sample
// Chernoff construction behind the paper's FPRAS theorems (5.1(2),
// 6.1(2), 7.1(2), 7.5), the Dagum–Karp–Luby–Ross stopping rule and
// full 𝒜𝒜 estimator [reference 8 of the paper], their shared-draw
// multi-target forms, and the amortised per-fact marginal counter. The
// statistical machinery (sample-count bounds, probability lower
// bounds) stays in internal/fpras; this package owns the execution of
// the draws.
//
// Every estimator is a small rule run by one round driver (driver.go),
// which owns what the draw loops share:
//
//   - Rounds and workers: each round, every worker draws a batch of at
//     most Chunk outcomes from its own sampler instance, and the rule
//     consumes them in canonical order — worker 0's batch, then worker
//     1's, and so on — so the same (seed, workers) pair always
//     reproduces the same estimate regardless of goroutine scheduling.
//     Fixed-sample rules split their budget with splitQuota and tally
//     inside the draw. With one worker the driver draws and consumes one
//     outcome at a time: a serial stopping rule never draws past its
//     stopping point.
//
//   - Cancellable and capped: the context is checked before every round,
//     so a cancelled run stops within one round and returns its partial
//     estimate together with the context's error. A sample cap bounds
//     the consumed draws exactly: the last round is cut to fit it.
//
//   - Centrally seeded: every worker RNG is derived once, in the driver,
//     by Substream — SplitMix64-style mixing of (seed, phase, worker) —
//     so distinct estimation phases can never hand identical substreams
//     to their workers for the same user seed.
//
//   - Accounted: the driver fills each run's Accounting, feeds the
//     process-wide counters and run histograms it registers in
//     metrics.Process, and records the run's span and convergence
//     checkpoints on a traced context.
package engine

import (
	"math/rand"

	"repro/internal/metrics"
)

// Sampler draws one Bernoulli observation: whether a sampled repair
// (or sequence, or chain walk) satisfies the query.
type Sampler func(rng *rand.Rand) bool

// MultiSampler draws ONE repair (or sequence, or chain walk) and
// records, per estimation target, whether the draw satisfies it. It
// is the multi-target form of Sampler — the shared-draw answers hot
// path, where one drawn subset is evaluated against every candidate
// answer tuple at once, so K targets cost one sampler walk instead of
// K. active lists, in ascending order, the target indices whose
// outputs the caller will consume; nil means all targets.
// Implementations may skip evaluating targets outside active and
// leave their out entries stale — the stopping rule uses this to stop
// paying for targets that have already converged. Implementations are
// typically stateful and not safe for concurrent use; the estimators
// call the factory once per worker.
type MultiSampler func(rng *rand.Rand, out []bool, active []int)

// asMulti runs a single-target sampler as a one-target MultiSampler.
func asMulti(newSampler func() Sampler) func() MultiSampler {
	return func() MultiSampler {
		s := newSampler()
		return func(rng *rand.Rand, out []bool, _ []int) { out[0] = s(rng) }
	}
}

// Estimate is the outcome of a randomized estimation.
type Estimate struct {
	// Value is the estimate of the target probability.
	Value float64
	// Samples is the number of draws consumed.
	Samples int
	// Epsilon and Delta echo the requested guarantee (0 when a raw
	// fixed-sample estimate was requested).
	Epsilon, Delta float64
	// Converged is false when a capped stopping-rule run exhausted its
	// budget before meeting the rule; Value is then the plain mean.
	Converged bool
	// Acct is the run's cost accounting. Multi-target runs stamp every
	// returned estimate with the same run-level record (one shared
	// PerWorker slice — treat as read-only).
	Acct Accounting
}

// Chunk is the round size: every worker draws at most Chunk outcomes
// between two context checks, so a cancelled run overshoots the
// cancellation point by at most workers × Chunk samples.
const Chunk = 256

// Phase names an estimation phase for substream derivation. Distinct
// phases mix differently into Substream, so two phases that happen to
// run with the same user seed and worker index still draw from
// independent streams.
type Phase uint64

const (
	// PhaseFixed: the fixed-sample-count loops (EstimateFixed).
	PhaseFixed Phase = 1 + iota
	// PhaseStoppingRule: the DKLR stopping rule (EstimateStoppingRule).
	PhaseStoppingRule
	// PhaseAA: the full three-phase 𝒜𝒜 estimator.
	PhaseAA
	// PhaseMarginals: the per-fact marginal counting loop.
	PhaseMarginals
	// PhaseMultiFixed: the fixed-sample multi-target loop
	// (EstimateFixedMulti).
	PhaseMultiFixed
	// PhaseMultiStopping: the multi-target stopping rule
	// (EstimateStoppingRuleMulti).
	PhaseMultiStopping
)

// splitmix64 is the finalizer of the SplitMix64 generator (Steele,
// Lea, Flood 2014) — a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Substream derives the deterministic RNG seed for one worker of one
// estimation phase. All worker streams in this package come from here:
// the (seed, phase, worker) triple is avalanche-mixed, so neighbouring
// seeds, phases or worker indices share no structure.
func Substream(seed int64, phase Phase, worker int) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ uint64(phase))
	x = splitmix64(x ^ uint64(worker))
	return int64(x)
}

// rngFor builds the worker's rand.Rand on its derived substream.
func rngFor(seed int64, phase Phase, worker int) *rand.Rand {
	return rand.New(rand.NewSource(Substream(seed, phase, worker)))
}

// Process-wide operational counters, registered in metrics.Process
// and served as the engine_* keys of /varz.
var (
	// SamplesDrawn counts the Monte-Carlo draws performed by this
	// package's loops (partial draws of cancelled runs included).
	SamplesDrawn = metrics.Process.NewCounter("ocqa_engine_samples_drawn_total",
		"Monte-Carlo draws performed by the estimation engine process-wide.")
	// CancelledRuns counts estimation runs stopped early by context
	// cancellation.
	CancelledRuns = metrics.Process.NewCounter("ocqa_engine_cancelled_runs_total",
		"Estimation runs stopped early by context cancellation.")
	// MultiRuns counts multi-target estimation runs (shared-draw passes
	// serving every answer tuple at once), cancelled runs included;
	// MultiTargets totals their targets, so MultiTargets/MultiRuns is
	// the mean number of answer tuples a single shared pass served.
	MultiRuns = metrics.Process.NewCounter("ocqa_engine_multi_runs_total",
		"Shared-draw multi-target estimation passes.")
	MultiTargets = metrics.Process.NewCounter("ocqa_engine_multi_targets_total",
		"Answer tuples served by shared-draw passes.")
)

// splitQuota divides n draws over workers as evenly as possible
// (earlier workers take the remainder): worker w's share of a
// fixed-sample run.
func splitQuota(n, workers, w int) int {
	per, extra := n/workers, n%workers
	if w < extra {
		return per + 1
	}
	return per
}

// stamp gives every estimate of a run the run's accounting (one shared
// record, PerWorker slice included).
func stamp(ests []Estimate, acct Accounting) []Estimate {
	for t := range ests {
		ests[t].Acct = acct
	}
	return ests
}

func safeDiv(a float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return a / float64(n)
}

package engine

import (
	"context"
	"math/rand"
)

// EstimateFixed draws exactly n samples and returns the empirical
// mean. With workers > 1 the draws are split across goroutines, each
// drawing its splitQuota share from its own sampler instance
// (newSampler is called once per worker — samplers are typically
// stateful and not safe for concurrent use) on its own PhaseFixed
// substream, and the hit counts are summed, so the result is
// deterministic in (seed, workers) regardless of scheduling.
//
// A cancelled run returns the mean over the draws actually performed,
// the count of those draws, and ctx.Err().
func EstimateFixed(ctx context.Context, newSampler func() Sampler, n int, seed int64, workers int) (Estimate, error) {
	ests, err := estimateFixed(ctx, run{phase: PhaseFixed, span: "sample:fixed"}, asMulti(newSampler), 1, n, seed, workers)
	return ests[0], err
}

// EstimateFixedMulti draws exactly n shared samples and returns the
// per-target empirical means: every target's estimate is computed from
// the SAME n draws. Workers split the draws as in EstimateFixed, each
// with its own hit-count vector on its own PhaseMultiFixed substream.
//
// A cancelled run returns the per-target means over the draws actually
// performed (Samples records them) and ctx.Err().
func EstimateFixedMulti(ctx context.Context, newSampler func() MultiSampler, nTargets, n int, seed int64, workers int) ([]Estimate, error) {
	return estimateFixed(ctx, run{phase: PhaseMultiFixed, span: "sample:multi-fixed"}, newSampler, nTargets, n, seed, workers)
}

func estimateFixed(ctx context.Context, rn run, newSampler func() MultiSampler, nTargets, n int, seed int64, workers int) ([]Estimate, error) {
	if n <= 0 {
		panic("engine: need a positive sample count")
	}
	rn.targets, rn.seed, rn.workers, rn.budget = nTargets, seed, workers, n
	r := &fixedRule{ests: make([]Estimate, nTargets)}
	for range max(workers, 1) {
		r.out = append(r.out, make([]bool, nTargets))
		r.hits = append(r.hits, make([]int, nTargets))
	}
	acct, err := drive(ctx, rn, newSampler, r)
	return stamp(r.ests, acct), err
}

// fixedRule tallies each worker's per-target hits inside draw; the
// tallies are summed in worker order.
type fixedRule struct {
	quiet
	out  [][]bool // per worker: the current draw's outcome vector
	hits [][]int  // per worker, per target
	ests []Estimate
}

func (r *fixedRule) draw(s MultiSampler, rng *rand.Rand, w, k int) {
	out, hits := r.out[w], r.hits[w]
	for range k {
		s(rng, out, nil)
		for t, hit := range out {
			if hit {
				hits[t]++
			}
		}
	}
}

func (r *fixedRule) counts() []int {
	sum := make([]int, len(r.ests))
	for _, h := range r.hits {
		for t, c := range h {
			sum[t] += c
		}
	}
	return sum
}

func (r *fixedRule) checkpoint(tr *Trace, n int) {
	tr.Checkpoint(int64(n), meanAcrossTargets(r.counts(), n), 0)
}

func (r *fixedRule) finish(tr *Trace, n int, err error) {
	counts := r.counts()
	tr.FinalCheckpoint(int64(n), meanAcrossTargets(counts, n), 0)
	for t, c := range counts {
		r.ests[t] = Estimate{Value: safeDiv(float64(c), n), Samples: n, Converged: err == nil}
	}
}

// meanAcrossTargets is the scalar a fixed-sample checkpoint reports:
// the mean of the per-target running estimates (for one target, its
// running mean).
func meanAcrossTargets(counts []int, n int) float64 {
	if n == 0 || len(counts) == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / (float64(n) * float64(len(counts)))
}

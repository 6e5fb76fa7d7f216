package engine

import (
	"context"
	"math/rand"
)

// CountSampler draws one repair and increments the survival counter of
// every fact it contains — the amortised form of the marginals hot
// path: one draw updates up to len(counts) counters in a single pass,
// so all per-fact estimates share one sample stream. Implementations
// may skip facts that survive every repair (the caller accounts for
// them separately) and must not retain counts across calls.
type CountSampler func(rng *rand.Rand, counts []int)

// Marginals draws n repairs and accumulates per-fact survival counts.
// With workers > 1 the draws are split across goroutines — each with
// its own CountSampler instance (newSampler is called once per worker;
// samplers are typically stateful and not concurrency-safe), its own
// PhaseMarginals substream and its own count vector — and the vectors
// are summed at the end, so the result is deterministic in
// (seed, workers) regardless of scheduling. Because one draw updates
// every undetermined fact's counter, parallel draws speed up all |D|
// marginal estimates at once. The run records a span but no
// convergence curve: its output is a vector, not a scalar.
//
// A cancelled run returns the counts accumulated so far, its
// accounting (acct.Draws is the number of draws the counts represent)
// and ctx.Err(); callers must not divide by n on that path.
func Marginals(ctx context.Context, newSampler func() CountSampler, nFacts, n int, seed int64, workers int) (counts []int, acct Accounting, err error) {
	if n <= 0 {
		panic("engine: need a positive sample count")
	}
	r := &marginalRule{}
	for range max(workers, 1) {
		r.counts = append(r.counts, make([]int, nFacts))
	}
	acct, err = drive(ctx, run{phase: PhaseMarginals, span: "sample:marginals", seed: seed, workers: workers, budget: n}, newSampler, r)
	counts = r.counts[0]
	for _, c := range r.counts[1:] {
		for i, v := range c {
			counts[i] += v
		}
	}
	return counts, acct, err
}

// marginalRule accumulates each worker's draws into its own count
// vector.
type marginalRule struct {
	quiet
	counts [][]int
}

func (r *marginalRule) draw(s CountSampler, rng *rand.Rand, w, k int) {
	for range k {
		s(rng, r.counts[w])
	}
}

package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// EstimateStoppingRule implements the Dagum–Karp–Luby–Ross stopping-
// rule algorithm [8] for Bernoulli variables: sample until the running
// sum of successes reaches Υ₁ = 1 + 4(e−2)(1+ε)·ln(2/δ)/ε², and output
// Υ₁/N. For any true mean μ > 0 it guarantees Pr[|est − μ| ≤ ε·μ] ≥
// 1−δ with E[N] = O(ln(1/δ)/(ε²·μ)) — the "number of samples
// proportional to 1/p" the paper refers to. maxSamples caps the
// consumed draws exactly, at any worker count (0 = no cap; the rule
// does not terminate when μ = 0): on exhaustion the plain mean is
// returned with Converged = false.
//
// With workers > 1 each worker draws Chunk-sized batches from its own
// sampler (newSampler is called once per worker: samplers are
// typically stateful and not safe for concurrent use) and the rule is
// applied to the canonical interleaving — worker 0's batch, then
// worker 1's, and so on — which is a valid i.i.d. stream, stopping
// mid-batch exactly where the sequential rule would on it. Samples
// counts the consumed prefix; Acct.Draws also counts the discarded
// rest of the last round. Deterministic in (seed, workers).
//
// A cancelled run returns the partial mean and ctx.Err().
func EstimateStoppingRule(ctx context.Context, newSampler func() Sampler, eps, delta float64, seed int64, workers, maxSamples int) (Estimate, error) {
	ests, err := estimateStopping(ctx, run{phase: PhaseStoppingRule, span: "sample:stopping-rule"}, asMulti(newSampler), 1, eps, delta, seed, workers, maxSamples)
	return ests[0], err
}

// EstimateStoppingRuleMulti applies the Dagum–Karp–Luby–Ross stopping
// rule to every target over ONE shared i.i.d. draw stream: target t
// stops at the first draw where its running success count reaches Υ₁
// and outputs Υ₁/n_t, exactly the law of EstimateStoppingRule applied
// to t's Bernoulli marginal of the stream — so each estimate carries
// the same (ε, δ) multiplicative guarantee the per-target rule gives,
// while K targets consume max_t n_t draws instead of Σ_t n_t. Draws
// continue until every target has met the rule or maxSamples is
// exhausted (0 = no cap; a zero-probability target never meets the
// rule); targets still open at exhaustion report the plain mean with
// Converged = false. Per-target Samples records the consumed prefix
// length at that target's stopping point. Workers, cancellation and
// determinism are as in EstimateStoppingRule, on PhaseMultiStopping
// substreams.
func EstimateStoppingRuleMulti(ctx context.Context, newSampler func() MultiSampler, nTargets int, eps, delta float64, seed int64, workers, maxSamples int) ([]Estimate, error) {
	return estimateStopping(ctx, run{phase: PhaseMultiStopping, span: "sample:multi-stopping"}, newSampler, nTargets, eps, delta, seed, workers, maxSamples)
}

// Upsilon1 is the stopping rule's threshold for (ε, δ),
// Υ₁ = 1 + 4(e−2)(1+ε)·ln(2/δ)/ε²: a target stops at the draw its
// successes reach Υ₁, and estimates Υ₁/N.
func Upsilon1(eps, delta float64) float64 {
	return 1 + (1+eps)*4*(math.E-2)*math.Log(2/delta)/(eps*eps)
}

// AAThresholds are 𝒜𝒜's thresholds for (ε, δ): upsilon1, the threshold
// of its phase-1 stopping rule at ε' = min(1/2, √ε),
// 1 + 4(e−2)(1+ε')·ln(3/δ)/ε'², and upsilon2 = Υ₂ =
// 2(1+√ε)(1+2√ε)(1+ln(3/2)/ln(3/δ))·Υ with Υ = 4(e−2)·ln(3/δ)/ε², which
// sizes phases 2 and 3.
func AAThresholds(eps, delta float64) (upsilon1, upsilon2 float64) {
	eps1 := math.Min(0.5, math.Sqrt(eps))
	upsilon := 4 * (math.E - 2) * math.Log(3/delta) / (eps * eps)
	upsilon1 = 1 + (1+eps1)*4*(math.E-2)*math.Log(3/delta)/(eps1*eps1)
	upsilon2 = 2 * (1 + math.Sqrt(eps)) * (1 + 2*math.Sqrt(eps)) *
		(1 + math.Log(1.5)/math.Log(3/delta)) * upsilon
	return upsilon1, upsilon2
}

func checkParams(eps, delta float64) {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("engine: invalid parameters eps=%v delta=%v", eps, delta))
	}
}

func estimateStopping(ctx context.Context, rn run, newSampler func() MultiSampler, nTargets int, eps, delta float64, seed int64, workers, maxSamples int) ([]Estimate, error) {
	checkParams(eps, delta)
	if nTargets == 0 {
		return nil, nil
	}
	rn.targets, rn.seed, rn.workers, rn.maxSamples = nTargets, seed, workers, maxSamples
	r := &stopRule{
		single: rn.phase == PhaseStoppingRule,
		eps:    eps, delta: delta,
		upsilon1: Upsilon1(eps, delta),
		sums:     make([]int, nTargets),
		ests:     make([]Estimate, nTargets),
		open:     make([]int, nTargets),
	}
	for t := range r.open {
		r.open[t] = t
	}
	// One flat allocation backs every worker's batch of outcome vectors.
	flat := make([]bool, max(workers, 1)*batchLen(workers)*nTargets)
	for range max(workers, 1) {
		batch := make([][]bool, batchLen(workers))
		for i := range batch {
			batch[i], flat = flat[:nTargets:nTargets], flat[nTargets:]
		}
		r.batch = append(r.batch, batch)
	}
	acct, err := drive(ctx, rn, newSampler, r)
	return stamp(r.ests, acct), err
}

// stopRule tracks the per-target stopping-rule state over one shared
// draw stream.
type stopRule struct {
	// single marks the single-target phase, whose checkpoints report
	// the running mean rather than the fraction of targets stopped.
	single               bool
	eps, delta, upsilon1 float64
	sums                 []int
	ests                 []Estimate
	open                 []int      // targets that have not met the rule, ascending
	batch                [][][]bool // per worker, per slot: the outcome vector
}

// draw evaluates only the still-open targets; closed targets' entries
// go stale, which consume never reads.
func (r *stopRule) draw(s MultiSampler, rng *rand.Rand, w, k int) {
	for _, out := range r.batch[w][:k] {
		s(rng, out, r.open)
	}
}

func (r *stopRule) consume(w, i, n int) bool {
	out := r.batch[w][i]
	kept := r.open[:0]
	for _, t := range r.open {
		if out[t] {
			r.sums[t]++
			if float64(r.sums[t]) >= r.upsilon1 {
				r.ests[t] = Estimate{Value: r.upsilon1 / float64(n), Samples: n, Epsilon: r.eps, Delta: r.delta, Converged: true}
				continue
			}
		}
		kept = append(kept, t)
	}
	r.open = kept
	return len(r.open) == 0
}

// value is the scalar a stopping-rule checkpoint reports: the running
// mean of a single target, or the fraction of targets that have met
// the rule.
func (r *stopRule) value(n int) float64 {
	if r.single {
		return safeDiv(float64(r.sums[0]), n)
	}
	return float64(len(r.ests)-len(r.open)) / float64(len(r.ests))
}

func (r *stopRule) checkpoint(tr *Trace, n int) {
	tr.Checkpoint(int64(n), r.value(n), len(r.open))
}

// finish gives still-open targets the plain mean over the consumed
// prefix (Converged stays false).
func (r *stopRule) finish(tr *Trace, n int, _ error) {
	for _, t := range r.open {
		r.ests[t] = Estimate{Value: safeDiv(float64(r.sums[t]), n), Samples: n, Epsilon: r.eps, Delta: r.delta}
	}
	tr.FinalCheckpoint(int64(n), r.value(n), len(r.open))
}

// EstimateAA runs the full 𝒜𝒜 (approximation algorithm) of Dagum,
// Karp, Luby and Ross, "An Optimal Algorithm for Monte Carlo
// Estimation" [reference 8 of the paper] — the estimator whose
// expected sample count is within a constant factor of optimal for any
// random variable on [0,1]. The stopping rule of EstimateStoppingRule
// is its first phase; the full algorithm adds a variance-estimation
// phase so that low-variance targets (probabilities near 0 or 1) cost
// fewer samples than the plain 1/μ rule.
//
// Phases (for Bernoulli Z with mean μ):
//  1. Stopping rule with ε' = min(1/2, √ε), its threshold at ln(3/δ)
//     → crude estimate μ̂.
//  2. Estimate ρ = max(σ², εμ) with N = Υ₂·ε/μ̂ sample pairs, where
//     Υ₂ = 2(1+√ε)(1+2√ε)(1+ln(3/2)/ln(3/δ))·Υ and
//     Υ = 4(e−2)ln(3/δ)/ε².
//  3. Final estimate with N = Υ₂·ρ̂/μ̂² samples.
//
// AAThresholds computes both thresholds, for this run and the planner.
//
// Guarantee: Pr[|μ̃ − μ| ≤ ε·μ] ≥ 1−δ, with E[N] = O(ρ·ln(1/δ)/(ε²μ²)),
// which for Bernoulli variables is O(ln(1/δ)/(ε²·max(μ, ε))) — a
// factor min(1/ε, 1/μ) better than the plain stopping rule when μ ≫ ε.
//
// The run is serial. maxSamples caps the total draws across all three
// phases (0 = no cap); on exhaustion the current phase's plain mean is
// returned with Converged = false. A cancelled run returns the current
// phase's partial estimate and ctx.Err().
func EstimateAA(ctx context.Context, s Sampler, eps, delta float64, seed int64, maxSamples int) (Estimate, error) {
	checkParams(eps, delta)
	tr := TraceFrom(ctx)
	// Phase 1's span opens here, so even a run cancelled before its
	// first draw records it.
	r := &aaRule{tr: tr, eps: eps, delta: delta, phase: 1, endPhase: tr.StartSpan("aa:phase1")}
	r.upsilon1, r.upsilon2 = AAThresholds(eps, delta)
	acct, err := drive(ctx, run{phase: PhaseAA, span: "sample:aa", seed: seed, maxSamples: maxSamples}, func() Sampler { return s }, r)
	r.est.Acct = acct
	return r.est, err
}

// aaRule is 𝒜𝒜's three-phase state machine over one serial stream.
type aaRule struct {
	quiet
	tr                 *Trace
	eps, delta         float64
	upsilon1, upsilon2 float64
	out                bool
	phase              int
	endPhase           func()
	// k counts the current phase's draws and goal is its length
	// (phase 2 draws goal/2 pairs); sum, mu, s2, first and total are
	// the phases' running statistics.
	k, goal                   int
	sum, mu, s2, first, total float64
	est                       Estimate
}

// draw is only ever asked for one outcome: 𝒜𝒜 runs on one worker.
func (r *aaRule) draw(s Sampler, rng *rand.Rand, _, _ int) { r.out = s(rng) }

func (r *aaRule) enter(phase, goal int) {
	r.endPhase()
	r.phase, r.goal, r.k = phase, max(goal, 1), 0
	r.endPhase = r.tr.StartSpan(fmt.Sprintf("aa:phase%d", phase))
}

func (r *aaRule) consume(_, _, n int) bool {
	x := 0.0
	if r.out {
		x = 1
	}
	r.k++
	switch r.phase {
	case 1:
		r.sum += x
		if r.k%Chunk == 0 {
			r.tr.Checkpoint(int64(n), r.sum/float64(r.k), 1)
		}
		if r.sum >= r.upsilon1 {
			r.mu = r.upsilon1 / float64(r.k)
			r.enter(2, 2*max(1, int(math.Ceil(r.upsilon2*r.eps/r.mu))))
		}
	case 2:
		if r.k%2 == 1 {
			r.first = x
			break
		}
		d := r.first - x
		r.s2 += d * d / 2
		if r.k == r.goal {
			rho := math.Max(r.s2/float64(r.goal/2), r.eps*r.mu)
			r.enter(3, int(math.Ceil(r.upsilon2*rho/(r.mu*r.mu))))
		}
	case 3:
		r.total += x
		if r.k%Chunk == 0 {
			r.tr.Checkpoint(int64(n), r.total/float64(r.k), 1)
		}
		return r.k == r.goal
	}
	return false
}

func (r *aaRule) finish(tr *Trace, n int, _ error) {
	r.endPhase()
	r.est = Estimate{Samples: n, Epsilon: r.eps, Delta: r.delta}
	switch {
	case r.phase == 1:
		r.est.Value = safeDiv(r.sum, r.k)
	case r.phase == 2:
		r.est.Value = r.mu
	case r.k == r.goal:
		r.est.Value, r.est.Converged = r.total/float64(r.goal), true
	case r.k > 0: // phase 3 cut short: the mean of its draws so far
		r.est.Value = r.total / float64(r.k)
	default: // stopped before phase 3's first draw, as if in phase 2
		r.est.Value = r.mu
	}
	open := 1
	if r.est.Converged {
		open = 0
	}
	tr.FinalCheckpoint(int64(n), r.est.Value, open)
}

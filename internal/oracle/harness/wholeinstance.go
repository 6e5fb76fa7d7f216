package harness

import (
	"context"
	"fmt"
	"math/rand"

	ocqa "repro"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/rel"
	"repro/internal/sampler"
)

// The paper's whole-instance M^ur FPRAS (Theorem 5.1(2), Theorem E.1(2)
// for M^{ur,1}) under the Dagum–Karp stopping rule: every draw samples a
// whole candidate repair with Lemma 5.2's block sampler and tests the
// target's witness images against it. Under primary keys the facade
// answers stopping-rule M^ur by block factorization instead, so these
// two helpers are how audit 2 and the -delta suite's cold baseline still
// reach the whole-instance estimator. They return, bit for bit, the
// estimates the facade's stopping rule produced for the cell before
// factorization took it over: same option defaults, same adaptive worker
// resolution, same draw streams.

// WholeInstanceStoppingRule estimates P_{M,Q}(D, c̄) for M = M^ur or
// M^{ur,1} on a primary-key instance. A target with no witness image has
// probability 0 and is answered without drawing.
func WholeInstanceStoppingRule(ctx context.Context, inst *ocqa.Instance, mode core.Mode, q *cq.Query, c cq.Tuple, opts ocqa.ApproxOptions) (ocqa.Estimate, error) {
	opts, workers, bs, err := wholeInstanceSetup(inst, mode, opts)
	if err != nil {
		return ocqa.Estimate{}, err
	}
	endCompile := engine.TraceFrom(ctx).StartSpan("compile")
	ws, ok := inst.Core().TargetImages(q, c, 0)
	endCompile()
	if ok && len(ws) == 0 {
		return ocqa.Estimate{Epsilon: opts.Epsilon, Delta: opts.Delta, Converged: true}, nil
	}
	pred := func(s rel.Subset) bool { return core.Holds(ws, s) }
	if !ok {
		pred = inst.Core().EntailPred(q, c)
	}
	newDraw := func() engine.Sampler {
		return func(rng *rand.Rand) bool { return pred(bs.SampleRepair(rng, mode.Singleton)) }
	}
	est, err := engine.EstimateStoppingRule(ctx, newDraw, opts.Epsilon, opts.Delta, opts.Seed, workers, opts.MaxSamples)
	if err != nil {
		return est, fmt.Errorf("harness: estimation stopped: %w", err)
	}
	return est, nil
}

// WholeInstanceStoppingRuleAnswers is the shared-pass form: every tuple
// of Q(D) is tested against the same stream of whole-repair draws, and
// opts.MaxSamples caps the pass as a whole.
func WholeInstanceStoppingRuleAnswers(ctx context.Context, inst *ocqa.Instance, mode core.Mode, q *cq.Query, opts ocqa.ApproxOptions) ([]ocqa.ApproxAnswer, error) {
	opts, workers, bs, err := wholeInstanceSetup(inst, mode, opts)
	if err != nil {
		return nil, err
	}
	endCompile := engine.TraceFrom(ctx).StartSpan("compile")
	mp := inst.Core().CompileMultiPred(q, 0)
	endCompile()
	tuples := mp.Tuples()
	if len(tuples) == 0 {
		return nil, nil
	}
	newMulti := func() engine.MultiSampler {
		return func(rng *rand.Rand, out []bool, active []int) {
			mp.EvalTargets(bs.SampleRepair(rng, mode.Singleton), out, active)
		}
	}
	ests, err := engine.EstimateStoppingRuleMulti(ctx, newMulti, len(tuples), opts.Epsilon, opts.Delta, opts.Seed, workers, opts.MaxSamples)
	if err != nil {
		return nil, fmt.Errorf("harness: estimation stopped: %w", err)
	}
	out := make([]ocqa.ApproxAnswer, len(tuples))
	for t, tup := range tuples {
		out[t] = ocqa.ApproxAnswer{Tuple: tup, Estimate: ests[t]}
	}
	return out, nil
}

// wholeInstanceSetup resolves the facade's option defaults and its
// adaptive worker count (hinted by the conflict-pair count, floored at 1)
// and builds the block sampler.
func wholeInstanceSetup(inst *ocqa.Instance, mode core.Mode, opts ocqa.ApproxOptions) (ocqa.ApproxOptions, int, *sampler.BlockSampler, error) {
	if mode.Gen != core.UniformRepairs {
		return opts, 0, nil, fmt.Errorf("harness: the whole-instance stopping rule is an M^ur estimator, not %s", mode.Symbol())
	}
	bs, err := sampler.NewBlockSampler(inst.Core())
	if err != nil {
		return opts, 0, nil, err
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.1
	}
	if opts.Delta == 0 {
		opts.Delta = 0.05
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.MaxSamples <= 0 {
		opts.MaxSamples = ocqa.DefaultMaxSamples
	}
	if opts.Workers < 0 {
		opts.Workers = engine.AutoWorkers
	}
	hint := max(len(inst.Core().ConflictPairs()), 1)
	return opts, engine.ResolveWorkers(opts.Workers, hint, int64(opts.MaxSamples)), bs, nil
}

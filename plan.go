package ocqa

// The plan stage of the per-query introspection surface: before any
// sampling happens, PlanApproximate reports which estimation route the
// options select, what the instance's conflict structure looks like,
// and — from the same Chernoff/DKLR bounds the estimators run on — the
// worst-case draw budget the requested (ε, δ) needs. Clients use it
// for "cheapest draws to reach ±ε at δ" budget planning, and the
// server's ?explain=1 reports predicted-vs-actual per response.

import (
	"math"

	"repro/internal/engine"
	"repro/internal/fpras"
)

// Per-run tracing re-exports: a Trace attached to the estimation
// context (ContextWithTrace) collects phase spans and convergence
// checkpoints from the engine's draw loops; see internal/engine.
type (
	// Trace accumulates the spans and convergence curve of one query.
	Trace = engine.Trace
	// TraceSpan is one named phase with offsets on the trace timeline.
	TraceSpan = engine.Span
	// TraceCheckpoint is one convergence observation of a draw loop.
	TraceCheckpoint = engine.Checkpoint
)

var (
	// NewTrace starts an empty trace clocked from now.
	NewTrace = engine.NewTrace
	// ContextWithTrace returns a context carrying the trace; every
	// estimation routed through it records spans and checkpoints.
	ContextWithTrace = engine.ContextWithTrace
)

// Estimation routes a plan can select.
const (
	// RouteExactDP: no sampling — the exact engines answer.
	RouteExactDP = "exact-dp"
	// RouteChernoff: fixed-sample construction on the worst-case bound.
	RouteChernoff = "chernoff"
	// RouteDKLR: the Dagum–Karp–Luby–Ross stopping rule.
	RouteDKLR = "dklr"
	// RouteAA: the full three-phase 𝒜𝒜 optimal estimator.
	RouteAA = "aa"
	// RouteSharedMultiChernoff / RouteSharedMultiDKLR: the shared-draw
	// multi-target pass over every candidate answer tuple.
	RouteSharedMultiChernoff = "shared-multi-chernoff"
	RouteSharedMultiDKLR     = "shared-multi-dklr"
	// RouteCached: the result came from a cache; zero draws.
	RouteCached = "cached"
	// RouteDeltaExact: a stopping-rule M^ur query on a primary-key
	// instance, fresh or derived, whose every cluster of the block
	// decomposition is exactly enumerable — the block-factorized
	// estimator answers exactly, from per-block factors, with zero draws
	// (delta.go).
	RouteDeltaExact = "delta-exact"
	// RouteDeltaStratified: as RouteDeltaExact, but the decomposition has
	// clusters too large to enumerate; they are sampled per stratum, and
	// statistics carried across a mutation are reused, so only changed
	// strata are redrawn.
	RouteDeltaStratified = "delta-stratified"
)

// maxPlanDraws is the sentinel RequiredDraws saturates at when the
// worst-case bound overflows (pmin underflowed to 0, or the bound
// exceeds any representable budget). A required budget at the sentinel
// always reports BudgetCapped.
const maxPlanDraws = int64(1) << 62

// QueryPlan is the routing decision and draw-budget prediction for one
// approximate query, computed before sampling from the same bounds the
// estimators run on.
type QueryPlan struct {
	// Route names the selected estimation path.
	Route string `json:"route"`
	// Targets is the number of probabilities the run estimates (1 for a
	// single-tuple query, the candidate answer count for a shared pass).
	Targets int `json:"targets"`
	// Blocks is the instance's non-singleton conflict block count, -1
	// when no block decomposition exists for the instance.
	Blocks int `json:"blocks"`
	// Epsilon / Delta echo the requested guarantee after defaulting.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// PMin is the paper's worst-case lower bound on positive target
	// probabilities for this (mode, class, ‖Q‖, ‖D‖) — the denominator
	// of every draw bound below. 0 when the bound underflows.
	PMin float64 `json:"pmin"`
	// Upsilon1 is the stopping-rule threshold Υ₁ for the requested
	// (ε, δ): a target of true probability p stops near Υ₁/p draws, the
	// number clients combine with their own probability guess for
	// cheapest-budget planning. 0 on fixed-sample routes.
	Upsilon1 float64 `json:"upsilon1,omitempty"`
	// RequiredDraws is the worst-case draw count the route needs to
	// deliver (ε, δ) for any positive-probability target: the Chernoff
	// sample count, or ⌈Υ-bound/pmin⌉ for the adaptive routes.
	// Saturates at the 1<<62 sentinel on overflow.
	RequiredDraws int64 `json:"required_draws"`
	// PredictedDraws is RequiredDraws clamped to the run's MaxSamples
	// cap — what this instance will actually spend in the worst case.
	// Adaptive routes typically stop far earlier (near Υ₁/p); a
	// zero-probability target can never meet the stopping rule and
	// always burns the full cap.
	PredictedDraws int64 `json:"predicted_draws"`
	// MaxSamples is the resolved draw cap the prediction was clamped
	// against (0 on fixed-sample routes, which ignore the cap).
	MaxSamples int `json:"max_samples,omitempty"`
	// BudgetCapped reports that RequiredDraws exceeds MaxSamples: the
	// requested (ε, δ) is not guaranteed reachable under this
	// instance's cap, and a non-converged estimate is possible.
	BudgetCapped bool `json:"budget_capped"`
	// Cached is set by serving layers when the response came from a
	// result cache and the plan is the zero-draw RouteCached marker.
	Cached bool `json:"cached,omitempty"`
}

// upsilon1For is the DKLR stopping-rule threshold the engine runs on.
func upsilon1For(eps, delta float64) float64 {
	return 1 + (1+eps)*4*(math.E-2)*math.Log(2/delta)/(eps*eps)
}

// saturatingDraws converts a float worst-case bound to int64, clamping
// non-finite or oversized values to the maxPlanDraws sentinel.
func saturatingDraws(n float64) int64 {
	if !(n > 0) || math.IsInf(n, 0) || n >= float64(maxPlanDraws) {
		return maxPlanDraws
	}
	return int64(math.Ceil(n))
}

// mulSaturating multiplies two positive draw counts, saturating at the
// sentinel.
func mulSaturating(a, b int64) int64 {
	if a > 0 && b > 0 && a > maxPlanDraws/b {
		return maxPlanDraws
	}
	return a * b
}

// PlanApproximate computes the plan for the approximate query the same
// options would run: the route Approximate/ApproximateAnswers selects,
// the worst-case draw budget for the requested (ε, δ), and whether the
// run's MaxSamples cap truncates that budget (BudgetCapped — the
// request is then not guaranteed reachable). single selects the
// single-tuple path (a candidate tuple or a Boolean query) versus the
// shared multi-target answers pass. The same approximability matrix is
// enforced as on the execution paths.
func (in *Instance) PlanApproximate(mode Mode, q *Query, single bool, opts ApproxOptions) (QueryPlan, error) {
	opts.fill()
	if err := in.checkApproximable(mode, opts.Force); err != nil {
		return QueryPlan{}, err
	}
	plan := QueryPlan{
		Targets: 1,
		Blocks:  -1,
		Epsilon: opts.Epsilon,
		Delta:   opts.Delta,
		PMin:    in.worstCaseLowerBound(mode, q),
	}
	if bs := in.blockSampler(); bs != nil {
		plan.Blocks = len(bs.Blocks())
	}
	if !single {
		// The shared pass estimates every candidate answer tuple; the
		// compiled target count comes from the same per-fingerprint
		// cache the execution path reads, so planning a query warms the
		// compile the run then reuses.
		plan.Targets = len(in.multiPred(q).Tuples())
	}

	switch {
	case opts.UseChernoff:
		plan.Route = RouteChernoff
		if !single {
			plan.Route = RouteSharedMultiChernoff
		}
		if plan.PMin <= 0 {
			// The execution path refuses this combination ("worst-case
			// lower bound underflows"); the plan reports the saturated
			// budget so the client sees why.
			plan.RequiredDraws = maxPlanDraws
			plan.PredictedDraws = maxPlanDraws
			plan.BudgetCapped = true
			return plan, nil
		}
		raw := 3 * math.Log(2/opts.Delta) / (opts.Epsilon * opts.Epsilon * plan.PMin)
		plan.RequiredDraws = saturatingDraws(raw)
		// The fixed-sample construction ignores MaxSamples; predicted
		// draws are exactly the Chernoff count the run will perform
		// (saturating only at the int32 cap ChernoffSamples itself has).
		plan.PredictedDraws = int64(fpras.ChernoffSamples(opts.Epsilon, opts.Delta, plan.PMin))
		plan.BudgetCapped = plan.RequiredDraws > plan.PredictedDraws
		return plan, nil
	case opts.UseAA:
		plan.Route = RouteAA
		plan.MaxSamples = opts.MaxSamples
		// 𝒜𝒜's high-probability worst case over positive targets: phase 1
		// is a stopping rule at ε' = min(1/2, √ε) with δ/3 (≈ Υ₁'/μ
		// draws; 2× margin), phase 2 spends 2·⌈Υ₂ε/μ̂⌉ with μ̂ ≥ μ/2
		// w.h.p. (≤ 4Υ₂ε/pmin), and phase 3 Υ₂·ρ̂/μ̂² ≤ 8Υ₂/pmin for
		// Bernoulli targets (σ² ≤ μ, μ̂² ≥ μ²/4).
		eps1 := math.Min(0.5, math.Sqrt(opts.Epsilon))
		ups1 := 1 + (1+eps1)*4*(math.E-2)*math.Log(3/opts.Delta)/(eps1*eps1)
		ups := 4 * (math.E - 2) * math.Log(3/opts.Delta) / (opts.Epsilon * opts.Epsilon)
		ups2 := 2 * (1 + math.Sqrt(opts.Epsilon)) * (1 + 2*math.Sqrt(opts.Epsilon)) *
			(1 + math.Log(1.5)/math.Log(3/opts.Delta)) * ups
		plan.Upsilon1 = ups1
		if plan.PMin <= 0 {
			plan.RequiredDraws = maxPlanDraws
		} else {
			plan.RequiredDraws = saturatingDraws((2*ups1 + 4*ups2*opts.Epsilon + 8*ups2) / plan.PMin)
		}
		// With answer variables, 𝒜𝒜 keeps the per-tuple loop: Targets
		// independent estimations, each under its own MaxSamples cap.
		if plan.Targets > 1 {
			perTarget := plan.RequiredDraws
			plan.RequiredDraws = mulSaturating(perTarget, int64(plan.Targets))
			if plan.MaxSamples > 0 && perTarget > int64(plan.MaxSamples) {
				plan.PredictedDraws = mulSaturating(int64(plan.MaxSamples), int64(plan.Targets))
				plan.BudgetCapped = true
			} else {
				plan.PredictedDraws = plan.RequiredDraws
			}
			return plan, nil
		}
	default:
		if strata, ok := in.deltaPlanRoute(mode, q, opts); ok {
			// The block-factorized estimator will answer (see
			// Instance.Approximate): delta-exact computes per-block factors
			// with zero draws; delta-stratified draws at most the strata
			// without reusable statistics, each under a (ε/S, δ/S)
			// stopping rule.
			if strata == 0 {
				plan.Route = RouteDeltaExact
				return plan, nil
			}
			plan.Route = RouteDeltaStratified
			plan.MaxSamples = opts.MaxSamples
			plan.Upsilon1 = upsilon1For(opts.Epsilon/float64(strata), opts.Delta/float64(strata))
			// Coarse worst case across the S strata; warm runs that
			// reuse carried statistics stop far below it.
			if plan.PMin <= 0 {
				plan.RequiredDraws = maxPlanDraws
			} else {
				plan.RequiredDraws = mulSaturating(saturatingDraws(plan.Upsilon1/plan.PMin), int64(strata))
			}
			break
		}
		plan.Route = RouteDKLR
		if !single {
			plan.Route = RouteSharedMultiDKLR
		}
		plan.MaxSamples = opts.MaxSamples
		plan.Upsilon1 = upsilon1For(opts.Epsilon, opts.Delta)
		// Worst case for any positive target: the rule stops within
		// ~Υ₁/p draws, and the FPRAS cells guarantee p ≥ pmin. The
		// shared multi pass stops when its slowest target does, so the
		// same per-target bound covers all of them.
		if plan.PMin <= 0 {
			plan.RequiredDraws = maxPlanDraws
		} else {
			plan.RequiredDraws = saturatingDraws(plan.Upsilon1 / plan.PMin)
		}
	}
	// The adaptive routes respect the MaxSamples cap: predicted draws
	// are the required budget clamped to it, and BudgetCapped flags a
	// requested (ε, δ) the cap cannot guarantee — the planner must not
	// silently under-deliver.
	plan.PredictedDraws = plan.RequiredDraws
	if plan.MaxSamples > 0 && plan.RequiredDraws > int64(plan.MaxSamples) {
		plan.PredictedDraws = int64(plan.MaxSamples)
		plan.BudgetCapped = true
	}
	return plan, nil
}

// PlanExact is the plan of an exact-mode query: no sampling, no draw
// budget — the DP/enumeration engines answer.
func PlanExact(targets int) QueryPlan {
	return QueryPlan{Route: RouteExactDP, Targets: targets, Blocks: -1}
}

// CachedPlan is the plan serving layers attach to a cache hit: the
// zero-draw RouteCached marker.
func CachedPlan() QueryPlan {
	return QueryPlan{Route: RouteCached, Blocks: -1, Cached: true}
}

package ocqa_test

// Plan-envelope gate: the draw budgets PlanApproximate predicts must
// actually bound what the estimators spend, across fixed-seed random
// scenarios from the oracle harness's own workload generator. The
// envelope per route:
//
//   - Chernoff: fixed-sample — actual draws equal PredictedDraws
//     exactly (the run performs precisely the Chernoff count).
//   - DKLR / shared-multi: a positive converged target stops within
//     RequiredDraws; the parallel driver overshoots by at most one
//     round (workers × Chunk, discarded tail included). A capped or
//     zero-probability run never exceeds MaxSamples plus the same
//     round slack.
//   - 𝒜𝒜: same cap logic against its three-phase worst case.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	ocqa "repro"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/sampler"
	"repro/internal/workload"
)

// roundSlack is the parallel drivers' per-round overshoot: one batch
// of Chunk draws per worker.
func roundSlack(workers int) int64 { return int64(workers) * engine.Chunk }

func TestPlanEnvelopeOnScenarios(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	checked := 0
	for i := 0; i < 40; i++ {
		sc := workload.RandomScenario(rng, workload.ScenarioSpec{Class: fd.PrimaryKeys, AnswerVars: i%2 == 0})
		p := ocqa.NewInstance(sc.DB, sc.Sigma).Prepare()
		for _, workers := range []int{1, 4} {
			for _, route := range []string{"dklr", "chernoff", "aa", "dklr-us"} {
				mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
				// A modest cap keeps zero-probability targets (which
				// always burn the full cap) cheap for the test.
				opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: int64(100 + i), Workers: workers, MaxSamples: 200_000}
				switch route {
				case "chernoff":
					opts.UseChernoff = true
				case "aa":
					opts.UseAA = true
					if workers > 1 {
						continue // 𝒜𝒜 is single-worker
					}
				case "dklr-us":
					// On a Prepared, M^ur's default route factorizes; M^us
					// keeps the classic DKLR route covered, under a cap its
					// O(‖D‖) draws afford.
					mode.Gen = ocqa.UniformSequences
					opts.MaxSamples = 20_000
				}
				single := len(sc.Query.AnswerVars) == 0
				plan, err := p.PlanApproximate(mode, sc.Query, nil, single, opts)
				if err != nil {
					t.Fatalf("scenario %d: plan: %v", i, err)
				}
				var acct ocqa.Accounting
				var zeroEstimate, converged bool
				if single {
					est, aerr := p.Approximate(ctx, mode, sc.Query, nil, opts)
					if aerr != nil {
						t.Fatalf("scenario %d %s: %v", i, route, aerr)
					}
					acct, zeroEstimate, converged = est.Acct, est.Value == 0, est.Converged
				} else {
					answers, a, aerr := p.ApproximateAnswersAcct(ctx, mode, sc.Query, opts)
					if aerr != nil {
						t.Fatalf("scenario %d %s: %v", i, route, aerr)
					}
					if len(answers) == 0 {
						continue
					}
					if plan.Targets != len(answers) {
						t.Fatalf("scenario %d %s: plan.Targets=%d, got %d answers", i, route, plan.Targets, len(answers))
					}
					acct, zeroEstimate, converged = a, true, true
					for _, ans := range answers {
						zeroEstimate = zeroEstimate && ans.Estimate.Value == 0
						converged = converged && ans.Estimate.Converged
					}
				}
				checked++
				slack := roundSlack(workers)
				switch {
				case route == "chernoff":
					if acct.Draws != plan.PredictedDraws {
						t.Fatalf("scenario %d chernoff(%dw): actual draws %d != predicted %d",
							i, workers, acct.Draws, plan.PredictedDraws)
					}
				case plan.BudgetCapped || zeroEstimate || !converged:
					// The cap (or an unreachable stopping rule) bounds the
					// spend at MaxSamples — per tuple on the 𝒜𝒜 per-tuple
					// loop, shared otherwise.
					capDraws := int64(plan.MaxSamples)
					if route == "aa" {
						capDraws *= int64(plan.Targets)
					}
					if capDraws < plan.PredictedDraws {
						capDraws = plan.PredictedDraws
					}
					if acct.Draws > capDraws+slack {
						t.Fatalf("scenario %d %s(%dw): capped run drew %d > cap %d (+%d slack)",
							i, route, workers, acct.Draws, capDraws, slack)
					}
				default:
					if acct.Draws > plan.RequiredDraws+slack {
						t.Fatalf("scenario %d %s(%dw): drew %d > required %d (+%d slack); plan %+v",
							i, route, workers, acct.Draws, plan.RequiredDraws, slack, plan)
					}
					if plan.PredictedDraws > plan.RequiredDraws {
						t.Fatalf("scenario %d %s: predicted %d exceeds required %d",
							i, route, plan.PredictedDraws, plan.RequiredDraws)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no scenarios exercised")
	}
}

// TestPlanIsTheRunsRoute: the plan and the run read one routing
// decision. Over the random primary-key scenarios of the envelope gate,
// for M^ur and M^{ur,1}, single-tuple calls (a candidate, an absent
// tuple, a tuple of the wrong arity) and the answers pass, with or
// without candidates, under the stopping rule, UseAA and UseChernoff: a
// delta-* plan route holds exactly when the run's trace has a
// delta-refresh span, one per call, a delta-exact plan means the run
// drew nothing, and a delta-stratified one that it drew or reused
// draws.
func TestPlanIsTheRunsRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	routes := map[string]int{}
	for i := 0; i < 24; i++ {
		sc := workload.RandomScenario(rng, workload.ScenarioSpec{Class: fd.PrimaryKeys, AnswerVars: i%2 == 0})
		p := ocqa.NewInstance(sc.DB, sc.Sigma)
		n := len(sc.Query.AnswerVars)
		absent, wrongArity := make(ocqa.Tuple, n), make(ocqa.Tuple, n+1)
		for j := range wrongArity {
			wrongArity[j] = "absent"
		}
		copy(absent, wrongArity)
		singles := []ocqa.Tuple{absent, wrongArity}
		if ans := sc.Query.Answers(sc.DB); len(ans) > 0 {
			singles = append(singles, ans[0])
		}
		for _, singleton := range []bool{false, true} {
			mode := ocqa.Mode{Gen: ocqa.UniformRepairs, Singleton: singleton}
			for _, estimator := range []string{"default", "aa", "chernoff"} {
				opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: int64(100 + i), Workers: 1, MaxSamples: 50_000,
					UseAA: estimator == "aa", UseChernoff: estimator == "chernoff"}
				check := func(call string, plan ocqa.QueryPlan, tr *ocqa.Trace, acct ocqa.Accounting) {
					t.Helper()
					refreshes, want := 0, 0
					for _, sp := range tr.Spans() {
						if sp.Name == "delta-refresh" {
							refreshes++
						}
					}
					if strings.HasPrefix(plan.Route, "delta-") {
						want = 1
					}
					if refreshes != want {
						t.Fatalf("scenario %d %s %s %s: plan route %q, run recorded %d delta-refresh spans, want %d",
							i, mode.Symbol(), estimator, call, plan.Route, refreshes, want)
					}
					if sampled := acct.Draws+acct.ReusedDraws > 0; plan.Route == ocqa.RouteDeltaExact && sampled ||
						plan.Route == ocqa.RouteDeltaStratified && !sampled {
						t.Fatalf("scenario %d %s %s %s: plan route %q, run drew %d and reused %d",
							i, mode.Symbol(), estimator, call, plan.Route, acct.Draws, acct.ReusedDraws)
					}
					routes[plan.Route]++
				}
				for _, c := range singles {
					plan, err := p.PlanApproximate(mode, sc.Query, c, true, opts)
					if err != nil {
						t.Fatal(err)
					}
					tr := ocqa.NewTrace()
					est, err := p.Approximate(ocqa.ContextWithTrace(context.Background(), tr), mode, sc.Query, c, opts)
					if err != nil {
						t.Fatalf("scenario %d %s %s %v: %v", i, mode.Symbol(), estimator, c, err)
					}
					check(fmt.Sprintf("tuple %v", c), plan, tr, est.Acct)
				}
				plan, err := p.PlanApproximate(mode, sc.Query, nil, false, opts)
				if err != nil {
					t.Fatal(err)
				}
				tr := ocqa.NewTrace()
				_, acct, err := p.ApproximateAnswersAcct(ocqa.ContextWithTrace(context.Background(), tr), mode, sc.Query, opts)
				if err != nil {
					t.Fatalf("scenario %d %s %s answers: %v", i, mode.Symbol(), estimator, err)
				}
				check("answers", plan, tr, acct)
			}
		}
	}
	for _, r := range []string{ocqa.RouteDeltaExact, ocqa.RouteAA, ocqa.RouteChernoff, ocqa.RouteSharedMultiChernoff} {
		if routes[r] == 0 {
			t.Errorf("no call planned route %q; routes seen %v", r, routes)
		}
	}
	t.Logf("routes checked: %v", routes)
}

// TestPlanSingleTupleReadsOnlyItsTarget: a single-tuple plan decides on
// that tuple's decomposition alone. Tuple a's witness needs one fact of a
// 2-fact block (probability 1/3); tuple b couples two 64-fact blocks into
// 65×65 outcomes, past the enumeration cap. The plan for a is
// delta-exact with no predicted draws, and the run answers a exactly
// with none; b's plan, and the answers plan, stay stratified.
func TestPlanSingleTupleReadsOnlyItsTarget(t *testing.T) {
	facts := "R(a,x1)\nR(a,x2)\nU(a,x1)\n"
	for i := 0; i < 64; i++ {
		facts += fmt.Sprintf("R(b,r%d)\nU(b,r%d)\n", i, i)
	}
	p := mustInstance(t, facts, "R: A1 -> A2\nU: A1 -> A2")
	q := mustQuery(t, "Ans(t) :- R(t, x), U(t, x)")
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 3}
	a := ocqa.Tuple{"a"}
	plan, err := p.PlanApproximate(mode, q, a, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Route != ocqa.RouteDeltaExact || plan.PredictedDraws != 0 {
		t.Fatalf("plan for a: route %q, %d predicted draws; want %q with none", plan.Route, plan.PredictedDraws, ocqa.RouteDeltaExact)
	}
	before := engine.SamplesDrawn.Value()
	est, err := p.Approximate(context.Background(), mode, q, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if drawn := engine.SamplesDrawn.Value() - before; drawn != 0 || est.Acct.Draws != 0 || math.Abs(est.Value-1.0/3) > 1e-12 {
		t.Fatalf("run for a: value %v, %d draws (%d reported); want 1/3 with none", est.Value, drawn, est.Acct.Draws)
	}
	for _, c := range []struct {
		tuple  ocqa.Tuple
		single bool
	}{{ocqa.Tuple{"b"}, true}, {nil, false}} {
		if plan, err = p.PlanApproximate(mode, q, c.tuple, c.single, opts); err != nil {
			t.Fatal(err)
		}
		if plan.Route != ocqa.RouteDeltaStratified {
			t.Fatalf("plan for %v (single %v): route %q, want %q", c.tuple, c.single, plan.Route, ocqa.RouteDeltaStratified)
		}
	}
}

// TestPlanBudgetCapped: a request whose worst-case budget exceeds
// MaxSamples must flag budget_capped instead of silently
// under-delivering — and the clamped prediction must equal the cap. It
// plans M^us, which samples on a Prepared (M^ur factorizes there).
func TestPlanBudgetCapped(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText("R(a,b)\nR(a,c)\nR(d,e)", "R: A1 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	p := inst.Prepare()
	q, err := ocqa.ParseQuery("Ans() :- R(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	mode := ocqa.Mode{Gen: ocqa.UniformSequences}

	tight := ocqa.ApproxOptions{Epsilon: 0.05, Delta: 0.01, MaxSamples: 100}
	plan, err := p.PlanApproximate(mode, q, ocqa.Tuple{}, true, tight)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.BudgetCapped {
		t.Fatalf("plan with 100-draw cap for (0.05, 0.01) not flagged capped: %+v", plan)
	}
	if plan.PredictedDraws != 100 {
		t.Fatalf("capped prediction = %d, want the 100-draw cap", plan.PredictedDraws)
	}
	if plan.RequiredDraws <= plan.PredictedDraws {
		t.Fatalf("required %d should exceed the clamped prediction %d", plan.RequiredDraws, plan.PredictedDraws)
	}

	roomy := ocqa.ApproxOptions{Epsilon: 0.4, Delta: 0.3, MaxSamples: ocqa.DefaultMaxSamples}
	plan, err = p.PlanApproximate(mode, q, ocqa.Tuple{}, true, roomy)
	if err != nil {
		t.Fatal(err)
	}
	if plan.BudgetCapped {
		t.Fatalf("loose request flagged capped: %+v", plan)
	}
	if plan.PredictedDraws != plan.RequiredDraws {
		t.Fatalf("uncapped prediction %d != required %d", plan.PredictedDraws, plan.RequiredDraws)
	}
	if plan.Route != ocqa.RouteDKLR {
		t.Fatalf("default route = %q, want %q", plan.Route, ocqa.RouteDKLR)
	}
	if plan.Blocks != 1 {
		t.Fatalf("plan.Blocks = %d, want 1 non-singleton block", plan.Blocks)
	}
}

// TestPlanRefusesLikeExecution: the plan enforces the approximability
// matrix exactly like the execution path.
func TestPlanRefusesLikeExecution(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText("R(a,b,c)\nR(a,c,c)\nR(d,b,c)", "R: A1 -> A2\nR: A2 -> A3")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ocqa.ParseQuery("Ans() :- R(x, y, z)")
	if err != nil {
		t.Fatal(err)
	}
	// M^ur over general FDs has no FPRAS (Theorem 5.1(3)).
	_, err = inst.Prepare().PlanApproximate(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{}, true, ocqa.ApproxOptions{})
	if err == nil {
		t.Fatal("plan for a refused pair did not error")
	}
}

// TestPlanBuildsNoBlockDecomposition: planning reports the block count
// only once the decomposition exists and never builds it itself. An
// ApplyInsert-derived primary-key instance has none until something
// samples blocks, and the factorized M^ur route never does.
func TestPlanBuildsNoBlockDecomposition(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText("R(a,b)\nR(a,c)\nR(d,e)", "R: A1 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	f, err := ocqa.ParseFact("R(d,f)")
	if err != nil {
		t.Fatal(err)
	}
	derived, _, err := inst.Prepare().ApplyInsert(f)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ocqa.ParseQuery("Ans() :- R(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	before := sampler.Constructions.Value()
	plan, err := derived.PlanApproximate(mode, q, ocqa.Tuple{}, true, ocqa.ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := sampler.Constructions.Value() - before; n != 0 {
		t.Fatalf("planning built %d samplers, want 0", n)
	}
	if plan.Blocks != -1 {
		t.Fatalf("plan.Blocks = %d before the decomposition is built, want -1", plan.Blocks)
	}
	if plan, err = derived.Prepare().PlanApproximate(mode, q, ocqa.Tuple{}, true, ocqa.ApproxOptions{}); err != nil {
		t.Fatal(err)
	}
	if plan.Blocks != 2 {
		t.Fatalf("plan.Blocks = %d once built, want 2", plan.Blocks)
	}
}

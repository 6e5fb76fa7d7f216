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
	"math/rand"
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
				plan, err := p.PlanApproximate(mode, sc.Query, single, opts)
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
	plan, err := p.PlanApproximate(mode, q, true, tight)
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
	plan, err = p.PlanApproximate(mode, q, true, roomy)
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
	_, err = inst.Prepare().PlanApproximate(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, true, ocqa.ApproxOptions{})
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
	plan, err := derived.PlanApproximate(mode, q, true, ocqa.ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := sampler.Constructions.Value() - before; n != 0 {
		t.Fatalf("planning built %d samplers, want 0", n)
	}
	if plan.Blocks != -1 {
		t.Fatalf("plan.Blocks = %d before the decomposition is built, want -1", plan.Blocks)
	}
	if plan, err = derived.Prepare().PlanApproximate(mode, q, true, ocqa.ApproxOptions{}); err != nil {
		t.Fatal(err)
	}
	if plan.Blocks != 2 {
		t.Fatalf("plan.Blocks = %d once built, want 2", plan.Blocks)
	}
}

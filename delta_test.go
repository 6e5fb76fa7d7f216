package ocqa_test

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"strings"
	"sync"
	"testing"

	ocqa "repro"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/rel"
)

// deltaModes are the generator modes the delta engine serves.
var deltaModes = []ocqa.Mode{
	{Gen: ocqa.UniformRepairs},
	{Gen: ocqa.UniformRepairs, Singleton: true},
}

func mustQuery(t *testing.T, s string) *ocqa.Query {
	t.Helper()
	q, err := ocqa.ParseQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestDeltaExactMatchesCore checks that the delta engine's factorized
// exact probabilities are big.Rat-identical to the core enumeration
// engines across witness shapes: certain (all-fixed witness),
// impossible (two facts of one block), single-block, and multi-block
// coupled clusters.
func TestDeltaExactMatchesCore(t *testing.T) {
	inst := mustInstance(t,
		"Emp(1,Alice)\nEmp(1,Tom)\nEmp(1,Bob)\nEmp(2,Bob)\nEmp(3,Carol)\nEmp(3,Dan)",
		"Emp: A1 -> A2")
	p := inst.Prepare()
	queries := []struct {
		q     string
		tuple ocqa.Tuple
	}{
		{"Ans() :- Emp(x, 'Bob')", ocqa.Tuple{}},                      // certain: Emp(2,Bob) is fixed
		{"Ans() :- Emp('1', x), Emp('3', y)", ocqa.Tuple{}},           // coupled blocks 1 and 3
		{"Ans() :- Emp('1', 'Alice'), Emp('1', 'Tom')", ocqa.Tuple{}}, // impossible
		{"Ans(n) :- Emp(i, n)", ocqa.Tuple{"Tom"}},
		{"Ans(n) :- Emp(i, n)", ocqa.Tuple{"Bob"}},
		{"Ans(n) :- Emp(i, n)", ocqa.Tuple{"Nobody"}}, // absent tuple
	}
	for _, mode := range deltaModes {
		for _, tc := range queries {
			q := mustQuery(t, tc.q)
			got, err := p.ExactProbability(mode, q, tc.tuple, 0)
			if err != nil {
				t.Fatalf("%s %s delta: %v", mode.Symbol(), tc.q, err)
			}
			want, err := inst.Core().ExactProbability(mode, q, tc.tuple, 0)
			if err != nil {
				t.Fatalf("%s %s core: %v", mode.Symbol(), tc.q, err)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("%s %s @%v: delta %v, core %v", mode.Symbol(), tc.q, tc.tuple, got, want)
			}
		}
	}
}

// TestDeltaConsistentAnswersMatchesCore checks the delta exact answers
// pass against the core shared pass — including zero-probability
// candidates, which must be listed with probability 0, in the same
// sorted order.
func TestDeltaConsistentAnswersMatchesCore(t *testing.T) {
	inst := mustInstance(t,
		"R(a,x)\nR(a,y)\nR(b,x)\nR(b,z)\nR(c,w)",
		"R: A1 -> A2")
	p := inst.Prepare()
	q := mustQuery(t, "Ans(v) :- R(k, v)")
	for _, mode := range deltaModes {
		got, err := p.ConsistentAnswers(mode, q, 0)
		if err != nil {
			t.Fatalf("%s delta: %v", mode.Symbol(), err)
		}
		want, err := inst.Core().ConsistentAnswers(mode, q, 0)
		if err != nil {
			t.Fatalf("%s core: %v", mode.Symbol(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: delta %d answers, core %d", mode.Symbol(), len(got), len(want))
		}
		for i := range got {
			if got[i].Tuple.Key() != want[i].Tuple.Key() || got[i].Prob.Cmp(want[i].Prob) != 0 {
				t.Errorf("%s answer %d: delta (%v, %v), core (%v, %v)",
					mode.Symbol(), i, got[i].Tuple, got[i].Prob, want[i].Tuple, want[i].Prob)
			}
		}
	}
}

// TestDeltaExactAcrossMutations drives a Prepared lineage through a
// scripted mix of ApplyInsert/ApplyDelete — growing blocks, shrinking
// blocks, making facts fixed and unfixed, closing a symmetric pair whose
// one image witnesses two answer tuples — and checks after every step
// that the delta-refreshed exact results equal a from-scratch core
// recomputation, big.Rat for big.Rat.
func TestDeltaExactAcrossMutations(t *testing.T) {
	inst := mustInstance(t,
		"R(a,x)\nR(a,y)\nR(b,x)\nR(c,u)",
		"R: A1 -> A2")
	p := inst.Prepare()
	queries := []*ocqa.Query{
		mustQuery(t, "Ans() :- R(k, 'x')"),
		mustQuery(t, "Ans(v) :- R(k, v)"),
		mustQuery(t, "Ans() :- R('a', v), R('b', w)"),
		mustQuery(t, "Ans(x, y) :- R(x, y), R(y, x)"),
	}
	// Warm the delta state for every fingerprint before mutating.
	for _, q := range queries {
		for _, mode := range deltaModes {
			if _, err := p.ExactProbability(mode, q, make(ocqa.Tuple, len(q.AnswerVars)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	type step struct {
		insert string // fact text, or ""
		delete int    // index, when insert == ""
	}
	steps := []step{
		{insert: "R(b,v)"}, // grow block b to 2
		{insert: "R(c,t)"}, // unfix c: block c becomes size 2
		{delete: 0},        // shrink block a: R(a,x) gone
		{insert: "R(a,z)"}, // regrow block a
		{insert: "R(d,q)"}, // fresh singleton block
		{delete: 2},        // indices shifted; exercise remap
		{insert: "R(a,b)"}, // half of a symmetric pair
		{insert: "R(b,a)"}, // close it: {R(a,b), R(b,a)} witnesses (a,b) and (b,a)
	}
	for si, st := range steps {
		var err error
		if st.insert != "" {
			f, ferr := ocqa.ParseFact(st.insert)
			if ferr != nil {
				t.Fatal(ferr)
			}
			p, _, err = p.ApplyInsert(f)
		} else {
			p, err = p.ApplyDelete(st.delete)
		}
		if err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		fresh := ocqa.NewInstance(p.DB(), p.Sigma())
		for _, q := range queries {
			for _, mode := range deltaModes {
				got, err := p.ConsistentAnswers(mode, q, 0)
				if err != nil {
					t.Fatalf("step %d %s %v delta: %v", si, mode.Symbol(), q, err)
				}
				want, err := fresh.Core().ConsistentAnswers(mode, q, 0)
				if err != nil {
					t.Fatalf("step %d %s %v core: %v", si, mode.Symbol(), q, err)
				}
				if len(got) != len(want) {
					t.Fatalf("step %d %s %v: delta answers %v, core %v",
						si, mode.Symbol(), q, answerTuples(got), answerTuples(want))
				}
				for i := range got {
					if got[i].Tuple.Key() != want[i].Tuple.Key() || got[i].Prob.Cmp(want[i].Prob) != 0 {
						t.Errorf("step %d %s %v answer %d: delta (%v, %v), core (%v, %v)",
							si, mode.Symbol(), q, i, got[i].Tuple, got[i].Prob, want[i].Tuple, want[i].Prob)
					}
				}
			}
		}
	}
}

func answerTuples(as []ocqa.ConsistentAnswer) []ocqa.Tuple {
	out := make([]ocqa.Tuple, len(as))
	for i, a := range as {
		out[i] = a.Tuple
	}
	return out
}

// stratifiedFixture builds an instance with two 64-fact blocks and a
// query coupling them into one cluster whose outcome product (65²)
// exceeds the exact enumeration cap — the minimal sampled-stratum
// workload.
func stratifiedFixture(t *testing.T) (*ocqa.Prepared, *ocqa.Query) {
	t.Helper()
	facts := ""
	for b := 0; b < 2; b++ {
		for i := 0; i < 64; i++ {
			facts += fmt.Sprintf("R(b%d,v%d)\n", b, i)
		}
	}
	inst := mustInstance(t, facts, "R: A1 -> A2")
	return inst.Prepare(), mustQuery(t, "Ans() :- R('b0', x), R('b1', y)")
}

// TestDeltaStratifiedReuse checks the stratified path end to end: a
// warm generation draws its stratum fresh, a repeat query reuses the
// carried statistics (zero fresh draws, identical value), an unrelated
// mutation keeps reusing them, and a mutation into a coupled block
// invalidates the stratum's signature and forces a redraw. Estimates
// must stay inside the (ε, δ) envelope of the known exact probability
// throughout.
func TestDeltaStratifiedReuse(t *testing.T) {
	p, q := stratifiedFixture(t)
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 7}
	ctx := context.Background()

	// Warm the lineage with an unrelated insert.
	f, _ := ocqa.ParseFact("R(zz,w)")
	p, _, err := p.ApplyInsert(f)
	if err != nil {
		t.Fatal(err)
	}
	est1, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est1.Acct.Draws == 0 || est1.Acct.ReusedDraws != 0 {
		t.Fatalf("first warm call: draws=%d reused=%d, want fresh draws only",
			est1.Acct.Draws, est1.Acct.ReusedDraws)
	}
	pExact := (64.0 / 65.0) * (64.0 / 65.0)
	if math.Abs(est1.Value-pExact) > opts.Epsilon*pExact {
		t.Fatalf("estimate %v outside ε-envelope of %v", est1.Value, pExact)
	}

	// Repeat on the same generation: the stratum is reused verbatim.
	est2, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est2.Acct.Draws != 0 || est2.Acct.ReusedDraws != est1.Acct.Draws {
		t.Fatalf("repeat call: draws=%d reused=%d, want 0 fresh and %d reused",
			est2.Acct.Draws, est2.Acct.ReusedDraws, est1.Acct.Draws)
	}
	if est2.Value != est1.Value {
		t.Fatalf("repeat call changed value: %v -> %v", est1.Value, est2.Value)
	}

	// An unrelated mutation leaves the stratum signature untouched.
	f2, _ := ocqa.ParseFact("R(yy,w)")
	p, _, err = p.ApplyInsert(f2)
	if err != nil {
		t.Fatal(err)
	}
	est3, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est3.Acct.Draws != 0 || est3.Acct.ReusedDraws == 0 {
		t.Fatalf("post-unrelated-mutation: draws=%d reused=%d, want pure reuse",
			est3.Acct.Draws, est3.Acct.ReusedDraws)
	}

	// Mutating a coupled block changes the signature: redraw.
	f3, _ := ocqa.ParseFact("R(b0,v64)")
	p, _, err = p.ApplyInsert(f3)
	if err != nil {
		t.Fatal(err)
	}
	est4, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est4.Acct.Draws == 0 {
		t.Fatalf("post-touch mutation: no fresh draws, stale stratum served")
	}
	pExact = (65.0 / 66.0) * (64.0 / 65.0)
	if math.Abs(est4.Value-pExact) > opts.Epsilon*pExact {
		t.Fatalf("post-touch estimate %v outside ε-envelope of %v", est4.Value, pExact)
	}
}

// TestDeltaStratifiedDeterminism replays an identical mutation history
// with the same seed and expects bit-identical estimates.
func TestDeltaStratifiedDeterminism(t *testing.T) {
	run := func() float64 {
		p, q := stratifiedFixture(t)
		f, _ := ocqa.ParseFact("R(zz,w)")
		p, _, err := p.ApplyInsert(f)
		if err != nil {
			t.Fatal(err)
		}
		est, err := p.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, q,
			ocqa.Tuple{}, ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return est.Value
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same history, same seed, different estimates: %v vs %v", a, b)
	}
}

// TestDeltaColdMatchesWarmLineage: a cold Prepared (no mutation
// history) routes through the factorized estimator like a warm one, so
// at the same content it returns the warm lineage's estimates — drawing
// fresh what the lineage reuses, and reporting no reused draws.
func TestDeltaColdMatchesWarmLineage(t *testing.T) {
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 5}
	ctx := context.Background()

	// Sampled stratum: the lineage draws it before the mutation and
	// reuses it after.
	p0, q := stratifiedFixture(t)
	if _, err := p0.Approximate(ctx, mode, q, ocqa.Tuple{}, opts); err != nil {
		t.Fatal(err)
	}
	warm, _, err := p0.ApplyInsert(mustFact(t, "R(zz,w)"))
	if err != nil {
		t.Fatal(err)
	}
	cold := ocqa.NewInstance(warm.DB(), warm.Sigma()).Prepare()
	w, err := warm.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cold.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w.Acct.Draws != 0 || w.Acct.ReusedDraws == 0 {
		t.Fatalf("warm lineage: draws=%d reused=%d, want pure reuse", w.Acct.Draws, w.Acct.ReusedDraws)
	}
	if c.Value != w.Value || c.Converged != w.Converged {
		t.Fatalf("cold Prepared diverged from the warm lineage: %+v vs %+v", c, w)
	}
	if c.Acct.ReusedDraws != 0 || c.Acct.Draws != w.Acct.ReusedDraws {
		t.Fatalf("cold side: draws=%d reused=%d, want %d fresh and 0 reused",
			c.Acct.Draws, c.Acct.ReusedDraws, w.Acct.ReusedDraws)
	}

	// Enumerable clusters: both sides answer exactly with zero draws,
	// per tuple of the answers pass too.
	small := mustInstance(t, "R(a,x)\nR(a,y)\nR(b,x)", "R: A1 -> A2").Prepare()
	warmSmall, _, err := small.ApplyInsert(mustFact(t, "R(b,q)"))
	if err != nil {
		t.Fatal(err)
	}
	coldSmall := ocqa.NewInstance(warmSmall.DB(), warmSmall.Sigma()).Prepare()
	qAns := mustQuery(t, "Ans(v) :- R(k, v)")
	wa, err := warmSmall.ApproximateAnswers(ctx, mode, qAns, opts)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := coldSmall.ApproximateAnswers(ctx, mode, qAns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca) != len(wa) || len(ca) == 0 {
		t.Fatalf("cold %d answers, warm %d", len(ca), len(wa))
	}
	for i := range ca {
		if !ca[i].Tuple.Equal(wa[i].Tuple) || ca[i].Estimate.Value != wa[i].Estimate.Value ||
			ca[i].Estimate.Acct.Draws != 0 || ca[i].Estimate.Acct.ReusedDraws != 0 {
			t.Fatalf("answer %d: cold %+v, warm %+v", i, ca[i], wa[i])
		}
	}
}

// TestDeltaPlanRoutes checks the planner's routing, cold and warm alike:
// delta-stratified when a cluster must be sampled, delta-exact for fully
// enumerable decompositions, and the classic routes where the factorized
// estimator declines (UseAA, UseChernoff).
func TestDeltaPlanRoutes(t *testing.T) {
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 1}

	// Cold + sampled cluster: delta-stratified.
	pCold, qBig := stratifiedFixture(t)
	plan, err := pCold.PlanApproximate(mode, qBig, ocqa.Tuple{}, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Route != ocqa.RouteDeltaStratified {
		t.Fatalf("cold sampled route = %q, want %q", plan.Route, ocqa.RouteDeltaStratified)
	}
	for want, o := range map[string]ocqa.ApproxOptions{
		ocqa.RouteAA:       {UseAA: true},
		ocqa.RouteChernoff: {UseChernoff: true},
	} {
		plan, err = pCold.PlanApproximate(mode, qBig, ocqa.Tuple{}, true, o)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Route != want {
			t.Fatalf("route with %+v = %q, want %q", o, plan.Route, want)
		}
	}

	// Warm + sampled cluster: delta-stratified.
	f, _ := ocqa.ParseFact("R(zz,w)")
	pWarm, _, err := pCold.ApplyInsert(f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = pWarm.PlanApproximate(mode, qBig, ocqa.Tuple{}, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Route != ocqa.RouteDeltaStratified {
		t.Fatalf("warm sampled route = %q, want %q", plan.Route, ocqa.RouteDeltaStratified)
	}

	// Small blocks, cold and warm: delta-exact, zero draws.
	instSmall := mustInstance(t, "R(a,x)\nR(a,y)\nR(b,x)", "R: A1 -> A2")
	pSmall, _, err := instSmall.Prepare().ApplyInsert(mustFact(t, "R(b,q)"))
	if err != nil {
		t.Fatal(err)
	}
	qSmall := mustQuery(t, "Ans() :- R(k, 'x')")
	for _, p := range []*ocqa.Prepared{instSmall.Prepare(), pSmall} {
		plan, err = p.PlanApproximate(mode, qSmall, ocqa.Tuple{}, true, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Route != ocqa.RouteDeltaExact {
			t.Fatalf("enumerable route = %q, want %q", plan.Route, ocqa.RouteDeltaExact)
		}
		if plan.PredictedDraws != 0 || plan.RequiredDraws != 0 {
			t.Fatalf("delta-exact plan predicts draws: required=%d predicted=%d",
				plan.RequiredDraws, plan.PredictedDraws)
		}
	}
}

// TestDeltaExactPastTheCapEnumerates: an exact call is routed to the
// factorized engine only when no cluster needs sampling. The fixture's
// one cluster couples two 64-fact blocks into 65×65 outcomes, past the
// enumeration cap, so ExactProbability and ConsistentAnswers answer
// from the enumeration engine, (64/65)², as Core does.
func TestDeltaExactPastTheCapEnumerates(t *testing.T) {
	p, q := stratifiedFixture(t)
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	want := big.NewRat(64*64, 65*65)
	got, err := p.ExactProbability(mode, q, ocqa.Tuple{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := p.ConsistentAnswers(mode, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 || len(answers) != 1 || answers[0].Prob.Cmp(want) != 0 {
		t.Fatalf("exact P = %s, answers %v; want %s", got.RatString(), answers, want.RatString())
	}
}

// TestDeltaStratifiedAnswersCapHolds: the answers pass is routed once,
// before any draw. Tuple a holds one sampled stratum, which the
// stratified engine could answer, but tuple b holds 17, past
// deltaMaxSampledStrata, so the whole pass runs the shared stopping rule
// instead of drawing a's stratum and then starting over on the full
// budget. The pass draws exactly what its Accounting reports, never past
// MaxSamples.
func TestDeltaStratifiedAnswersCapHolds(t *testing.T) {
	facts := "S(a,ka)\n"
	for i := 0; i < 64; i++ {
		facts += fmt.Sprintf("R(ka,v%d)\nU(ka,v%d)\n", i, i)
	}
	for j := 0; j < 17; j++ {
		facts += fmt.Sprintf("S(b,kb%d)\n", j)
		for i := 0; i < 64; i++ {
			facts += fmt.Sprintf("R(kb%d,v%d)\nU(kb%d,v%d)\n", j, i, j, i)
		}
	}
	p := mustInstance(t, facts, "R: A1 -> A2\nU: A1 -> A2")
	q := mustQuery(t, "Ans(t) :- S(t, k), R(k, x), U(k, x)")
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	for _, maxSamples := range []int{5_000, 20_000} {
		opts := ocqa.ApproxOptions{Epsilon: 0.3, Delta: 0.2, Seed: 3, Workers: 1, MaxSamples: maxSamples}
		plan, err := p.PlanApproximate(mode, q, nil, false, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Route != ocqa.RouteSharedMultiDKLR {
			t.Fatalf("cap %d: answers plan routed %q, want %q", maxSamples, plan.Route, ocqa.RouteSharedMultiDKLR)
		}
		before := engine.SamplesDrawn.Value()
		answers, acct, err := p.ApproximateAnswersAcct(context.Background(), mode, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		drawn := engine.SamplesDrawn.Value() - before
		if len(answers) != 2 || drawn != acct.Draws || acct.Draws > int64(maxSamples) {
			t.Fatalf("cap %d: %d answers, drew %d, reported %d; want 2 answers, drawn = reported ≤ cap",
				maxSamples, len(answers), drawn, acct.Draws)
		}
	}
}

// TestDeltaStratifiedExactCap: ApproxOptions.MaxSamples caps the fresh
// draws of the stratified path exactly — a request below the stopping
// rule's need draws the cap and reports Converged=false, on a cold
// Prepared and on a warm lineage alike; with several sampled strata the
// cap is split over them and never exceeded in total, and a stratum
// whose share is empty stays undrawn.
func TestDeltaStratifiedExactCap(t *testing.T) {
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	ctx := context.Background()
	for _, maxSamples := range []int{100, 500, 1000} {
		cold, q := stratifiedFixture(t)
		warm, _, err := cold.ApplyInsert(mustFact(t, "R(zz,w)"))
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*ocqa.Prepared{"cold": cold, "warm": warm} {
			est, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, ocqa.ApproxOptions{Seed: 7, MaxSamples: maxSamples})
			if err != nil {
				t.Fatal(err)
			}
			if est.Acct.Draws != int64(maxSamples) || est.Converged {
				t.Fatalf("%s, cap %d: drew %d (converged=%v), want exactly the cap, unconverged",
					name, maxSamples, est.Acct.Draws, est.Converged)
			}
		}
	}

	// Two sampled strata: blocks a0,a1 and c0,c1 coupled through fixed
	// T facts, each cluster past the enumeration cap.
	facts := "T(a0,a1)\nT(c0,c1)\n"
	for _, b := range []string{"a0", "a1", "c0", "c1"} {
		for i := 0; i < 64; i++ {
			facts += fmt.Sprintf("R(%s,v%d)\n", b, i)
		}
	}
	p := mustInstance(t, facts, "R: A1 -> A2").Prepare()
	q := mustQuery(t, "Ans() :- R(k, x), T(k, j), R(j, 'v0')")
	plan, err := p.PlanApproximate(mode, q, ocqa.Tuple{}, true, ocqa.ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Route != ocqa.RouteDeltaStratified {
		t.Fatalf("two-strata route = %q, want %q", plan.Route, ocqa.RouteDeltaStratified)
	}
	for _, maxSamples := range []int{1, 1500} {
		est, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, ocqa.ApproxOptions{Seed: 3, MaxSamples: maxSamples})
		if err != nil {
			t.Fatal(err)
		}
		if est.Acct.Draws != int64(maxSamples) || est.Samples != maxSamples || est.Converged {
			t.Fatalf("two strata, cap %d: drew %d, samples %d (converged=%v), want exactly the cap, unconverged",
				maxSamples, est.Acct.Draws, est.Samples, est.Converged)
		}
	}
}

// TestDeltaColdConcurrent runs the cold factorized paths on one fresh
// instance from 8 goroutines, on one shared fingerprint and on distinct
// ones, exact and sampled: every call must return the values of a serial
// run on its own fresh instance. Which goroutine draws a shared stratum
// and which reuses it depends on scheduling, so only the values are
// compared; the race detector checks the shared state.
func TestDeltaColdConcurrent(t *testing.T) {
	facts := "R(a,x)\nR(a,y)\nR(b,x)\nR(b,z)\nR(c,w)\nR(d,x)\nR(d,y)\nR(d,z)\n"
	for b := 0; b < 2; b++ {
		for i := 0; i < 64; i++ {
			facts += fmt.Sprintf("R(s%d,v%d)\n", b, i)
		}
	}
	inst := mustInstance(t, facts, "R: A1 -> A2")
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 9}
	ctx := context.Background()
	queries := []string{"Ans() :- R('s0', x), R('s1', y)", "Ans(v) :- R(k, v)", "Ans() :- R('a', 'x')", "Ans(k) :- R(k, 'z')"}
	// run returns the single-target value followed by every answer's.
	run := func(p *ocqa.Prepared, qs string) ([]float64, error) {
		q, err := ocqa.ParseQuery(qs)
		if err != nil {
			return nil, err
		}
		est, err := p.Approximate(ctx, mode, q, make(ocqa.Tuple, len(q.AnswerVars)), opts)
		if err != nil {
			return nil, err
		}
		out := []float64{est.Value}
		answers, err := p.ApproximateAnswers(ctx, mode, q, opts)
		for _, a := range answers {
			if !a.Estimate.Converged {
				return nil, fmt.Errorf("%s %v: not converged", qs, a.Tuple)
			}
			out = append(out, a.Estimate.Value)
		}
		return out, err
	}
	want := make(map[string][]float64)
	for _, qs := range queries {
		r, err := run(ocqa.NewInstance(inst.DB(), inst.Sigma()), qs)
		if err != nil {
			t.Fatal(err)
		}
		want[qs] = r
	}
	for _, shared := range []bool{true, false} {
		p := ocqa.NewInstance(inst.DB(), inst.Sigma())
		query := func(g int) string {
			if shared {
				return queries[0]
			}
			return queries[g%len(queries)]
		}
		got := make([][]float64, 8)
		errs := make([]error, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g], errs[g] = run(p, query(g))
			}(g)
		}
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("goroutine %d: %v", g, errs[g])
			}
			if !reflect.DeepEqual(got[g], want[query(g)]) {
				t.Fatalf("shared=%v goroutine %d %s: %v, want %v", shared, g, query(g), got[g], want[query(g)])
			}
		}
	}
}

func mustFact(t *testing.T, s string) ocqa.Fact {
	t.Helper()
	f, err := ocqa.ParseFact(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDeltaExactAtScaleBeyondEnumeration pins the tentpole's exact
// payoff: an instance far past any enumeration budget still answers
// exact M^ur probabilities through the factorization, and the answer
// matches the closed form 1 − Π(1 − p_c).
func TestDeltaExactAtScaleBeyondEnumeration(t *testing.T) {
	facts := ""
	for b := 0; b < 2000; b++ {
		for i := 0; i < 4; i++ {
			facts += fmt.Sprintf("R(k%d,v%d)\n", b, i)
		}
	}
	inst := mustInstance(t, facts, "R: A1 -> A2")
	q := mustQuery(t, "Ans() :- R('k0', 'v0')")
	got, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := big.NewRat(1, 5); got.Cmp(want) != 0 {
		t.Fatalf("P = %v, want %v", got, want)
	}
	// The core enumeration engines refuse this size; the factorization
	// is the only exact route.
	if _, err := inst.Core().ExactProbability(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{}, 100000); err == nil {
		t.Fatal("core enumeration unexpectedly succeeded at 8000 facts")
	}
}

// TestQueryCacheBoundAcrossLineage: the per-fingerprint query cache keeps
// its 64-entry FIFO bound along an ApplyInsert lineage. Entries carried
// across a mutation stay evictable, so fresh queries on the derived
// instance push out the oldest ones, while the newest carried entry
// still serves its factors warm.
func TestQueryCacheBoundAcrossLineage(t *testing.T) {
	const bound = 64
	var facts strings.Builder
	for b := 0; b < 200; b++ {
		fmt.Fprintf(&facts, "R(k%d,a)\nR(k%d,b)\n", b, b)
	}
	p := mustInstance(t, facts.String(), "R: A1 -> A2")
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	query := func(i int) {
		t.Helper()
		q := mustQuery(t, fmt.Sprintf("Ans() :- R('k%d', x)", i))
		if _, err := p.ExactProbability(mode, q, ocqa.Tuple{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	for ; next < 80; next++ {
		query(next)
	}
	if n := ocqa.CachedQueries(p); n != bound {
		t.Fatalf("cold instance caches %d fingerprints, want %d", n, bound)
	}
	for step := 0; step < 5; step++ {
		var err error
		if p, _, err = p.ApplyInsert(mustFact(t, fmt.Sprintf("R(z%d,w)", step))); err != nil {
			t.Fatal(err)
		}
		if n := ocqa.CachedQueries(p); n != bound {
			t.Fatalf("step %d: %d fingerprints carried, want %d", step, n, bound)
		}
		for i := 0; i < 16; i++ {
			query(next)
			next++
		}
		if n := ocqa.CachedQueries(p); n != bound {
			t.Fatalf("step %d: %d fingerprints after fresh queries, want %d", step, n, bound)
		}
	}
	// FIFO: across one more mutation the newest fingerprint is carried
	// warm (a factor-cache hit), while the oldest was evicted long ago (a
	// miss).
	var err error
	if p, _, err = p.ApplyInsert(mustFact(t, "R(z9,w)")); err != nil {
		t.Fatal(err)
	}
	hits, misses := ocqa.DeltaFactorCacheHits.Value(), ocqa.DeltaFactorCacheMisses.Value()
	query(next - 1)
	if ocqa.DeltaFactorCacheHits.Value() != hits+1 || ocqa.DeltaFactorCacheMisses.Value() != misses {
		t.Errorf("newest fingerprint not served warm: hits +%d, misses +%d",
			ocqa.DeltaFactorCacheHits.Value()-hits, ocqa.DeltaFactorCacheMisses.Value()-misses)
	}
	hits, misses = ocqa.DeltaFactorCacheHits.Value(), ocqa.DeltaFactorCacheMisses.Value()
	query(0)
	if ocqa.DeltaFactorCacheMisses.Value() != misses+1 || ocqa.DeltaFactorCacheHits.Value() != hits {
		t.Errorf("oldest fingerprint still cached: hits +%d, misses +%d",
			ocqa.DeltaFactorCacheHits.Value()-hits, ocqa.DeltaFactorCacheMisses.Value()-misses)
	}
}

// TestDeltaStratifiedRefreshAllocsNearExact guards the cost shape of a
// write's refresh on the -delta bench fixture (two 64-fact hot blocks
// beside 4-fact blocks): a write away from the hot blocks followed by
// re-estimating the 4,096-image stratified query must allocate within
// 2× of the same write followed by a single-block exact query. The
// write leaves the sampled cluster's blocks alone, so its decomposition
// is carried and its stored stratum reused; only the flat remap of the
// images depends on their number. Re-decomposing them costs some 300×.
func TestDeltaStratifiedRefreshAllocsNearExact(t *testing.T) {
	var facts []ocqa.Fact
	for _, h := range []string{"h0", "h1"} {
		for i := 0; i < 64; i++ {
			facts = append(facts, ocqa.Fact{Rel: "R", Args: []string{h, fmt.Sprintf("v%d", i)}})
		}
	}
	for b := 0; len(facts) < 2000; b++ {
		for i := 0; i < 4; i++ {
			facts = append(facts, ocqa.Fact{Rel: "R", Args: []string{fmt.Sprintf("k%d", b), fmt.Sprintf("v%d", i)}})
		}
	}
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	db := rel.NewDatabase(facts...)
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	ctx := context.Background()
	hotQ := mustQuery(t, "Ans() :- R('h0', x), R('h1', y)")
	probeQ := mustQuery(t, "Ans() :- R('k0', x)")
	opts := ocqa.ApproxOptions{Epsilon: 0.1, Delta: 0.05, Seed: 11}
	allocs := func(query func(*ocqa.Instance) error) float64 {
		cur := ocqa.NewInstance(db, sigma)
		if err := query(cur); err != nil {
			t.Fatal(err)
		}
		pos, have, i := 0, false, 0
		return testing.AllocsPerRun(40, func() {
			var err error
			if !have {
				i++
				cur, pos, err = cur.ApplyInsert(ocqa.Fact{Rel: "R", Args: []string{"k3", fmt.Sprintf("w%d", i)}})
			} else {
				cur, err = cur.ApplyDelete(pos)
			}
			if err != nil {
				t.Fatal(err)
			}
			have = !have
			if err := query(cur); err != nil {
				t.Fatal(err)
			}
		})
	}
	strat := allocs(func(in *ocqa.Instance) error {
		e, err := in.Approximate(ctx, mode, hotQ, ocqa.Tuple{}, opts)
		if err == nil && in.DB().Len() != db.Len() && e.Acct.Draws != 0 {
			err = fmt.Errorf("the write redrew the untouched stratum: %d fresh draws", e.Acct.Draws)
		}
		return err
	})
	exact := allocs(func(in *ocqa.Instance) error {
		_, err := in.ExactProbability(mode, probeQ, ocqa.Tuple{}, 0)
		return err
	})
	t.Logf("allocations per write + query: %.0f stratified (4,096 images), %.0f exact (4 images)", strat, exact)
	if strat > 2*exact {
		t.Fatalf("write + stratified re-estimate: %.0f allocations, write + exact query: %.0f, want within 2×", strat, exact)
	}
}

package ocqa_test

// Differential tests of the shared-draw answers estimation: every
// candidate tuple of Q(D) is estimated from ONE stream of repair
// draws. The tests pin (a) bitwise determinism in (Seed, Workers),
// (b) statistical agreement of the shared estimates with the exact
// per-tuple probabilities under every approximable generator, (c) the
// draw-count reduction over the per-tuple path the shared pass
// replaced, and (d) exact equality of the shared ConsistentAnswers
// pass with per-tuple ExactProbability.

import (
	"context"
	"fmt"
	"math"
	"testing"

	ocqa "repro"
	"repro/internal/engine"
)

// sameEstimate compares the statistical outcome of two estimates,
// ignoring the Acct metadata (wall time is never deterministic).
func sameEstimate(a, b ocqa.Estimate) bool {
	return a.Value == b.Value && a.Samples == b.Samples &&
		a.Epsilon == b.Epsilon && a.Delta == b.Delta && a.Converged == b.Converged
}

// answersFixture: two 2-fact key blocks plus a clean fact; the unary
// query has candidates a, b, c, d with distinct exact probabilities.
func answersFixture(t *testing.T) (*ocqa.Instance, *ocqa.Query) {
	t.Helper()
	inst, err := ocqa.NewInstanceFromText(
		"R(1,a)\nR(1,b)\nR(2,b)\nR(2,c)\nR(3,d)", "R: A1 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ocqa.ParseQuery("Ans(x) :- R(k, x)")
	if err != nil {
		t.Fatal(err)
	}
	return inst, q
}

func TestApproximateAnswersDeterministic(t *testing.T) {
	inst, q := answersFixture(t)
	other, _ := answersFixture(t)
	p := other.Prepare()
	ctx := context.Background()
	for _, mode := range []ocqa.Mode{
		{Gen: ocqa.UniformRepairs},
		{Gen: ocqa.UniformRepairs, Singleton: true},
		{Gen: ocqa.UniformSequences},
		{Gen: ocqa.UniformOperations},
	} {
		for _, workers := range []int{1, 4} {
			opts := ocqa.ApproxOptions{Seed: 5, Workers: workers}
			a, err := p.ApproximateAnswers(ctx, mode, q, opts)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			// A Prepare()d and a never-prepared instance agree bitwise,
			// and so do two runs on one instance: the witness-set cache
			// only skips recompilation.
			b, err := inst.ApproximateAnswers(ctx, mode, q, opts)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			again, err := p.ApproximateAnswers(ctx, mode, q, opts)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if len(a) != len(b) || len(a) != len(again) || len(a) == 0 {
				t.Fatalf("%v workers=%d: %d, %d and %d answers", mode, workers, len(a), len(b), len(again))
			}
			for i := range a {
				if !a[i].Tuple.Equal(b[i].Tuple) || !sameEstimate(a[i].Estimate, b[i].Estimate) {
					t.Fatalf("%v workers=%d tuple %d: prepared %+v != instance %+v",
						mode, workers, i, a[i], b[i])
				}
			}
			if mode.Gen != ocqa.UniformRepairs {
				continue
			}
			exact, err := inst.Core().ConsistentAnswers(mode, q, 0)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if len(exact) != len(a) {
				t.Fatalf("%v workers=%d: %d answers, %d exact", mode, workers, len(a), len(exact))
			}
			for i := range a {
				if !a[i].Tuple.Equal(exact[i].Tuple) {
					t.Fatalf("%v tuple %d: %v vs exact %v", mode, i, a[i].Tuple, exact[i].Tuple)
				}
				ef, _ := exact[i].Prob.Float64()
				checkFactorizedEstimate(t, fmt.Sprintf("%v workers=%d tuple %v", mode, workers, a[i].Tuple),
					a[i].Estimate, again[i].Estimate, ef)
			}
		}
	}
}

func TestApproximateAnswersMatchesExact(t *testing.T) {
	inst, q := answersFixture(t)
	p := inst.Prepare()
	ctx := context.Background()
	for _, mode := range []ocqa.Mode{
		{Gen: ocqa.UniformRepairs},
		{Gen: ocqa.UniformRepairs, Singleton: true},
		{Gen: ocqa.UniformSequences},
		{Gen: ocqa.UniformOperations},
	} {
		for _, opts := range []ocqa.ApproxOptions{
			{Epsilon: 0.1, Delta: 0.05, Seed: 11, Workers: 4},
			{Epsilon: 0.1, Delta: 0.05, Seed: 11, Workers: 1, UseAA: true},
		} {
			ans, err := p.ApproximateAnswers(ctx, mode, q, opts)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			exact, err := p.ConsistentAnswers(mode, q, 0)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if len(ans) != len(exact) {
				t.Fatalf("%v: %d estimates, %d exact answers", mode, len(ans), len(exact))
			}
			for i := range ans {
				if !ans[i].Tuple.Equal(exact[i].Tuple) {
					t.Fatalf("%v: tuple order diverged: %v vs %v", mode, ans[i].Tuple, exact[i].Tuple)
				}
				want, _ := exact[i].Prob.Float64()
				if math.Abs(ans[i].Estimate.Value-want) > 0.1*want+0.02 {
					t.Errorf("%v %v: estimate %.4f, exact %.4f (UseAA=%v)",
						mode, ans[i].Tuple, ans[i].Estimate.Value, want, opts.UseAA)
				}
			}
		}
	}
}

// TestApproximateAnswersChernoff: the fixed-sample multi-target
// branch — the Chernoff construction's draw count shared by every
// tuple, (ε, δ) stamped on each estimate.
func TestApproximateAnswersChernoff(t *testing.T) {
	inst, q := answersFixture(t)
	p := inst.Prepare()
	ctx := context.Background()
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	// Loose (ε, δ) keep the worst-case pmin bound's sample count small.
	opts := ocqa.ApproxOptions{Epsilon: 0.3, Delta: 0.2, Seed: 13, Workers: 4, UseChernoff: true}
	ans, err := p.ApproximateAnswers(ctx, mode, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := p.ConsistentAnswers(mode, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != len(exact) {
		t.Fatalf("%d estimates, %d exact answers", len(ans), len(exact))
	}
	for i, a := range ans {
		if a.Estimate.Epsilon != opts.Epsilon || a.Estimate.Delta != opts.Delta {
			t.Errorf("%v: (ε,δ)=(%v,%v) not stamped", a.Tuple, a.Estimate.Epsilon, a.Estimate.Delta)
		}
		if a.Estimate.Samples != ans[0].Estimate.Samples || !a.Estimate.Converged {
			t.Errorf("%v: fixed-sample pass should share one draw count: %+v", a.Tuple, a.Estimate)
		}
		want, _ := exact[i].Prob.Float64()
		if math.Abs(a.Estimate.Value-want) > 0.3*want+0.05 {
			t.Errorf("%v: estimate %.4f, exact %.4f", a.Tuple, a.Estimate.Value, want)
		}
	}
	again, err := p.ApproximateAnswers(ctx, mode, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ans {
		if !sameEstimate(ans[i].Estimate, again[i].Estimate) {
			t.Fatalf("Chernoff pass not deterministic: %+v != %+v", ans[i].Estimate, again[i].Estimate)
		}
	}
}

// TestApproximateAnswersDrawReduction: the shared pass must consume
// well under the per-tuple path's total draws — with 4 equally hard
// tuples, at least half the per-tuple factor. It runs under M^us, which
// samples whole repairs (M^ur factorizes under primary keys, with no
// draws to compare).
func TestApproximateAnswersDrawReduction(t *testing.T) {
	inst, q := answersFixture(t)
	ctx := context.Background()
	mode := ocqa.Mode{Gen: ocqa.UniformSequences}
	opts := ocqa.ApproxOptions{Epsilon: 0.1, Delta: 0.05, Seed: 3, Workers: 1}

	tuples := q.Answers(inst.DB())
	mark := engine.SamplesDrawn()
	for _, c := range tuples {
		if _, err := inst.Approximate(ctx, mode, q, c, opts); err != nil {
			t.Fatal(err)
		}
	}
	perTuple := engine.SamplesDrawn() - mark

	mark = engine.SamplesDrawn()
	if _, err := inst.ApproximateAnswers(ctx, mode, q, opts); err != nil {
		t.Fatal(err)
	}
	shared := engine.SamplesDrawn() - mark

	if shared == 0 || perTuple == 0 {
		t.Fatalf("draw accounting broken: perTuple=%d shared=%d", perTuple, shared)
	}
	if ratio := float64(perTuple) / float64(shared); ratio < float64(len(tuples))/2 {
		t.Errorf("draw reduction %.2fx below %d tuples / 2", ratio, len(tuples))
	}
}

func TestApproximateAnswersEmptyAndRefusal(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText("R(1,a)\nR(1,b)", "R: A1 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ocqa.ParseQuery("Ans(x) :- R('no-such-key', x)")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := inst.ApproximateAnswers(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Fatalf("no-candidate query returned %v", ans)
	}
	// The approximability matrix is enforced before any compilation.
	fdInst, err := ocqa.NewInstanceFromText("R(1,a,x)\nR(1,b,x)\nR(2,a,y)", "R: A1 -> A2\nR: A2 -> A3")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ocqa.ParseQuery("Ans(x) :- R(k, x, z)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fdInst.ApproximateAnswers(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, q2, ocqa.ApproxOptions{}); err == nil {
		t.Fatal("M^ur under general FDs must refuse")
	}
}

func TestApproximateAnswersPreCancelled(t *testing.T) {
	inst, q := answersFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ans, err := inst.ApproximateAnswers(ctx, ocqa.Mode{Gen: ocqa.UniformSequences}, q,
			ocqa.ApproxOptions{Seed: 1, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: want context error", workers)
		}
		// The partial per-tuple estimates accompany the error, like the
		// single-tuple path.
		if len(ans) != len(q.Answers(inst.DB())) {
			t.Fatalf("workers=%d: %d partial answers returned", workers, len(ans))
		}
	}
}

// TestConsistentAnswersPreparedCacheStable: repeated shared exact
// passes through the witness-set cache return identical rationals,
// equal to the core engine's uncached pass.
func TestConsistentAnswersPreparedCacheStable(t *testing.T) {
	inst, q := answersFixture(t)
	p := inst.Prepare()
	mode := ocqa.Mode{Gen: ocqa.UniformSequences}
	first, err := p.ConsistentAnswers(mode, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.ConsistentAnswers(mode, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := inst.Core().ConsistentAnswers(mode, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != len(second) || len(first) != len(plain) {
		t.Fatalf("answer counts diverged: %d, %d, %d", len(first), len(second), len(plain))
	}
	for i := range first {
		if first[i].Prob.Cmp(second[i].Prob) != 0 || first[i].Prob.Cmp(plain[i].Prob) != 0 {
			t.Fatalf("tuple %v: cached %v / %v, plain %v",
				first[i].Tuple, first[i].Prob, second[i].Prob, plain[i].Prob)
		}
	}
}

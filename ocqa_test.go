package ocqa_test

import (
	"context"
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"

	ocqa "repro"
	"repro/internal/core"
	"repro/internal/sampler"
)

const figure2Facts = `
R(a1, b1)
R(a1, b2)
R(a1, b3)
R(a2, b1)
R(a3, b1)
R(a3, b2)
`

func figure2Instance(t *testing.T) *ocqa.Instance {
	t.Helper()
	inst, err := ocqa.NewInstanceFromText(figure2Facts, "R: A1 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceFromText(t *testing.T) {
	inst := figure2Instance(t)
	if inst.DB().Len() != 6 {
		t.Fatalf("|D| = %d", inst.DB().Len())
	}
	if inst.Class() != ocqa.PrimaryKeys {
		t.Fatalf("class = %v", inst.Class())
	}
	if inst.IsConsistent() {
		t.Fatal("Figure 2 database is inconsistent")
	}
}

func TestNewInstanceFromTextErrors(t *testing.T) {
	if _, err := ocqa.NewInstanceFromText("R(a", ""); err == nil {
		t.Error("bad facts accepted")
	}
	if _, err := ocqa.NewInstanceFromText("R(a,b)", "S: A1 -> A2"); err == nil {
		t.Error("bad FDs accepted")
	}
}

func TestExactProbabilityFacade(t *testing.T) {
	inst := figure2Instance(t)
	q, err := ocqa.ParseQuery("Ans(x) :- R('a1', x)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{"b1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(big.NewRat(1, 4)) != 0 {
		t.Fatalf("P = %s, want 1/4 (Example B.3)", p.RatString())
	}
	ps, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformSequences}, q, ocqa.Tuple{"b1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Cmp(big.NewRat(24, 99)) != 0 {
		t.Fatalf("P = %s, want 24/99 (Example C.3)", ps.RatString())
	}
}

func TestCountsFacade(t *testing.T) {
	inst := figure2Instance(t)
	if got := inst.CountRepairs(false); got.Int64() != 12 {
		t.Errorf("|CORep| = %v", got)
	}
	n, err := inst.CountSequences(false, 0)
	if err != nil || n.Int64() != 99 {
		t.Errorf("|CRS| = %v (err %v)", n, err)
	}
	n1, err := inst.CountSequences(true, 0)
	if err != nil || n1.Int64() != 36 {
		t.Errorf("|CRS^1| = %v (err %v)", n1, err)
	}
}

func TestCountSequencesFallsBackForFDs(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText(
		"R(a1,b1,c1)\nR(a1,b2,c2)\nR(a2,b1,c2)",
		"R: A1 -> A2\nR: A3 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Class() != ocqa.GeneralFDs {
		t.Fatalf("class = %v", inst.Class())
	}
	n, err := inst.CountSequences(false, 0)
	if err != nil || n.Int64() != 9 {
		t.Fatalf("|CRS| = %v (err %v), want 9 (Figure 1)", n, err)
	}
}

func TestSemanticsAndRepairOf(t *testing.T) {
	inst := figure2Instance(t)
	sem, err := inst.Semantics(ocqa.Mode{Gen: ocqa.UniformRepairs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sem) != 12 {
		t.Fatalf("repairs = %d", len(sem))
	}
	for _, rp := range sem {
		db := inst.RepairOf(rp)
		if !inst.Sigma().Satisfies(db) {
			t.Fatalf("repair %v inconsistent", db)
		}
	}
}

func TestConsistentAnswersFacade(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText("Emp(1,Alice)\nEmp(1,Tom)", "Emp: A1 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ocqa.ParseQuery("Ans(n) :- Emp(i, n)")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := inst.ConsistentAnswers(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("answers = %v", ans)
	}
	for _, a := range ans {
		if a.Prob.Cmp(big.NewRat(1, 3)) != 0 {
			t.Fatalf("answer %v prob %s, want 1/3", a.Tuple, a.Prob.RatString())
		}
	}
}

func TestApproximabilityMatrix(t *testing.T) {
	tests := []struct {
		mode  ocqa.Mode
		class ocqa.ConstraintClass
		want  ocqa.ApproxStatus
	}{
		{ocqa.Mode{Gen: ocqa.UniformRepairs}, ocqa.PrimaryKeys, ocqa.StatusFPRAS},
		{ocqa.Mode{Gen: ocqa.UniformRepairs}, ocqa.Keys, ocqa.StatusOpen},
		{ocqa.Mode{Gen: ocqa.UniformRepairs}, ocqa.GeneralFDs, ocqa.StatusNoFPRAS},
		{ocqa.Mode{Gen: ocqa.UniformRepairs, Singleton: true}, ocqa.GeneralFDs, ocqa.StatusNoFPRAS},
		{ocqa.Mode{Gen: ocqa.UniformSequences}, ocqa.PrimaryKeys, ocqa.StatusFPRAS},
		{ocqa.Mode{Gen: ocqa.UniformSequences}, ocqa.Keys, ocqa.StatusOpen},
		{ocqa.Mode{Gen: ocqa.UniformSequences}, ocqa.GeneralFDs, ocqa.StatusOpen},
		{ocqa.Mode{Gen: ocqa.UniformOperations}, ocqa.PrimaryKeys, ocqa.StatusFPRAS},
		{ocqa.Mode{Gen: ocqa.UniformOperations}, ocqa.Keys, ocqa.StatusFPRAS},
		{ocqa.Mode{Gen: ocqa.UniformOperations}, ocqa.GeneralFDs, ocqa.StatusHeuristic},
		{ocqa.Mode{Gen: ocqa.UniformOperations, Singleton: true}, ocqa.GeneralFDs, ocqa.StatusFPRAS},
	}
	for _, tc := range tests {
		got, cite := ocqa.Approximability(tc.mode, tc.class)
		if got != tc.want {
			t.Errorf("Approximability(%s, %v) = %v, want %v", tc.mode.Symbol(), tc.class, got, tc.want)
		}
		if cite == "" {
			t.Errorf("missing citation for (%s, %v)", tc.mode.Symbol(), tc.class)
		}
	}
}

func TestApproximateMatchesExact(t *testing.T) {
	inst := figure2Instance(t)
	q, err := ocqa.ParseQuery("Ans(x) :- R('a1', x)")
	if err != nil {
		t.Fatal(err)
	}
	c := ocqa.Tuple{"b1"}
	for _, mode := range []ocqa.Mode{
		{Gen: ocqa.UniformRepairs},
		{Gen: ocqa.UniformSequences},
		{Gen: ocqa.UniformOperations},
		{Gen: ocqa.UniformRepairs, Singleton: true},
		{Gen: ocqa.UniformSequences, Singleton: true},
		{Gen: ocqa.UniformOperations, Singleton: true},
	} {
		exact, err := inst.ExactProbability(mode, q, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		ef, _ := exact.Float64()
		est, err := inst.Approximate(context.Background(), mode, q, c, ocqa.ApproxOptions{Epsilon: 0.08, Delta: 0.01, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", mode.Symbol(), err)
		}
		if !est.Converged {
			t.Fatalf("%s: did not converge", mode.Symbol())
		}
		if math.Abs(est.Value-ef) > 0.1*ef {
			t.Errorf("%s: estimate %.4f vs exact %.4f", mode.Symbol(), est.Value, ef)
		}
	}
}

func TestApproximateRefusals(t *testing.T) {
	// FDs instance.
	inst, err := ocqa.NewInstanceFromText(
		"R(a1,b1,c1)\nR(a1,b2,c2)\nR(a2,b1,c2)",
		"R: A1 -> A2\nR: A3 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ocqa.ParseQuery("Ans() :- R(x, 'b1', y)")
	if err != nil {
		t.Fatal(err)
	}
	// M^ur with FDs: refused (Theorem 5.1(3)), even with Force.
	_, err = inst.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{}, ocqa.ApproxOptions{Force: true})
	if !errors.Is(err, ocqa.ErrNotApproximable) {
		t.Errorf("ur+FDs: err = %v", err)
	}
	// M^us with FDs: refused (open).
	_, err = inst.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformSequences}, q, ocqa.Tuple{}, ocqa.ApproxOptions{})
	if !errors.Is(err, ocqa.ErrNotApproximable) {
		t.Errorf("us+FDs: err = %v", err)
	}
	// M^uo with FDs: refused without Force, allowed with Force.
	_, err = inst.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformOperations}, q, ocqa.Tuple{}, ocqa.ApproxOptions{})
	if !errors.Is(err, ocqa.ErrNotApproximable) {
		t.Errorf("uo+FDs unforced: err = %v", err)
	}
	est, err := inst.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformOperations}, q, ocqa.Tuple{}, ocqa.ApproxOptions{Force: true, Seed: 3})
	if err != nil {
		t.Errorf("uo+FDs forced: %v", err)
	} else {
		// Exact is 11/15 ≈ 0.7333.
		if math.Abs(est.Value-11.0/15) > 0.05 {
			t.Errorf("forced estimate %.4f vs 0.7333", est.Value)
		}
	}
	// M^{uo,1} with FDs: FPRAS (Theorem 7.5) — allowed without Force.
	if _, err := inst.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformOperations, Singleton: true}, q, ocqa.Tuple{}, ocqa.ApproxOptions{Seed: 4}); err != nil {
		t.Errorf("uo,1+FDs: %v", err)
	}
}

func TestApproximateChernoffMode(t *testing.T) {
	// Tiny instance so the worst-case bound stays usable: 1/(2·2)^1.
	inst, err := ocqa.NewInstanceFromText("Emp(1,Alice)\nEmp(1,Tom)", "Emp: A1 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ocqa.ParseQuery("Ans() :- Emp(x, 'Alice')")
	if err != nil {
		t.Fatal(err)
	}
	est, err := inst.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{},
		ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 5, UseChernoff: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Exact: 1/3.
	if math.Abs(est.Value-1.0/3) > 0.2/3 {
		t.Errorf("estimate %.4f vs 1/3", est.Value)
	}
	if est.Samples == 0 {
		t.Error("no samples recorded")
	}
}

func TestApproximateAnswers(t *testing.T) {
	inst := figure2Instance(t)
	q, err := ocqa.ParseQuery("Ans(x) :- R('a1', x)")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := inst.ApproximateAnswers(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.ApproxOptions{Epsilon: 0.15, Delta: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 3 {
		t.Fatalf("answers = %d", len(ans))
	}
	for _, a := range ans {
		if math.Abs(a.Estimate.Value-0.25) > 0.06 {
			t.Errorf("answer %v estimate %.4f, want ≈0.25", a.Tuple, a.Estimate.Value)
		}
	}
}

func TestBuildChainFacade(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText(
		"R(a1,b1,c1)\nR(a1,b2,c2)\nR(a2,b1,c2)",
		"R: A1 -> A2\nR: A3 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	chain, err := inst.BuildChain(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chain.NodeCount != 12 || len(chain.Leaves) != 9 {
		t.Fatalf("chain shape: %d nodes, %d leaves", chain.NodeCount, len(chain.Leaves))
	}
}

func TestApproxStatusString(t *testing.T) {
	for s, want := range map[ocqa.ApproxStatus]string{
		ocqa.StatusFPRAS:     "FPRAS",
		ocqa.StatusHeuristic: "heuristic (sampler without guarantee)",
		ocqa.StatusOpen:      "open",
		ocqa.StatusNoFPRAS:   "no FPRAS (unless RP = NP)",
	} {
		if s.String() != want {
			t.Errorf("String(%d) = %q", s, s.String())
		}
	}
}

func TestWeightedFacade(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText("Emp(1,Alice)\nEmp(1,Tom)", "Emp: A1 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	var intro ocqa.WeightFn = func(_ *ocqa.Database, _ ocqa.Subset, op ocqa.Op) *big.Rat {
		if op.Singleton() {
			return big.NewRat(3, 8)
		}
		return big.NewRat(1, 4)
	}
	sem, err := inst.SemanticsWeighted(intro, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sem) != 3 {
		t.Fatalf("repairs = %d", len(sem))
	}
	q, err := ocqa.ParseQuery("Ans() :- Emp(x, 'Alice')")
	if err != nil {
		t.Fatal(err)
	}
	p, err := inst.ExactProbabilityWeighted(intro, false, q, ocqa.Tuple{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(big.NewRat(3, 8)) != 0 {
		t.Fatalf("P[Alice survives] = %s, want 3/8", p.RatString())
	}
	// Uniform weights reproduce M^uo.
	puo, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformOperations}, q, ocqa.Tuple{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := inst.ExactProbabilityWeighted(ocqa.UniformWeights, false, q, ocqa.Tuple{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if puo.Cmp(pw) != 0 {
		t.Fatalf("uniform weights %s != M^uo %s", pw.RatString(), puo.RatString())
	}
}

func TestExplainRepairFacade(t *testing.T) {
	inst := figure2Instance(t)
	sem, err := inst.Semantics(ocqa.Mode{Gen: ocqa.UniformRepairs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range sem {
		expl, ok := inst.ExplainRepair(rp, false)
		if !ok {
			t.Fatalf("repair %v not explainable", inst.RepairOf(rp))
		}
		_ = expl // any complete sequence string (possibly ε) is fine
	}
}

func TestChainDOT(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText(
		"R(a1,b1,c1)\nR(a1,b2,c2)\nR(a2,b1,c2)",
		"R: A1 -> A2\nR: A3 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	chain, err := inst.BuildChain(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	dot := chain.DOT(ocqa.UniformSequences)
	for _, want := range []string{"digraph chain", "1/3", "1/9", "shape=box", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

// TestApproximateEstimatorVariants: the AA estimator and the parallel
// stopping rule produce accurate estimates through the facade.
func TestApproximateEstimatorVariants(t *testing.T) {
	inst := figure2Instance(t)
	q, err := ocqa.ParseQuery("Ans(x) :- R('a1', x)")
	if err != nil {
		t.Fatal(err)
	}
	c := ocqa.Tuple{"b1"}
	exact, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	ef, _ := exact.Float64()

	aa, err := inst.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, q, c,
		ocqa.ApproxOptions{Epsilon: 0.08, Delta: 0.02, Seed: 21, UseAA: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aa.Value-ef) > 0.1*ef {
		t.Errorf("AA estimate %.4f vs exact %.4f", aa.Value, ef)
	}

	par, err := inst.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformOperations}, q, c,
		ocqa.ApproxOptions{Epsilon: 0.08, Delta: 0.02, Seed: 22, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	exactUO, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformOperations}, q, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	efUO, _ := exactUO.Float64()
	if math.Abs(par.Value-efUO) > 0.1*efUO {
		t.Errorf("parallel estimate %.4f vs exact %.4f", par.Value, efUO)
	}
	// Parallel sequence sampling exercises the shared-DP path.
	parSeq, err := inst.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformSequences}, q, c,
		ocqa.ApproxOptions{Epsilon: 0.08, Delta: 0.02, Seed: 23, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	exactUS, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformSequences}, q, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	efUS, _ := exactUS.Float64()
	if math.Abs(parSeq.Value-efUS) > 0.1*efUS {
		t.Errorf("parallel seq estimate %.4f vs exact %.4f", parSeq.Value, efUS)
	}
}

// TestFactMarginalsExact: per-fact survival probabilities on the intro
// example: under M^ur, Alice and Tom each survive in 1 of 3 repairs;
// Bob in all.
func TestFactMarginalsExact(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText("Emp(1,Alice)\nEmp(1,Tom)\nEmp(2,Bob)", "Emp: A1 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	fm, err := inst.FactMarginals(ocqa.Mode{Gen: ocqa.UniformRepairs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm) != 3 {
		t.Fatalf("marginals = %d", len(fm))
	}
	for _, m := range fm {
		want := big.NewRat(1, 3)
		if m.Fact.Arg(1) == "Bob" {
			want = big.NewRat(1, 1)
		}
		if m.Prob.Cmp(want) != 0 {
			t.Errorf("P[%v] = %s, want %s", m.Fact, m.Prob.RatString(), want.RatString())
		}
	}
}

// TestApproximateFactMarginalsMatchExact on Figure 2 across modes.
func TestApproximateFactMarginalsMatchExact(t *testing.T) {
	inst := figure2Instance(t)
	for _, mode := range []ocqa.Mode{
		{Gen: ocqa.UniformRepairs},
		{Gen: ocqa.UniformSequences},
		{Gen: ocqa.UniformOperations},
	} {
		exact, err := inst.FactMarginals(mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := inst.ApproximateFactMarginals(context.Background(), mode, ocqa.ApproxOptions{Seed: 31, MaxSamples: 40000})
		if err != nil {
			t.Fatalf("%s: %v", mode.Symbol(), err)
		}
		for i, m := range exact {
			ef, _ := m.Prob.Float64()
			if math.Abs(approx[i]-ef) > 0.02 {
				t.Errorf("%s fact %v: approx %.4f vs exact %.4f", mode.Symbol(), m.Fact, approx[i], ef)
			}
		}
	}
}

// TestApproximateFactMarginalsRefusal: the approximability matrix
// applies to marginals too.
func TestApproximateFactMarginalsRefusal(t *testing.T) {
	inst, err := ocqa.NewInstanceFromText(
		"R(a1,b1,c1)\nR(a1,b2,c2)\nR(a2,b1,c2)",
		"R: A1 -> A2\nR: A3 -> A2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.ApproximateFactMarginals(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, ocqa.ApproxOptions{}); !errors.Is(err, ocqa.ErrNotApproximable) {
		t.Errorf("ur+FDs marginals: err = %v", err)
	}
	// Forced M^uo marginals approximate the exact ones.
	exact, err := inst.FactMarginals(ocqa.Mode{Gen: ocqa.UniformOperations}, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := inst.ApproximateFactMarginals(context.Background(), ocqa.Mode{Gen: ocqa.UniformOperations}, ocqa.ApproxOptions{Force: true, Seed: 37, MaxSamples: 40000})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range exact {
		ef, _ := m.Prob.Float64()
		if math.Abs(approx[i]-ef) > 0.02 {
			t.Errorf("fact %v: approx %.4f vs exact %.4f", m.Fact, approx[i], ef)
		}
	}
}

// --- Prepared instances ---------------------------------------------------

// checkFactorizedEstimate pins the contract of M^ur and M^{ur,1} under
// primary keys, where the block-factorized estimator answers: the
// estimate is the exact probability (to float rounding) with zero draws,
// and it is deterministic.
func checkFactorizedEstimate(t *testing.T, label string, got, again ocqa.Estimate, exact float64) {
	t.Helper()
	if math.Abs(got.Value-exact) > 1e-12 || got.Samples != 0 || got.Acct.Draws != 0 {
		t.Errorf("%s: estimate %+v, want exactly %v with 0 draws", label, got, exact)
	}
	if !sameEstimate(got, again) {
		t.Errorf("%s: estimate not deterministic: %+v then %+v", label, got, again)
	}
}

// TestPreparedMatchesInstance: Prepare only moves the block
// decomposition's construction earlier, so a never-prepared instance
// and a separately Prepare()d one answer bit for bit alike — estimates,
// draws, marginals and counts under every generator. Under M^ur and
// M^{ur,1} both answer by block factorization, per
// checkFactorizedEstimate.
func TestPreparedMatchesInstance(t *testing.T) {
	inst := figure2Instance(t)
	p := figure2Instance(t).Prepare()
	q, err := ocqa.ParseQuery("Ans(y) :- R(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range core.AllModes() {
		opts := ocqa.ApproxOptions{Seed: 17}
		want, err := inst.Approximate(ctx, mode, q, ocqa.ParseTuple("b1"), opts)
		if err != nil {
			t.Fatalf("%s: %v", mode.Symbol(), err)
		}
		got, err := p.Approximate(ctx, mode, q, ocqa.ParseTuple("b1"), opts)
		if err != nil {
			t.Fatalf("%s prepared: %v", mode.Symbol(), err)
		}
		if !sameEstimate(got, want) || got.Acct.Draws != want.Acct.Draws {
			t.Errorf("%s: prepared estimate %+v != instance estimate %+v", mode.Symbol(), got, want)
		}
		if mode.Gen == ocqa.UniformRepairs {
			again, err := p.Approximate(ctx, mode, q, ocqa.ParseTuple("b1"), opts)
			if err != nil {
				t.Fatalf("%s prepared: %v", mode.Symbol(), err)
			}
			exact, err := inst.Core().ExactProbability(mode, q, ocqa.ParseTuple("b1"), 0)
			if err != nil {
				t.Fatalf("%s exact: %v", mode.Symbol(), err)
			}
			ef, _ := exact.Float64()
			checkFactorizedEstimate(t, mode.Symbol(), got, again, ef)
		}

		wantM, err := inst.ApproximateFactMarginals(ctx, mode, ocqa.ApproxOptions{Seed: 19, MaxSamples: 5000})
		if err != nil {
			t.Fatalf("%s marginals: %v", mode.Symbol(), err)
		}
		gotM, err := p.ApproximateFactMarginals(ctx, mode, ocqa.ApproxOptions{Seed: 19, MaxSamples: 5000})
		if err != nil {
			t.Fatalf("%s prepared marginals: %v", mode.Symbol(), err)
		}
		for i := range wantM {
			if gotM[i] != wantM[i] {
				t.Errorf("%s marginal %d: prepared %v != instance %v", mode.Symbol(), i, gotM[i], wantM[i])
			}
		}
	}
	for _, singleton := range []bool{false, true} {
		if got, want := p.CountRepairs(singleton), inst.CountRepairs(singleton); got.Cmp(want) != 0 {
			t.Errorf("CountRepairs(%v): prepared %s != instance %s", singleton, got, want)
		}
		want, err := inst.CountSequences(singleton, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.CountSequences(singleton, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("CountSequences(%v): prepared %s != instance %s", singleton, got, want)
		}
	}
}

// TestPreparedPerformsNoConstructions pins the sampler-construction
// contract of a registered primary-key instance: Prepare builds exactly
// one sampler (the block decomposition); the first M^us and the first
// M^{us,1} query build exactly one each (their sequence DP tables); and
// no repeat — M^ur or M^us, estimates, marginals or counts — builds any.
func TestPreparedPerformsNoConstructions(t *testing.T) {
	inst := figure2Instance(t)
	q, err := ocqa.ParseQuery("Ans(y) :- R(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, want int64, run func()) {
		t.Helper()
		before := sampler.Constructions.Value()
		run()
		if got := sampler.Constructions.Value() - before; got != want {
			t.Errorf("%s: %d sampler constructions, want %d", what, got, want)
		}
	}
	use := func(mode ocqa.Mode) func() {
		return func() {
			if _, err := inst.Approximate(context.Background(), mode, q, ocqa.ParseTuple("b1"), ocqa.ApproxOptions{Seed: 23, Workers: 4}); err != nil {
				t.Fatal(err)
			}
			if _, err := inst.ApproximateFactMarginals(context.Background(), mode, ocqa.ApproxOptions{Seed: 23, MaxSamples: 2000}); err != nil {
				t.Fatal(err)
			}
			inst.CountRepairs(mode.Singleton)
			if _, err := inst.CountSequences(mode.Singleton, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	step("Prepare", 1, func() { inst.Prepare() })
	step("first M^ur queries", 0, use(ocqa.Mode{Gen: ocqa.UniformRepairs}))
	step("first M^us queries", 1, use(ocqa.Mode{Gen: ocqa.UniformSequences}))
	step("first M^us,1 queries", 1, use(ocqa.Mode{Gen: ocqa.UniformSequences, Singleton: true}))
	for _, mode := range []ocqa.Mode{
		{Gen: ocqa.UniformRepairs},
		{Gen: ocqa.UniformRepairs, Singleton: true},
		{Gen: ocqa.UniformSequences},
		{Gen: ocqa.UniformSequences, Singleton: true},
	} {
		step("repeat "+mode.Symbol(), 0, use(mode))
	}
	step("repeat Prepare", 0, func() { inst.Prepare() })
}

// TestApproximateFactMarginalsRespectsMaxSamples: an explicit large
// MaxSamples must actually change the draw count (the old facade
// silently clamped anything over 200,000 down to 100,000, making
// 100,000 and 250,000 indistinguishable).
func TestApproximateFactMarginalsRespectsMaxSamples(t *testing.T) {
	inst := figure2Instance(t)
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	small, err := inst.ApproximateFactMarginals(context.Background(), mode, ocqa.ApproxOptions{Seed: 29, MaxSamples: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	large, err := inst.ApproximateFactMarginals(context.Background(), mode, ocqa.ApproxOptions{Seed: 29, MaxSamples: 250_000})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range small {
		if small[i] != large[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("250,000-draw marginals identical to 100,000-draw marginals: MaxSamples is being clamped")
	}
}

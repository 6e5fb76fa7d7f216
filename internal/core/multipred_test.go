package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/parse"
	"repro/internal/rel"
)

// randomMultiInstance builds a small inconsistent instance plus a
// two-variable query with several candidate answers.
func randomMultiInstance(t *testing.T, rng *rand.Rand) (*Instance, *cq.Query) {
	t.Helper()
	var text string
	n := 6 + rng.Intn(5)
	for i := 0; i < n; i++ {
		text += fmt.Sprintf("R(k%d,v%d)\n", rng.Intn(4), rng.Intn(3))
	}
	for i := 0; i < 3; i++ {
		text += fmt.Sprintf("S(v%d,w%d)\n", rng.Intn(3), rng.Intn(2))
	}
	db, sch, err := parse.ParseDatabase(text)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := parse.ParseFDs("R: A1 -> A2\nS: A1 -> A2", sch)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustNew([]string{"x", "y"},
		cq.NewAtom("R", cq.Var("k"), cq.Var("x")),
		cq.NewAtom("S", cq.Var("x"), cq.Var("y")))
	return NewInstance(db, sigma), q
}

func randomSubset(rng *rand.Rand, n int) rel.Subset {
	s := rel.NewSubset(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Set(i)
		}
	}
	return s
}

// TestMultiPredTuplesMatchAnswers: the compiled target list is exactly
// Q(D) in Answers order.
func TestMultiPredTuplesMatchAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		inst, q := randomMultiInstance(t, rng)
		mp := inst.CompileMultiPred(q, 0)
		want := q.Answers(inst.D)
		got := mp.Tuples()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d tuples, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d: tuple %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMultiPredMatchesPerTuplePredicates: one Eval call agrees with
// the per-tuple witness images and EntailPred on random subsets — with
// and without forcing the overflow fallback.
func TestMultiPredMatchesPerTuplePredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		inst, q := randomMultiInstance(t, rng)
		for _, maxImages := range []int{0, 1} { // 1 forces overflow for most tuples
			mp := inst.CompileMultiPred(q, maxImages)
			tuples := mp.Tuples()
			out := make([]bool, len(tuples))
			for k := 0; k < 20; k++ {
				s := randomSubset(rng, inst.D.Len())
				mp.Eval(s, out)
				for ti, c := range tuples {
					if want := inst.EntailPred(q, c)(s); out[ti] != want {
						t.Fatalf("trial %d maxImages=%d: Eval[%v]=%v on %v, EntailPred says %v",
							trial, maxImages, c, out[ti], s.Indices(), want)
					}
					if fast, ok := witnessPred(inst, q, c, 0); ok {
						if got := fast(s); got != out[ti] {
							t.Fatalf("trial %d: TargetImages disagrees with Eval for %v", trial, c)
						}
					}
				}
			}
			if maxImages == 1 && mp.OverflowCount() == 0 && mp.Witnesses() > len(tuples) {
				t.Fatalf("trial %d: expected overflow with cap 1", trial)
			}
		}
	}
}

// TestConsistentAnswersSharedMatchesExactProbability: the shared exact
// pass (one Semantics walk marginalised over all tuples) returns
// exactly the per-tuple ExactProbability rationals, for every
// generator and singleton variant.
func TestConsistentAnswersSharedMatchesExactProbability(t *testing.T) {
	inst, q := mustInstance(t)
	for _, gen := range []Generator{UniformRepairs, UniformSequences, UniformOperations} {
		for _, singleton := range []bool{false, true} {
			mode := Mode{Gen: gen, Singleton: singleton}
			ans, err := inst.ConsistentAnswers(mode, q, 0)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if len(ans) == 0 {
				t.Fatalf("%v: no answers", mode)
			}
			for _, a := range ans {
				want, err := inst.ExactProbability(mode, q, a.Tuple, 0)
				if err != nil {
					t.Fatalf("%v %v: %v", mode, a.Tuple, err)
				}
				if a.Prob.Cmp(want) != 0 {
					t.Errorf("%v %v: shared pass %v, per-tuple %v", mode, a.Tuple, a.Prob, want)
				}
			}
		}
	}
}

// mustInstance builds the shared small fixture of the exact
// differential test: two conflicting blocks and a clean fact, with a
// unary query over the values.
func mustInstance(t *testing.T) (*Instance, *cq.Query) {
	t.Helper()
	db, sch, err := parse.ParseDatabase("R(1,a)\nR(1,b)\nR(2,b)\nR(2,c)\nR(3,d)")
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := parse.ParseFDs("R: A1 -> A2", sch)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustNew([]string{"x"}, cq.NewAtom("R", cq.Var("k"), cq.Var("x")))
	return NewInstance(db, sigma), q
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// EntailPred on random subsets — with and without forcing the overflow
// fallback.
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

// randomSymmetricInstance builds a small instance over one binary
// relation whose values are its keys, so the self-join
// Ans(x, y) :- R(x, y), R(y, x) has images that witness two tuples.
func randomSymmetricInstance(t *testing.T, rng *rand.Rand) *Instance {
	t.Helper()
	var text string
	for i := 0; i < 4+rng.Intn(6); i++ {
		text += fmt.Sprintf("R(a%d,a%d)\n", rng.Intn(4), rng.Intn(4))
	}
	db, sch, err := parse.ParseDatabase(text)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := parse.ParseFDs("R: A1 -> A2", sch)
	if err != nil {
		t.Fatal(err)
	}
	return NewInstance(db, sigma)
}

var symmetricQuery = cq.MustNew([]string{"x", "y"},
	cq.NewAtom("R", cq.Var("x"), cq.Var("y")),
	cq.NewAtom("R", cq.Var("y"), cq.Var("x")))

// TestCompileTargetIsMultiPredRow: compiling one target with its tuple
// bound before the search yields exactly that tuple's row of the
// every-match compile, images and their order included, within and past
// the image cap; a tuple outside Q(D) yields no row.
func TestCompileTargetIsMultiPredRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		inst, q := randomMultiInstance(t, rng)
		if trial%2 == 1 {
			inst, q = randomSymmetricInstance(t, rng), symmetricQuery
		}
		for _, maxImages := range []int{0, 1} {
			mp := inst.CompileMultiPred(q, maxImages)
			for ti, c := range mp.Tuples() {
				target := inst.CompileTarget(q, c, maxImages)
				if len(target.Tuples()) != 1 || !target.Tuples()[0].Equal(c) {
					t.Fatalf("trial %d maxImages=%d: target %v compiled rows %v", trial, maxImages, c, target.Tuples())
				}
				want, wantOK := mp.TupleWitnesses(ti)
				got, gotOK := target.TupleWitnesses(0)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d maxImages=%d %v: target images %v (%v), row images %v (%v)",
						trial, maxImages, c, got, gotOK, want, wantOK)
				}
			}
			for _, c := range []cq.Tuple{{"absent", "absent"}, {"absent"}} {
				if rows := inst.CompileTarget(q, c, maxImages).Tuples(); len(rows) != 0 {
					t.Fatalf("trial %d: target %v outside Q(D) compiled rows %v", trial, c, rows)
				}
			}
		}
	}
}

// TestCompileAnchoredIsImagesThroughTheFact: the anchored compile at a
// fact holds, per tuple, exactly the tuple's images that use the fact —
// one image witnessing two tuples included.
func TestCompileAnchoredIsImagesThroughTheFact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shared := 0
	for trial := 0; trial < 40; trial++ {
		inst, q := randomMultiInstance(t, rng)
		if trial%2 == 1 {
			inst, q = randomSymmetricInstance(t, rng), symmetricQuery
		}
		mp := inst.CompileMultiPred(q, 0)
		for fi := 0; fi < inst.D.Len(); fi++ {
			want := map[string][]string{}
			owners := map[string]int{}
			for ti, c := range mp.Tuples() {
				ws, _ := mp.TupleWitnesses(ti)
				for _, w := range ws {
					if slices.Contains(w, fi) {
						want[c.Key()] = append(want[c.Key()], fmt.Sprint(w))
						owners[fmt.Sprint(w)]++
					}
				}
			}
			for _, n := range owners {
				if n > 1 {
					shared++
				}
			}
			anchored := inst.CompileAnchored(q, fi, 0)
			got := map[string][]string{}
			for ti, c := range anchored.Tuples() {
				ws, ok := anchored.TupleWitnesses(ti)
				if !ok {
					t.Fatalf("trial %d fact %d: tuple %v overflowed", trial, fi, c)
				}
				for _, w := range ws {
					got[c.Key()] = append(got[c.Key()], fmt.Sprint(w))
				}
			}
			for _, m := range []map[string][]string{want, got} {
				for _, ws := range m {
					slices.Sort(ws)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d fact %d: anchored images %v, images through the fact %v", trial, fi, got, want)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no image witnessed two tuples")
	}
}

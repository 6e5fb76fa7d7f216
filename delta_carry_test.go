package ocqa_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	ocqa "repro"
)

// carryLineage is a random primary-key lineage for the carried-
// decomposition differential test. Three relations: R(k, v) keyed on
// A1, S(x, k, v) keyed on A2 — a key that omits A1 — and T(a, b)
// without a key, so every T fact is fixed. Besides the churned facts
// over a small domain it holds three fixed parts: blocks h0 and h1 of
// 64 facts joined value for value (one cluster of 65² = 4225 outcomes,
// sampled under M^ur), and blocks g0 and g1 of 63 and 64 facts joined as
// a full product (4,032 images, 64 under the 4,096-image cap).
type carryLineage struct {
	rng     *rand.Rand
	in      *ocqa.Instance
	small   []ocqa.Fact // the churned facts, in insertion order
	hot     []ocqa.Fact // the h0/h1 facts
	queries []*ocqa.Query
}

var carryDomain = []string{"a0", "a1", "a2", "a3", "a4", "a5"}

const carrySigma = "R: A1 -> A2\nS: A2 -> A1,A3\n"

// carryQueries are the standing queries: chains that merge R blocks,
// with and without answer variables, answer variables over S ⋈ T, two
// relations joined through S's key, fixed T facts that make targets
// certain, the sampled h cluster and the g product that crosses the
// image cap.
var carryQueries = []string{
	"Ans() :- R(x, y), R(y, z)",
	"Ans(x) :- R(x, y), R(y, z)",
	"Ans(x) :- S(x, k, v), T(v, x)",
	"Ans() :- R(x, 'c0'), S(y, x, z)",
	"Ans() :- T(x, y), R(y, z)",
	"Ans() :- R('h0', x), R('h1', x)",
	"Ans() :- R('g0', x), R('g1', y)",
}

func newCarryLineage(t *testing.T, seed int64) *carryLineage {
	t.Helper()
	l := &carryLineage{rng: rand.New(rand.NewSource(seed))}
	var text []string
	for i := 0; i < 64; i++ {
		for _, h := range []string{"h0", "h1"} {
			f := ocqa.Fact{Rel: "R", Args: []string{h, fmt.Sprintf("hv%d", i)}}
			l.hot = append(l.hot, f)
			text = append(text, f.String())
		}
		if i < 63 {
			text = append(text, fmt.Sprintf("R(g0,gv%d)", i))
		}
		text = append(text, fmt.Sprintf("R(g1,gw%d)", i))
	}
	for len(l.small) < 30 {
		if f := l.randomFact(); !containsFact(l.small, f) {
			l.small = append(l.small, f)
			text = append(text, f.String())
		}
	}
	// S and T are declared by one fact each that the churn may delete.
	for _, f := range []ocqa.Fact{{Rel: "S", Args: []string{"a0", "a1", "t0"}}, {Rel: "T", Args: []string{"t0", "a0"}}} {
		if !containsFact(l.small, f) {
			l.small = append(l.small, f)
			text = append(text, f.String())
		}
	}
	in, err := ocqa.NewInstanceFromText(strings.Join(text, "\n"), carrySigma)
	if err != nil {
		t.Fatal(err)
	}
	l.in = in
	for _, q := range carryQueries {
		l.queries = append(l.queries, mustQuery(t, q))
	}
	return l
}

func containsFact(fs []ocqa.Fact, f ocqa.Fact) bool {
	for _, g := range fs {
		if g.Equal(f) {
			return true
		}
	}
	return false
}

func (l *carryLineage) pick(xs []string) string { return xs[l.rng.Intn(len(xs))] }

func (l *carryLineage) randomFact() ocqa.Fact {
	vals := append([]string{"c0"}, carryDomain...)
	switch r := l.rng.Intn(10); {
	case r < 5:
		return ocqa.Fact{Rel: "R", Args: []string{l.pick(carryDomain), l.pick(vals)}}
	case r < 8:
		return ocqa.Fact{Rel: "S", Args: []string{l.pick(carryDomain), l.pick(carryDomain), l.pick([]string{"t0", "t1", "t2"})}}
	default:
		return ocqa.Fact{Rel: "T", Args: []string{l.pick([]string{"t0", "t1", "t2"}), l.pick(carryDomain)}}
	}
}

// carryWrite is one step of the lineage.
type carryWrite struct {
	insert bool
	fact   ocqa.Fact
}

// next chooses step s's write: scripted writes into the sampled cluster
// and across the image cap, random inserts and deletes of churned facts
// otherwise, and now and then a random write into the h blocks.
func (l *carryLineage) next(s int) carryWrite {
	switch s {
	case 5, 9:
		return carryWrite{true, ocqa.Fact{Rel: "R", Args: []string{"g0", fmt.Sprintf("gx%d", s)}}}
	case 3, 40:
		return carryWrite{true, ocqa.Fact{Rel: "R", Args: []string{"h1", fmt.Sprintf("hv%d", 100+s)}}}
	case 4, 41:
		return carryWrite{false, ocqa.Fact{Rel: "R", Args: []string{"h1", fmt.Sprintf("hv%d", 100+s-1)}}}
	}
	if l.rng.Intn(25) == 0 {
		f := l.hot[l.rng.Intn(len(l.hot))]
		return carryWrite{!l.in.DB().Contains(f), f}
	}
	insert := l.rng.Intn(2) == 0
	if len(l.small) < 20 {
		insert = true
	} else if len(l.small) > 45 {
		insert = false
	}
	if insert {
		for {
			if f := l.randomFact(); !containsFact(l.small, f) {
				return carryWrite{true, f}
			}
		}
	}
	return carryWrite{false, l.small[l.rng.Intn(len(l.small))]}
}

func (l *carryLineage) apply(w carryWrite) error {
	var err error
	if w.insert {
		l.in, _, err = l.in.ApplyInsert(w.fact)
		if err == nil && w.fact.Args[0] != "h0" && w.fact.Args[0] != "h1" {
			l.small = append(l.small, w.fact)
		}
		return err
	}
	i := l.in.DB().IndexOf(w.fact)
	if i < 0 {
		return fmt.Errorf("delete of absent %v", w.fact)
	}
	l.in, err = l.in.ApplyDelete(i)
	for k, g := range l.small {
		if g.Equal(w.fact) {
			l.small = append(l.small[:k], l.small[k+1:]...)
			break
		}
	}
	return err
}

// carryCoverage counts the situations the differential test must meet.
type carryCoverage struct {
	carried, appeared, disappeared, fixedGrew, shrankToOne, merged, certainWritten, sampledWritten, capCrossed int
}

// blockSize counts the facts of the database sharing f's block: R on
// A1, S on A2; every T fact is its own block.
func blockSize(db *ocqa.Database, f ocqa.Fact) int {
	n := 0
	for _, g := range db.Facts() {
		switch {
		case g.Rel != f.Rel:
		case f.Rel == "R" && g.Args[0] == f.Args[0], f.Rel == "S" && g.Args[1] == f.Args[1], g.Equal(f):
			n++
		}
	}
	return n
}

// runCarryLineage drives one lineage for steps writes and compares, at
// every step, every live target's carried decomposition with a fresh
// one under M^ur and M^{ur,1}. It returns the mismatches (capped in
// msgs) and the coverage met.
func runCarryLineage(t *testing.T, seed int64, steps int) (mismatches int, msgs []string, cov carryCoverage) {
	l := newCarryLineage(t, seed)
	type key struct{ q, v int }
	prev := map[key]map[string]ocqa.DeltaDecomposition{}
	prevOK := map[key]bool{}
	for s := 0; s <= steps; s++ {
		var w carryWrite
		if s > 0 {
			w = l.next(s)
			before := blockSize(l.in.DB(), w.fact)
			if err := l.apply(w); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
			if w.insert && before == 1 {
				cov.fixedGrew++
			}
			if !w.insert && before == 2 {
				cov.shrankToOne++
			}
		}
		for qi, q := range l.queries {
			for v, singleton := range []bool{false, true} {
				k := key{qi, v}
				held, fresh, ok := ocqa.DeltaDecompositions(l.in, q, singleton)
				if prevOK[k] && !ok {
					cov.capCrossed++
				}
				cur := map[string]ocqa.DeltaDecomposition{}
				for i := range held {
					h, f := held[i], fresh[i]
					cur[h.Tuple] = h
					p, had := prev[k][h.Tuple]
					if h.Carried && len(h.Sigs) > 0 {
						cov.carried++
					}
					if s > 0 && !had && v == 0 {
						cov.appeared++
					}
					if had && p.Certain && !h.Carried {
						cov.certainWritten++
					}
					if had && w.insert && len(h.Sigs) < len(p.Sigs) {
						cov.merged++
					}
					if had && s > 0 && (w.fact.Args[0] == "h0" || w.fact.Args[0] == "h1") && qi == 5 && v == 0 {
						for _, o := range p.Outcomes {
							if o > 4096 {
								cov.sampledWritten++
							}
						}
					}
					h.Carried = false
					if !reflect.DeepEqual(h, f) {
						mismatches++
						if len(msgs) < 5 {
							msgs = append(msgs, fmt.Sprintf("seed %d step %d %q %v tuple %q:\n carried %+v\n fresh   %+v",
								seed, s, carryQueries[qi], singleton, h.Tuple, h, f))
						}
					}
				}
				if v == 0 {
					for tk := range prev[k] {
						if _, still := cur[tk]; !still {
							cov.disappeared++
						}
					}
				}
				prev[k], prevOK[k] = cur, ok
			}
		}
	}
	return mismatches, msgs, cov
}

// TestDeltaCarriedDecompositionMatchesFresh is the differential test of
// the decomposition carry: along random primary-key lineages of 320
// writes, every live target's decomposition carried across ApplyInsert
// and ApplyDelete must equal a from-scratch decomposition — certainty,
// cluster order, signatures, radixes and requirements — under
// M^ur and M^{ur,1}. The lineages must meet every situation that
// decides whether a decomposition may be carried: tuples appearing and
// disappearing, a fixed fact's block growing, a block shrinking to one
// fact, a new image merging clusters, a write into a certain image's
// block and into a sampled cluster, and the image cap being crossed.
func TestDeltaCarriedDecompositionMatchesFresh(t *testing.T) {
	const steps = 320
	seeds := []int64{1, 2}
	var total carryCoverage
	for _, seed := range seeds {
		n, msgs, cov := runCarryLineage(t, seed, steps)
		if n > 0 {
			t.Fatalf("seed %d: %d carried decompositions differ from fresh ones:\n%s", seed, n, strings.Join(msgs, "\n"))
		}
		total.carried += cov.carried
		total.appeared += cov.appeared
		total.disappeared += cov.disappeared
		total.fixedGrew += cov.fixedGrew
		total.shrankToOne += cov.shrankToOne
		total.merged += cov.merged
		total.certainWritten += cov.certainWritten
		total.sampledWritten += cov.sampledWritten
		total.capCrossed += cov.capCrossed
	}
	t.Logf("coverage over %d lineages: %+v", len(seeds), total)
	for name, n := range map[string]int{
		"carried clusters": total.carried, "tuples appearing": total.appeared, "tuples disappearing": total.disappeared,
		"fixed block growing": total.fixedGrew, "block shrinking to one fact": total.shrankToOne,
		"clusters merging": total.merged, "write into a certain image's block": total.certainWritten,
		"write into a sampled cluster": total.sampledWritten, "image cap crossed": total.capCrossed,
	} {
		if n == 0 {
			t.Errorf("the lineages never met: %s", name)
		}
	}
}

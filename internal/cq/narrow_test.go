package cq

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rel"
)

// scanMatches is the full-scan reference for the narrowed search: a
// backtracking join over the string fact view in body order that tries
// every fact of the database for every atom. It renders each match as
// its homomorphism and matched fact indices. Only facts in the mask
// count when useMask is set; with anchor ≥ 0, atom anchor must match
// fact anchorFact.
func scanMatches(q *Query, d *rel.Database, mask rel.Subset, useMask bool, anchor, anchorFact int) map[string]bool {
	out := make(map[string]bool)
	h := make(Homomorphism)
	facts := make([]int, len(q.Atoms))
	var walk func(ai int)
	walk = func(ai int) {
		if ai == len(q.Atoms) {
			out[renderMatch(h, facts)] = true
			return
		}
		a := q.Atoms[ai]
		for fi, f := range d.Facts() {
			if f.Rel != a.Rel || len(f.Args) != len(a.Terms) || (useMask && !mask.Has(fi)) || (ai == anchor && fi != anchorFact) {
				continue
			}
			var bound []string
			ok := true
			for k, t := range a.Terms {
				switch v, seen := h[t.Value]; {
				case !t.IsVar:
					ok = t.Value == f.Args[k]
				case seen:
					ok = v == f.Args[k]
				default:
					h[t.Value] = f.Args[k]
					bound = append(bound, t.Value)
				}
				if !ok {
					break
				}
			}
			if ok {
				facts[ai] = fi
				walk(ai + 1)
			}
			for _, v := range bound {
				delete(h, v)
			}
		}
	}
	walk(0)
	return out
}

// renderMatch is the canonical string of one match.
func renderMatch(h Homomorphism, facts []int) string {
	parts := make([]string, 0, len(h))
	for v, c := range h {
		parts = append(parts, fmt.Sprintf("%s=%q", v, c))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",") + fmt.Sprint(facts)
}

// narrowFixture builds a random database over two relations with mixed
// arities (zero-argument rows included) and prefix-sharing constants,
// and a random 1–3 atom query whose atoms are led by constants (present
// or absent), by join variables bound earlier, or by fresh variables.
func narrowFixture(rng *rand.Rand) (*rel.Database, *Query) {
	pool := []string{"", "a", "ab", "b", "ba", "c"}
	var facts []rel.Fact
	for i, n := 0, 10+rng.Intn(40); i < n; i++ {
		args := make([]string, rng.Intn(4))
		for k := range args {
			args[k] = pool[rng.Intn(len(pool))]
		}
		facts = append(facts, rel.NewFact([]string{"R", "S"}[rng.Intn(2)], args...))
	}
	term := func() Term {
		if rng.Intn(3) == 0 {
			return Const(append(pool, "zz")[rng.Intn(len(pool)+1)])
		}
		return Var([]string{"x", "y", "z"}[rng.Intn(3)])
	}
	atoms := make([]Atom, 1+rng.Intn(3))
	for i := range atoms {
		terms := make([]Term, 1+rng.Intn(3))
		for k := range terms {
			terms[k] = term()
		}
		atoms[i] = NewAtom([]string{"R", "S"}[rng.Intn(2)], terms...)
	}
	var ans []string
	if t := atoms[0].Terms[0]; t.IsVar && rng.Intn(2) == 0 {
		ans = []string{t.Value}
	}
	return rel.NewDatabase(facts...), MustNew(ans, atoms...)
}

// TestNarrowedSearchMatchesFullScan: every search entry point — the
// unmasked enumeration behind compile, the masked entailment and
// enumeration of the per-draw path, and the anchored search of
// incremental witness discovery — finds exactly the full scan's matches,
// however each atom's first term is fixed.
func TestNarrowedSearchMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var constLed, joinLed, anchored int
	for trial := 0; trial < 400; trial++ {
		d, q := narrowFixture(rng)
		seen := make(map[string]bool)
		for _, a := range q.Atoms {
			switch first := a.Terms[0]; {
			case !first.IsVar:
				constLed++
			case seen[first.Value]:
				joinLed++
			}
			for _, t := range a.Terms {
				seen[t.Value] = seen[t.Value] || t.IsVar
			}
		}
		want := scanMatches(q, d, rel.Subset{}, false, -1, -1)
		got := make(map[string]bool)
		q.HomomorphismsMatched(d, func(h Homomorphism, facts []int) bool {
			got[renderMatch(h, facts)] = true
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d, %v over %v:\nnarrowed %v\nfull scan %v", trial, q, d, got, want)
		}

		mask := rel.NewSubset(d.Len())
		for i := 0; i < d.Len(); i++ {
			if rng.Intn(3) > 0 {
				mask.Set(i)
			}
		}
		c := q.CompileFor(d)
		wantMasked := scanMatches(q, d, mask, true, -1, -1)
		gotMasked := make(map[string]bool)
		c.bindings(mask, true, nil, func(binding []int32, facts []int) bool {
			gotMasked[renderMatch(c.homomorphism(binding), facts)] = true
			return true
		})
		if fmt.Sprint(gotMasked) != fmt.Sprint(wantMasked) {
			t.Fatalf("trial %d, masked %v over %v:\nnarrowed %v\nfull scan %v", trial, q, d, gotMasked, wantMasked)
		}
		if c.EntailsIn(mask) != (len(wantMasked) > 0) {
			t.Fatalf("trial %d: EntailsIn = %v, full scan finds %d matches", trial, c.EntailsIn(mask), len(wantMasked))
		}

		for ai := range q.Atoms {
			for fi := 0; fi < d.Len(); fi++ {
				wantA := scanMatches(q, d, rel.Subset{}, false, ai, fi)
				gotA := make(map[string]bool)
				c.AnchoredMatches(ai, fi, func(binding []int32, facts []int) bool {
					gotA[renderMatch(c.homomorphism(binding), facts)] = true
					return true
				})
				if fmt.Sprint(gotA) != fmt.Sprint(wantA) {
					t.Fatalf("trial %d, %v anchored at atom %d on fact %d (%v):\nnarrowed %v\nfull scan %v",
						trial, q, ai, fi, d.Fact(fi), gotA, wantA)
				}
				anchored += len(wantA)
			}
		}
	}
	if constLed == 0 || joinLed == 0 || anchored == 0 {
		t.Fatalf("fixtures exercised %d constant-led and %d join-led atoms, %d anchored matches",
			constLed, joinLed, anchored)
	}
}

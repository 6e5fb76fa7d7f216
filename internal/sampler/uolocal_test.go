package sampler

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/rel"
	"repro/internal/workload"
)

// The law test: UOLocal's leaves against the exact semantics [[D]]_{M^uo}
// (SemanticsUO) on small random instances under primary keys, keys and
// general FDs, in M^uo and M^{uo,1}. Both the whole-repair frequencies
// (a χ² test over the support) and the per-fact survival frequencies
// (binomial bounds) are checked at fixed seeds; the seeded-fault table
// shows that the same checks reject each fault listed there.

const (
	// lawRepairDraws draw a whole repair each, every fact decided, in a
	// shuffled order; lawFactDraws per fact ask that one fact alone.
	lawRepairDraws = 12000
	lawFactDraws   = 4000
	// lawZ is the normal quantile behind both tolerances: 5σ, a
	// one-sided tail below 3e-7 per statistic.
	lawZ = 5.0
)

// lawCase is one instance and operation space of the law test.
type lawCase struct {
	name      string
	inst      *core.Instance
	singleton bool
}

// lawCases draws two scenarios per constraint class, each with at least
// three operational repairs under both operation spaces, and pairs each
// with both operation spaces: 12 cases.
func lawCases(t *testing.T) []lawCase {
	rng := rand.New(rand.NewSource(20240617))
	var out []lawCase
	for _, class := range []fd.Class{fd.PrimaryKeys, fd.Keys, fd.GeneralFDs} {
		for found := 0; found < 2; {
			sc := workload.RandomScenario(rng, workload.ScenarioSpec{Class: class, MaxFacts: 7})
			inst := sc.Core()
			rich := true
			for _, singleton := range []bool{false, true} {
				sem, err := inst.SemanticsUO(singleton, 0)
				if err != nil {
					t.Fatal(err)
				}
				rich = rich && len(sem) >= 3
			}
			if !rich {
				continue
			}
			found++
			for _, singleton := range []bool{false, true} {
				out = append(out, lawCase{fmt.Sprintf("%v#%d/singleton=%v", class, found, singleton), inst, singleton})
			}
		}
	}
	return out
}

// leafDrawer builds a fresh draw function for a case: each call returns
// the repair of one draw, with every fact decided in the given order.
type leafDrawer func(inst *core.Instance, singleton bool) func(rng *rand.Rand, order []int) rel.Subset

// localDrawer is the sampler under test.
func localDrawer(inst *core.Instance, singleton bool) func(*rand.Rand, []int) rel.Subset {
	s := NewUOLocal(inst.Adjacency(), singleton)
	return func(rng *rand.Rand, order []int) rel.Subset {
		s.Draw(rng)
		out := rel.NewSubset(inst.D.Len())
		for _, f := range order {
			if s.Has(f) {
				out.Set(f)
			}
		}
		return out
	}
}

// lawMismatch draws from the case with newDraw and returns a
// description of every statistic outside its tolerance, or "" when the
// draws fit the exact law.
func lawMismatch(c lawCase, newDraw leafDrawer, seed int64) string {
	sem, err := c.inst.SemanticsUO(c.singleton, 0)
	if err != nil {
		return err.Error()
	}
	n := c.inst.D.Len()
	exact := make(map[string]float64, len(sem))
	marg := make([]float64, n)
	for _, rp := range sem {
		p, _ := rp.Prob.Float64()
		exact[rp.Repair.Key()] = p
		for _, f := range rp.Repair.Indices() {
			marg[f] += p
		}
	}
	draw := newDraw(c.inst, c.singleton)
	rng := rand.New(rand.NewSource(seed))
	var bad []string

	// Whole repairs: every fact decided, in a fresh random order.
	order := rng.Perm(n)
	counts := map[string]int{}
	for i := 0; i < lawRepairDraws; i++ {
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		res := draw(rng, order)
		if _, ok := exact[res.Key()]; !ok {
			return fmt.Sprintf("drew %v, outside the support of the exact semantics", res.Indices())
		}
		counts[res.Key()]++
	}
	chi2 := 0.0
	for k, p := range exact {
		e := p * lawRepairDraws
		d := float64(counts[k]) - e
		chi2 += d * d / e
	}
	if lim := chi2Quantile(len(exact)-1, lawZ); chi2 > lim {
		bad = append(bad, fmt.Sprintf("χ² over %d repairs = %.1f > %.1f", len(exact), chi2, lim))
	}

	// Per fact: draws that decide that one fact alone.
	for f := 0; f < n; f++ {
		hits := 0
		for i := 0; i < lawFactDraws; i++ {
			if draw(rng, []int{f}).Has(f) {
				hits++
			}
		}
		if lim := binomialTolerance(lawFactDraws, marg[f], lawZ); math.Abs(float64(hits)-marg[f]*lawFactDraws) > lim {
			bad = append(bad, fmt.Sprintf("fact %d survives %d/%d, exact %.4f", f, hits, lawFactDraws, marg[f]))
		}
	}
	return strings.Join(bad, "; ")
}

// binomialTolerance bounds |hits − np| for n Bernoulli(p) draws at z
// standard deviations, plus one for the discreteness; a certain event
// (p ∈ {0, 1}) must be hit exactly.
func binomialTolerance(n int, p, z float64) float64 {
	if p < 1e-12 || p > 1-1e-12 {
		return 0.5
	}
	return z*math.Sqrt(float64(n)*p*(1-p)) + 1
}

// chi2Quantile is the Wilson–Hilferty approximation of the χ²
// distribution's upper quantile with df degrees of freedom at the
// normal quantile z.
func chi2Quantile(df int, z float64) float64 {
	k := float64(df)
	a := 2 / (9 * k)
	return k * math.Pow(1-a+z*math.Sqrt(a), 3)
}

func TestUOLocalMatchesExactLaw(t *testing.T) {
	for i, c := range lawCases(t) {
		if msg := lawMismatch(c, localDrawer, int64(1000+i)); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
	}
}

// TestUOLocalLawCatchesFaults is the law test's power table: each
// seeded fault, built into the plain random-order scan below, must fail
// lawMismatch on at least one of the law test's cases at the same
// seeds, while the faultless scan passes on every case — which also
// checks the random-order equivalence independently of UOLocal's local
// recursion.
func TestUOLocalLawCatchesFaults(t *testing.T) {
	cases := lawCases(t)
	for _, f := range []uoFault{faultNone, faultSingletonUnchecked, faultPairsInSingleton, faultRanksReused, faultPairOneEndpoint} {
		caught := 0
		for i, c := range cases {
			msg := lawMismatch(c, scanDrawer(f), int64(1000+i))
			if msg == "" {
				continue
			}
			caught++
			if f == faultNone {
				t.Errorf("faultless scan failed %s: %s", c.name, msg)
			}
		}
		if f != faultNone && caught == 0 {
			t.Errorf("fault %q passed the law test on all %d cases", f, len(cases))
		}
		t.Logf("%-45q fails %2d of %d cases", f, caught, len(cases))
	}
}

// uoFault names one seeded fault of the random-order scan.
type uoFault string

const (
	faultNone               uoFault = "none"
	faultSingletonUnchecked uoFault = "singleton op without a present neighbour"
	faultPairsInSingleton   uoFault = "pair ops under M^{uo,1}"
	faultRanksReused        uoFault = "ranks reused across draws"
	faultPairOneEndpoint    uoFault = "pair op checked against one endpoint"
)

// scanDrawer is the random-order process written out globally: rank
// every potential operation, scan them all in rank order, apply each
// one still justified — with the given fault built in.
func scanDrawer(fault uoFault) leafDrawer {
	return func(inst *core.Instance, singleton bool) func(*rand.Rand, []int) rel.Subset {
		n := inst.D.Len()
		adj := inst.Adjacency()
		pairs := inst.ConflictPairs()
		type op struct {
			rank uint64
			i, j int
		}
		var ops []op
		for f := 0; f < n; f++ {
			if adj.Start[f+1] > adj.Start[f] {
				ops = append(ops, op{i: f, j: -1})
			}
		}
		if !singleton || fault == faultPairsInSingleton {
			for _, p := range pairs {
				ops = append(ops, op{i: p[0], j: p[1]})
			}
		}
		ranked := false
		present := make([]bool, n)
		return func(rng *rand.Rand, _ []int) rel.Subset {
			if !ranked || fault != faultRanksReused {
				for k := range ops {
					ops[k].rank = rng.Uint64()
				}
				sort.Slice(ops, func(a, b int) bool { return ops[a].rank < ops[b].rank })
				ranked = true
			}
			for f := range present {
				present[f] = true
			}
			for _, o := range ops {
				if !present[o.i] {
					continue
				}
				if o.j >= 0 {
					if present[o.j] || fault == faultPairOneEndpoint {
						present[o.i], present[o.j] = false, false
					}
					continue
				}
				justified := fault == faultSingletonUnchecked
				for k := adj.Start[o.i]; k < adj.Start[o.i+1]; k++ {
					justified = justified || present[adj.Nbr[k]]
				}
				if justified {
					present[o.i] = false
				}
			}
			out := rel.NewSubset(n)
			for f, p := range present {
				if p {
					out.Set(f)
				}
			}
			return out
		}
	}
}

// TestUOLocalDrawsAreConsistent: within a draw, a fact asked again
// gets the same answer and the decided facts form a consistent
// sub-database; two samplers on equal streams asked in the same order
// decide alike, across the stamps' wrap-around too.
func TestUOLocalDrawsAreConsistent(t *testing.T) {
	w := workload.MultiKeyDatabase(rand.New(rand.NewSource(3)), 300, 100)
	inst := w.Core()
	n := inst.D.Len()
	for _, singleton := range []bool{false, true} {
		a := NewUOLocal(inst.Adjacency(), singleton)
		b := NewUOLocal(inst.Adjacency(), singleton)
		// b's first draw wraps its generation around to 1, the stamp of
		// stale state that the wrap must clear.
		b.gen = math.MaxUint32
		for f := range b.stamp {
			b.stamp[f] = 1
		}
		for p := range b.pairStamp {
			b.pairStamp[p] = 1
		}
		ra, rb := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		order := rand.New(rand.NewSource(4))
		for d := 0; d < 50; d++ {
			a.Draw(ra)
			b.Draw(rb)
			got := rel.NewSubset(n)
			for _, f := range order.Perm(n) {
				has := a.Has(f)
				if b.Has(f) != has {
					t.Fatalf("singleton=%v draw %d: fact %d differs on equal streams", singleton, d, f)
				}
				if has {
					got.Set(f)
				}
			}
			for f := 0; f < n; f++ {
				if a.Has(f) != got.Has(f) {
					t.Fatalf("singleton=%v draw %d: fact %d changed its answer", singleton, d, f)
				}
			}
			if !inst.IsConsistent(got) {
				t.Fatalf("singleton=%v draw %d: inconsistent leaf", singleton, d)
			}
		}
	}
}

package core

import (
	"math/big"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/rel"
)

// This file implements candidate operational repairs (Section 3) via
// the conflict-graph characterisation of Lemma 5.4 and Lemma E.4:
//
//   - facts in trivial components of CG(D,Σ) (no conflicts) survive in
//     every candidate repair;
//   - per non-trivially connected component C, the reachable results
//     are exactly the independent sets of C (the non-empty ones when
//     only singleton operations are allowed);
//   - components repair independently, so CORep(D,Σ) is the product.
//
// This yields polynomial-delay enumeration and product-form counting —
// for primary keys the components are the blocks (cliques) and the
// count collapses to Π(|B_i|+1), the formula in the proof of Lemma 5.2.

// ConflictGraph materialises CG(D,Σ) as a graph over fact indices.
func (inst *Instance) ConflictGraph() *graph.Graph {
	g := graph.New(inst.D.Len())
	for _, p := range inst.ConflictPairs() {
		g.AddEdge(p[0], p[1])
	}
	return g
}

// repairComponents splits the fact indices into the always-surviving
// trivial facts and the nontrivial connected components of CG(D,Σ).
func (inst *Instance) repairComponents() (trivial []int, comps [][]int) {
	g := inst.ConflictGraph()
	for _, comp := range g.Components() {
		if len(comp) == 1 && g.Degree(comp[0]) == 0 {
			trivial = append(trivial, comp[0])
		} else {
			comps = append(comps, comp)
		}
	}
	return trivial, comps
}

// CountCandidateRepairs computes |CORep(D,Σ)| (with singleton set,
// |CORep^1(D,Σ)|) exactly in time polynomial in ‖D‖ times the cost of
// exact independent-set counting per conflict component.
func (inst *Instance) CountCandidateRepairs(singleton bool) *big.Int {
	_, comps := inst.repairComponents()
	g := inst.ConflictGraph()
	total := big.NewInt(1)
	for _, comp := range comps {
		sub := g.InducedSubgraph(comp)
		var c *big.Int
		if singleton {
			c = sub.CountNonEmptyIndependentSets()
		} else {
			c = sub.CountIndependentSets()
		}
		total.Mul(total, c)
	}
	return total
}

// CandidateRepairs enumerates CORep(D,Σ) (or CORep^1 with singleton
// set) as subsets of D, invoking yield for each; enumeration stops when
// yield returns false. The order is deterministic.
func (inst *Instance) CandidateRepairs(singleton bool, yield func(rel.Subset) bool) {
	trivial, comps := inst.repairComponents()
	g := inst.ConflictGraph()

	// Pre-enumerate the independent sets of each component.
	perComp := make([][][]int, len(comps))
	for ci, comp := range comps {
		sub := g.InducedSubgraph(comp)
		var sets [][]int
		sub.IndependentSets(func(s []int) bool {
			if singleton && len(s) == 0 {
				return true
			}
			// Translate back to global fact indices.
			global := make([]int, len(s))
			for i, v := range s {
				global[i] = comp[v]
			}
			sets = append(sets, global)
			return true
		})
		perComp[ci] = sets
	}

	base := rel.NewSubset(inst.D.Len())
	for _, i := range trivial {
		base.Set(i)
	}
	stopped := false
	var recur func(ci int, cur rel.Subset)
	recur = func(ci int, cur rel.Subset) {
		if stopped {
			return
		}
		if ci == len(comps) {
			if !yield(cur.Clone()) {
				stopped = true
			}
			return
		}
		for _, set := range perComp[ci] {
			next := cur.Clone()
			for _, i := range set {
				next.Set(i)
			}
			recur(ci+1, next)
			if stopped {
				return
			}
		}
	}
	recur(0, base)
}

// IsCandidateRepair reports whether the subset is a candidate repair:
// consistent, contains every trivial fact, and (with singleton set)
// leaves no nontrivial component empty.
func (inst *Instance) IsCandidateRepair(s rel.Subset, singleton bool) bool {
	if !inst.IsConsistent(s) {
		return false
	}
	trivial, comps := inst.repairComponents()
	for _, i := range trivial {
		if !s.Has(i) {
			return false
		}
	}
	if singleton {
		for _, comp := range comps {
			nonEmpty := false
			for _, i := range comp {
				if s.Has(i) {
					nonEmpty = true
					break
				}
			}
			if !nonEmpty {
				return false
			}
		}
	}
	return true
}

// RRFreq computes the repair relative frequency (Section 5):
// rrfreq_{Σ,Q}(D,c̄) = |{D' ∈ CORep | pred(D')}| / |CORep|, where pred
// is the entailment check; with singleton set, rrfreq^1 (Appendix E.1).
// It equals P_{M^ur,Q}(D,c̄) by Proposition A.2. The cost is
// proportional to |CORep|; limit (0 = unlimited) bounds the number of
// repairs visited.
func (inst *Instance) RRFreq(singleton bool, limit int, pred func(rel.Subset) bool) (*big.Rat, error) {
	total := inst.CountCandidateRepairs(singleton)
	good := big.NewInt(0)
	visited := 0
	var overflow bool
	inst.CandidateRepairs(singleton, func(s rel.Subset) bool {
		visited++
		if limit > 0 && visited > limit {
			overflow = true
			return false
		}
		if pred(s) {
			good.Add(good, big.NewInt(1))
		}
		return true
	})
	if overflow {
		return nil, StateLimitError{Limit: limit}
	}
	if total.Sign() == 0 {
		// Only possible with singleton ops... it is not: every
		// nontrivial component has a nonempty independent set. Guard
		// anyway.
		return nil, StateLimitError{}
	}
	return new(big.Rat).SetFrac(good, total), nil
}

// SemanticsUR computes [[D]]_{M^ur} exactly: by Proposition A.2 the
// distribution is uniform over CORep(D,Σ).
func (inst *Instance) SemanticsUR(singleton bool, limit int) ([]RepairProb, error) {
	total := inst.CountCandidateRepairs(singleton)
	var out []RepairProb
	visited := 0
	var overflow bool
	inst.CandidateRepairs(singleton, func(s rel.Subset) bool {
		visited++
		if limit > 0 && visited > limit {
			overflow = true
			return false
		}
		out = append(out, RepairProb{Repair: s, Prob: new(big.Rat).SetFrac(big.NewInt(1), total)})
		return true
	})
	if overflow {
		return nil, StateLimitError{Limit: limit}
	}
	sortRepairProbs(out)
	return out, nil
}

// RepairSampler draws uniform candidate repairs of (D, Σ) for
// arbitrary FDs, by sampling a uniform independent set of each
// nontrivial conflict component (Lemma 5.4 identifies the two). The
// per-component cost is that of exact independent-set counting, so the
// sampler is polynomial for bounded component sizes (and in particular
// for primary keys, where components are blocks); internal/sampler's
// BlockSampler remains the specialised fast path.
type RepairSampler struct {
	inst     *Instance
	trivial  []int
	comps    [][]int
	samplers []*graph.ISSampler
}

// NewRepairSampler prepares the component samplers.
func (inst *Instance) NewRepairSampler() *RepairSampler {
	rs := &RepairSampler{inst: inst}
	rs.trivial, rs.comps = inst.repairComponents()
	g := inst.ConflictGraph()
	for _, comp := range rs.comps {
		rs.samplers = append(rs.samplers, graph.NewISSampler(g.InducedSubgraph(comp)))
	}
	return rs
}

// Sample draws a uniform element of CORep(D,Σ) (or CORep^1 with
// singleton set: per component, a uniform non-empty independent set).
func (rs *RepairSampler) Sample(rng *rand.Rand, singleton bool) rel.Subset {
	s := rel.NewSubset(rs.inst.D.Len())
	for _, i := range rs.trivial {
		s.Set(i)
	}
	for ci, smp := range rs.samplers {
		var set []int
		if singleton {
			set = smp.SampleNonEmpty(rng)
		} else {
			set = smp.Sample(rng)
		}
		for _, v := range set {
			s.Set(rs.comps[ci][v])
		}
	}
	return s
}

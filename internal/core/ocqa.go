package core

import (
	"math/big"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/rel"
)

// This file exposes the exact OCQA problem (Section 3): computing
// P_{M_Σ,Q}(D, c̄) for the uniform generators, and the operational
// consistent answers. All functions take a state budget (limit, 0 =
// unlimited) and return StateLimitError when exact computation is
// infeasible; the polynomial path is sampling (internal/sampler +
// internal/fpras).

// EntailPred builds the predicate "c̄ ∈ Q(D')" over subsets of D. The
// homomorphism search runs against the subset mask directly (candidate
// facts are tested by index against the bitset), so no sub-database is
// ever materialised — this is the fallback entailment check of the
// Monte-Carlo hot loop when the witness compilation overflows.
func (inst *Instance) EntailPred(q *cq.Query, c cq.Tuple) func(rel.Subset) bool {
	return func(s rel.Subset) bool {
		return q.HasAnswerIn(inst.D, s, c)
	}
}

// ExactProbability computes P_{M,Q}(D, c̄) exactly under the given mode:
//
//   - UniformRepairs: the repair relative frequency rrfreq (the
//     restatement of Section 5, justified by Proposition A.2);
//   - UniformSequences: the sequence relative frequency srfreq
//     (Section 6, Proposition A.4);
//   - UniformOperations: the leaf-distribution sum over the state DAG
//     (Proposition A.6).
func (inst *Instance) ExactProbability(mode Mode, q *cq.Query, c cq.Tuple, limit int) (*big.Rat, error) {
	pred := inst.EntailPred(q, c)
	switch mode.Gen {
	case UniformRepairs:
		return inst.RRFreq(mode.Singleton, limit, pred)
	case UniformSequences:
		return inst.SRFreq(mode.Singleton, limit, pred)
	case UniformOperations:
		return inst.ProbUO(mode.Singleton, limit, pred)
	default:
		panic("core: unknown generator")
	}
}

// Semantics computes the operational semantics [[D]]_M exactly under
// the given mode.
func (inst *Instance) Semantics(mode Mode, limit int) ([]RepairProb, error) {
	switch mode.Gen {
	case UniformRepairs:
		return inst.SemanticsUR(mode.Singleton, limit)
	case UniformSequences:
		return inst.SemanticsUS(mode.Singleton, limit)
	case UniformOperations:
		return inst.SemanticsUO(mode.Singleton, limit)
	default:
		panic("core: unknown generator")
	}
}

// ConsistentAnswer pairs an answer tuple with its probability.
type ConsistentAnswer struct {
	Tuple cq.Tuple
	Prob  *big.Rat
}

// ConsistentAnswers computes the operational consistent answers to Q
// over D under the given mode: every tuple of Q(D) together with its
// probability (tuples outside Q(D) have probability 0 by monotonicity
// of CQs and are omitted). Results are sorted by tuple.
//
// All tuples share ONE pass over the repair space: the exact repair
// distribution [[D]]_M is computed once (the same Semantics engine a
// single-tuple ExactProbability walks per call) and marginalised per
// tuple through the compiled multi-tuple witness predicate, so K
// candidate answers cost one repair-space walk instead of K.
func (inst *Instance) ConsistentAnswers(mode Mode, q *cq.Query, limit int) ([]ConsistentAnswer, error) {
	return inst.ConsistentAnswersWith(inst.CompileMultiPred(q, 0), mode, limit)
}

// ConsistentAnswersWith is ConsistentAnswers over an already compiled
// multi-tuple witness predicate — the entry point for callers that
// cache compiled witness sets per query.
//
// M^ur streams: its distribution is uniform over CORep (Proposition
// A.2), so one CandidateRepairs walk accumulates every tuple's hit
// count in O(K) memory — the multi-predicate form of RRFreq, never
// materialising the repair list. The DAG generators marginalise the
// Semantics result; their engines already hold every reachable state
// in memory to propagate masses, so the repair list adds no
// asymptotic cost there.
func (inst *Instance) ConsistentAnswersWith(mp *MultiPred, mode Mode, limit int) ([]ConsistentAnswer, error) {
	tuples := mp.Tuples()
	out := make([]ConsistentAnswer, 0, len(tuples))
	if len(tuples) == 0 {
		return out, nil
	}
	hits := make([]bool, len(tuples))
	if mode.Gen == UniformRepairs {
		total := inst.CountCandidateRepairs(mode.Singleton)
		if total.Sign() == 0 {
			return nil, StateLimitError{}
		}
		good := make([]*big.Int, len(tuples))
		for t := range good {
			good[t] = big.NewInt(0)
		}
		one := big.NewInt(1)
		visited := 0
		var overflow bool
		inst.CandidateRepairs(mode.Singleton, func(s rel.Subset) bool {
			visited++
			if limit > 0 && visited > limit {
				overflow = true
				return false
			}
			mp.Eval(s, hits)
			for t, hit := range hits {
				if hit {
					good[t].Add(good[t], one)
				}
			}
			return true
		})
		if overflow {
			return nil, StateLimitError{Limit: limit}
		}
		for t, c := range tuples {
			out = append(out, ConsistentAnswer{Tuple: c, Prob: new(big.Rat).SetFrac(good[t], total)})
		}
		return out, nil
	}
	sem, err := inst.Semantics(mode, limit)
	if err != nil {
		return nil, err
	}
	for _, c := range tuples {
		out = append(out, ConsistentAnswer{Tuple: c, Prob: new(big.Rat)})
	}
	for _, rp := range sem {
		mp.Eval(rp.Repair, hits)
		for t, hit := range hits {
			if hit {
				out[t].Prob.Add(out[t].Prob, rp.Prob)
			}
		}
	}
	return out, nil
}

// DefaultMaxImages is the witness-image cap applied when a caller
// passes maxImages ≤ 0 to TargetImages or CompileMultiPred: past it,
// the compiled predicate would cost more per draw than the fallback
// subset-mask search it replaces.
const DefaultMaxImages = 4096

// canonWitness canonicalises the matched fact indices of one
// homomorphic image: sorted, deduplicated (two atoms may match the
// same fact), written into buf, together with a compact byte-string
// key for the dedup map. Keying on fact indices replaces the full text
// rendering of the image the previous implementation rebuilt per
// homomorphism at prepare time.
func canonWitness(facts []int, buf []int) ([]int, string) {
	buf = append(buf[:0], facts...)
	sort.Ints(buf)
	w := buf[:0]
	for i, idx := range buf {
		if i > 0 && idx == buf[i-1] {
			continue
		}
		w = append(w, idx)
	}
	var b strings.Builder
	b.Grow(4 * len(w))
	for _, idx := range w {
		b.WriteByte(byte(idx >> 24))
		b.WriteByte(byte(idx >> 16))
		b.WriteByte(byte(idx >> 8))
		b.WriteByte(byte(idx))
	}
	return w, b.String()
}

// Images are the compiled witness images of one target tuple c̄: the
// distinct homomorphic images h(Q) ⊆ D with h(x̄) = c̄, each a sorted
// fact-index set. By CQ monotonicity, c̄ ∈ Q(D') for D' ⊆ D iff some
// image is contained in D', so an empty list means c̄ ∉ Q(D) and the
// target's probability is 0 under every generator.
type Images [][]int

// Holds reports whether some image is fully contained in the
// sub-database m identifies. m is any fact-membership test: a drawn
// rel.Subset, or a sampler that decides one fact's survival on demand
// (sampler.UOLocal) — both run this one loop, which stops at the first
// image found and tests each image's facts only until one is missing.
func Holds[M interface{ Has(int) bool }](ws Images, m M) bool {
	for _, w := range ws {
		all := true
		for _, idx := range w {
			if !m.Has(idx) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// TargetImages compiles the witness images of the tuple c̄ with one
// homomorphism enumeration; images are deduplicated by their sorted
// fact-index sets, read directly off the matched facts. A tuple of the
// wrong arity has no image. It returns ok=false (and no images) when
// the number of images exceeds maxImages (0 means DefaultMaxImages);
// callers then fall back to EntailPred.
func (inst *Instance) TargetImages(q *cq.Query, c cq.Tuple, maxImages int) (Images, bool) {
	if maxImages <= 0 {
		maxImages = DefaultMaxImages
	}
	if len(c) != len(q.AnswerVars) {
		return nil, true
	}
	var witnesses Images
	seen := make(map[string]bool)
	overflow := false
	scratch := make([]int, 0, len(q.Atoms))
	q.HomomorphismsMatched(inst.D, func(h cq.Homomorphism, facts []int) bool {
		for i, v := range q.AnswerVars {
			if h[v] != c[i] {
				return true
			}
		}
		w, key := canonWitness(facts, scratch)
		if seen[key] {
			return true
		}
		seen[key] = true
		witnesses = append(witnesses, append([]int(nil), w...))
		if len(witnesses) > maxImages {
			overflow = true
			return false
		}
		return true
	})
	if overflow {
		return nil, false
	}
	return witnesses, true
}

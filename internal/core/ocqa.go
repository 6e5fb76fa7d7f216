package core

import (
	"math/big"

	"repro/internal/cq"
	"repro/internal/rel"
)

// This file exposes the exact OCQA problem (Section 3): computing
// P_{M_Σ,Q}(D, c̄) for the uniform generators, and the operational
// consistent answers. All functions take a state budget (limit, 0 =
// unlimited) and return StateLimitError when exact computation is
// infeasible; the polynomial path is sampling (internal/sampler +
// internal/fpras).

// EntailPred builds the predicate "c̄ ∈ Q(D')" over subsets of D by the
// homomorphism search alone: the plan is compiled once and searched
// against the subset mask directly (candidate facts are tested by index
// against the bitset), so no sub-database is ever materialised. It is
// the reference the witness-image predicates are tested against, and
// the experiments' predicate.
func (inst *Instance) EntailPred(q *cq.Query, c cq.Tuple) func(rel.Subset) bool {
	plan := q.CompileFor(inst.D)
	return func(s rel.Subset) bool { return plan.HasAnswerIn(s, c) }
}

// TargetPred is the predicate "c̄ ∈ Q(D')" the exact single-tuple
// engines evaluate: c̄'s row of CompileTarget, or the constant false
// when c̄ has no image.
func (inst *Instance) TargetPred(q *cq.Query, c cq.Tuple) func(rel.Subset) bool {
	mp := inst.CompileTarget(q, c, 0)
	if len(mp.Tuples()) == 0 {
		return func(rel.Subset) bool { return false }
	}
	return mp.Pred(0)
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
	pred := inst.TargetPred(q, c)
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

package core

import (
	"sort"

	"repro/internal/cq"
	"repro/internal/rel"
)

// This file implements the multi-tuple form of the witness-image
// predicate: ONE homomorphism enumeration compiles the witness sets of
// EVERY candidate answer tuple of Q(D), so one drawn subset can be
// mapped to the full vector of satisfied tuples. It is the shared
// substrate of the exact ConsistentAnswers pass and the shared-draw
// Monte-Carlo answers estimation — the per-tuple probabilities of the
// operational semantics are defined over the SAME repair distribution,
// so one repair draw (or one exact repair-space walk) can serve all of
// them.

// MultiPred maps one subset D' ⊆ D to the set of candidate answer
// tuples c̄ with c̄ ∈ Q(D'). For most tuples the test runs over
// precompiled witness index sets (some homomorphic image contained in
// D', by CQ monotonicity); tuples whose image count exceeded the
// compile cap are instead evaluated by the subset-mask homomorphism
// search — still no sub-database materialisation. A MultiPred is
// immutable after compilation and safe for concurrent Eval calls.
type MultiPred struct {
	inst *Instance
	q    *cq.Query
	// tuples are the candidate answers Q(D), sorted by Tuple.Key — the
	// target order of Eval's out vector.
	tuples []cq.Tuple
	// witnesses[t] lists tuple t's distinct homomorphic images as
	// sorted fact-index sets; nil exactly when overflow[t].
	witnesses [][][]int
	// overflow[t] marks tuples whose image count exceeded maxImages;
	// Eval falls back to the mask-restricted search for them.
	overflow  []bool
	nOverflow int
}

// CompileMultiPred enumerates the homomorphisms from Q to D once and
// compiles, per candidate answer tuple, the deduplicated witness-image
// index sets. maxImages caps the images kept per tuple (0 means
// DefaultMaxImages); a tuple past the cap drops its compiled set and
// is marked for the fallback search — the enumeration still completes,
// because other tuples' sets are only discovered by the same pass.
func (inst *Instance) CompileMultiPred(q *cq.Query, maxImages int) *MultiPred {
	if maxImages <= 0 {
		maxImages = DefaultMaxImages
	}
	mp := &MultiPred{inst: inst, q: q}
	byKey := make(map[string]int)
	var seen []map[string]bool // per tuple: witness keys already kept
	scratch := make([]int, 0, len(q.Atoms))
	q.HomomorphismsMatched(inst.D, func(h cq.Homomorphism, facts []int) bool {
		tup := make(cq.Tuple, len(q.AnswerVars))
		for i, v := range q.AnswerVars {
			tup[i] = h[v]
		}
		ti, ok := byKey[tup.Key()]
		if !ok {
			ti = len(mp.tuples)
			byKey[tup.Key()] = ti
			mp.tuples = append(mp.tuples, tup)
			mp.witnesses = append(mp.witnesses, nil)
			mp.overflow = append(mp.overflow, false)
			seen = append(seen, make(map[string]bool))
		}
		if mp.overflow[ti] {
			return true
		}
		w, key := canonWitness(facts, scratch)
		if seen[ti][key] {
			return true
		}
		seen[ti][key] = true
		mp.witnesses[ti] = append(mp.witnesses[ti], append([]int(nil), w...))
		if len(mp.witnesses[ti]) > maxImages {
			mp.overflow[ti] = true
			mp.witnesses[ti] = nil // release: the fallback search replaces it
			seen[ti] = nil
			mp.nOverflow++
		}
		return true
	})
	mp.sortTuples()
	return mp
}

// sortTuples orders the targets by Tuple.Key — the order q.Answers
// returns and every consumer sorts by — permuting the per-tuple tables
// in lockstep.
func (mp *MultiPred) sortTuples() {
	ord := make([]int, len(mp.tuples))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(i, j int) bool { return mp.tuples[ord[i]].Key() < mp.tuples[ord[j]].Key() })
	tuples := make([]cq.Tuple, len(ord))
	witnesses := make([][][]int, len(ord))
	overflow := make([]bool, len(ord))
	for i, o := range ord {
		tuples[i], witnesses[i], overflow[i] = mp.tuples[o], mp.witnesses[o], mp.overflow[o]
	}
	mp.tuples, mp.witnesses, mp.overflow = tuples, witnesses, overflow
}

// Tuples returns the candidate answer tuples Q(D) in Eval's target
// order (sorted by Tuple.Key). The slice must not be modified.
func (mp *MultiPred) Tuples() []cq.Tuple { return mp.tuples }

// OverflowCount reports how many tuples exceeded the image cap and are
// evaluated by the fallback search per draw.
func (mp *MultiPred) OverflowCount() int { return mp.nOverflow }

// TupleWitnesses exposes tuple t's compiled witness-image index sets,
// in Tuples() order. ok is false when the tuple overflowed the compile
// cap (no compiled sets exist). The returned slices are the compiled
// tables themselves and must not be modified — callers that maintain
// witness state across mutations (the delta-estimation layer) copy what
// they keep.
func (mp *MultiPred) TupleWitnesses(t int) ([][]int, bool) {
	if t < 0 || t >= len(mp.tuples) || mp.overflow[t] {
		return nil, false
	}
	return mp.witnesses[t], true
}

// Witnesses reports the total number of compiled witness index sets
// across all non-overflowed tuples.
func (mp *MultiPred) Witnesses() int {
	n := 0
	for _, ws := range mp.witnesses {
		n += len(ws)
	}
	return n
}

// Eval sets out[t] to whether tuple t is an answer of the sub-database
// identified by s, for every target t. len(out) must equal
// len(Tuples()). Safe for concurrent use with distinct out vectors.
func (mp *MultiPred) Eval(s rel.Subset, out []bool) {
	for t := range mp.tuples {
		out[t] = mp.evalOne(t, s)
	}
}

// EvalTargets is Eval restricted to the given ascending target
// indices (nil means all); out entries outside targets are left
// untouched. The stopping-rule driver uses it to stop paying for
// tuples whose estimate has already converged.
func (mp *MultiPred) EvalTargets(s rel.Subset, out []bool, targets []int) {
	if targets == nil {
		mp.Eval(s, out)
		return
	}
	for _, t := range targets {
		out[t] = mp.evalOne(t, s)
	}
}

// evalOne tests one tuple against the subset: compiled witness sets
// where available, the mask-restricted search past the image cap.
func (mp *MultiPred) evalOne(t int, s rel.Subset) bool {
	if mp.overflow[t] {
		return mp.q.HasAnswerIn(mp.inst.D, s, mp.tuples[t])
	}
	return Holds(mp.witnesses[t], s)
}

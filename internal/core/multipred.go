package core

import (
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/rel"
)

// This file holds the one witness-image collector. Every route of the
// operational CQA — exact, sampled and block-factorized — decides
// whether c̄ ∈ Q(D') from the images h(Q) ⊆ D with h(x̄) = c̄ (by CQ
// monotonicity, some image must lie in D'), so the images are the one
// object they all evaluate. collect compiles them from one of three
// match sources under one rule: every match (CompileMultiPred, whose one
// enumeration serves every candidate tuple of Q(D), so one drawn subset
// maps to the full vector of satisfied tuples — the substrate of the
// exact ConsistentAnswers pass and the shared-draw answers estimation),
// the matches with c̄ bound before the search (CompileTarget, a single
// target), and the matches anchored at an inserted fact
// (CompileAnchored, the images an insert creates).

// DefaultMaxImages is the witness-image cap applied when a caller
// passes maxImages ≤ 0 to a compile: past it, the compiled predicate
// would cost more per draw than the fallback subset-mask search it
// replaces.
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

// MultiPred maps one subset D' ⊆ D to the set of candidate answer
// tuples c̄ with c̄ ∈ Q(D'). For most tuples the test runs over
// precompiled witness index sets (some homomorphic image contained in
// D', by CQ monotonicity); tuples whose image count exceeded the
// compile cap are instead evaluated by the plan's subset-mask search —
// still no sub-database materialisation. A MultiPred is immutable after
// compilation and safe for concurrent Eval calls.
type MultiPred struct {
	// plan is the query compiled against D once; the rows past the image
	// cap are evaluated by its search.
	plan *cq.Compiled
	// tuples are the rows' answer tuples, sorted by Tuple.Key — the
	// target order of Eval's out vector.
	tuples []cq.Tuple
	// witnesses[t] lists tuple t's distinct homomorphic images as
	// sorted fact-index sets; nil exactly when overflow[t].
	witnesses []Images
	// overflow[t] marks tuples whose image count exceeded maxImages;
	// Eval falls back to the mask-restricted search for them.
	overflow  []bool
	nOverflow int
}

// CompileMultiPred compiles, from one enumeration of every match of Q
// in D, the witness images of every candidate answer tuple: one row per
// tuple of Q(D). maxImages caps the images kept per tuple (0 means
// DefaultMaxImages); a tuple past the cap drops its compiled set and is
// marked for the fallback search — the enumeration still completes,
// because other tuples' sets are only discovered by the same pass.
func (inst *Instance) CompileMultiPred(q *cq.Query, maxImages int) *MultiPred {
	plan := q.CompileFor(inst.D)
	return collect(plan, maxImages, func(yield func([]int32, []int) bool) { plan.Matches(nil, yield) })
}

// CompileTarget compiles the witness images of the one tuple c̄, with c̄
// bound into the answer slots before the search: a MultiPred of c̄'s row
// alone, equal to c̄'s row of CompileMultiPred, images and their order
// included, or of no row when c̄ has no image (a tuple of the wrong arity
// never has one).
func (inst *Instance) CompileTarget(q *cq.Query, c cq.Tuple, maxImages int) *MultiPred {
	if c == nil {
		c = cq.Tuple{} // a nil target is the empty tuple, not "every match"
	}
	plan := q.CompileFor(inst.D)
	return collect(plan, maxImages, func(yield func([]int32, []int) bool) { plan.Matches(c, yield) })
}

// CompileAnchored compiles the witness images that use the fact at
// index fi — after an insert of that fact, exactly the images it
// created — with one anchored search per body atom: a row per answer
// tuple some such image witnesses.
func (inst *Instance) CompileAnchored(q *cq.Query, fi int, maxImages int) *MultiPred {
	plan := q.CompileFor(inst.D)
	return collect(plan, maxImages, func(yield func([]int32, []int) bool) {
		for ai := 0; ai < plan.NumAtoms(); ai++ {
			plan.AnchoredMatches(ai, fi, yield)
		}
	})
}

// collect is the one witness-image collector behind the three compiles:
// it runs the match source over the plan and keeps, per answer tuple,
// the distinct images by their canonical fact sets, at most maxImages of
// them (0 means DefaultMaxImages; past the cap the row keeps none and is
// evaluated by the plan's search). Rows are sorted by tuple key, and
// each row's images stay in the source's search order.
func collect(plan *cq.Compiled, maxImages int, source func(yield func(binding []int32, facts []int) bool)) *MultiPred {
	if maxImages <= 0 {
		maxImages = DefaultMaxImages
	}
	mp := &MultiPred{plan: plan}
	byKey := make(map[string]int)
	var seen []map[string]bool // per tuple: witness keys already kept
	scratch := make([]int, 0, plan.NumAtoms())
	source(func(binding []int32, facts []int) bool {
		tup := plan.AnswerOf(binding)
		k := tup.Key()
		ti, ok := byKey[k]
		if !ok {
			ti = len(mp.tuples)
			byKey[k] = ti
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
	witnesses := make([]Images, len(ord))
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
func (mp *MultiPred) TupleWitnesses(t int) (Images, bool) {
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

// Pred returns row t's predicate "tuple t ∈ Q(D')" over subsets: its
// images, or past the cap the plan's search.
func (mp *MultiPred) Pred(t int) func(rel.Subset) bool {
	return func(s rel.Subset) bool { return mp.evalOne(t, s) }
}

// evalOne tests one tuple against the subset: compiled witness sets
// where available, the mask-restricted search past the image cap.
func (mp *MultiPred) evalOne(t int, s rel.Subset) bool {
	if mp.overflow[t] {
		return mp.plan.HasAnswerIn(s, mp.tuples[t])
	}
	return Holds(mp.witnesses[t], s)
}

package core

import (
	"sort"

	"repro/internal/cq"
)

// Incremental witness maintenance primitives for the delta-estimation
// layer (facade delta.go): after a single-fact mutation, the witness
// images of a query change only at the mutated fact — deleted images
// are the ones containing it, inserted images are the ones anchored at
// it — so per-query witness state can be maintained in time
// proportional to the affected images instead of a full re-enumeration
// of Q over D.

// Witness is one homomorphic image of a query, tagged with the answer
// tuple it witnesses: the canonical (sorted, deduplicated) set of fact
// indices the image occupies.
type Witness struct {
	Tuple cq.Tuple
	Facts []int
}

// BlockOf returns the fact indices that share a conflict with fact i,
// including i itself, sorted ascending: {i} ∪ Sigma.ConflictsOf(D, i).
// For primary keys, conflicts are exactly co-membership in a key block,
// so this is i's block; a consistent fact returns the singleton {i}.
// The cost is that of ConflictsOf: the rows sharing i's first argument
// for a key on attribute 0, the whole relation otherwise.
func (inst *Instance) BlockOf(i int) []int {
	ps := inst.Sigma.ConflictsOf(inst.D, i)
	at := sort.SearchInts(ps, i)
	out := make([]int, 0, len(ps)+1)
	out = append(out, ps[:at]...)
	out = append(out, i)
	return append(out, ps[at:]...)
}

// AnchoredWitnesses enumerates the witness images of q that use the
// fact at index fi — exactly the images created by inserting that fact.
// Images are deduplicated across anchor atoms (an image using fi in two
// atoms is found once per anchor). ok is false when more than maxImages
// images are anchored at the fact (0 means DefaultMaxImages); callers
// then drop their compiled state and fall back to full recomputation.
func (inst *Instance) AnchoredWitnesses(q *cq.Query, fi int, maxImages int) ([]Witness, bool) {
	if maxImages <= 0 {
		maxImages = DefaultMaxImages
	}
	c := q.CompileFor(inst.D)
	var out []Witness
	seen := make(map[string]bool)
	scratch := make([]int, 0, len(q.Atoms))
	overflow := false
	for ai := 0; ai < c.NumAtoms() && !overflow; ai++ {
		c.AnchoredMatches(ai, fi, func(binding []int32, facts []int) bool {
			w, key := canonWitness(facts, scratch)
			if seen[key] {
				return true
			}
			seen[key] = true
			out = append(out, Witness{Tuple: c.AnswerOf(binding), Facts: append([]int(nil), w...)})
			if len(out) > maxImages {
				overflow = true
				return false
			}
			return true
		})
	}
	if overflow {
		return nil, false
	}
	return out, true
}

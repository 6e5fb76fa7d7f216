package sampler

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/rel"
)

// UOWalker runs walks of the uniform-operations chain (Lemma 7.2 /
// D.7) with incremental conflict maintenance: instead of re-deriving
// the justified operations from scratch at every step (which costs
// O(|conflict pairs|) per step), it maintains
//
//   - the dense list of alive violating pairs, and
//   - the dense list of facts participating in at least one alive pair
//     (exactly the facts whose singleton removal is justified),
//
// and updates both in O(degree) when a fact is removed. A full walk
// costs O(|D| + |conflict pairs|) amortised. The induced distribution
// over complete sequences is identical to core.Instance.JustifiedOps +
// uniform choice; the tests check this against the exact engine.
//
// A walk decides every fact at once, which is what whole-database
// consumers need (fact marginals, shared answers passes, sequences); a
// single target's survival is cheaper to decide with UOLocal.
type UOWalker struct {
	inst  *core.Instance
	pairs [][2]int
	adj   *core.Adjacency

	// per-walk state, reset by Walk.
	present    []bool
	pairAlive  []bool
	pairPos    []int
	alive      []int // alive pair ids
	cnt        []int // per fact: alive pairs it participates in
	factPos    []int
	activeFact []int // facts with cnt > 0
}

// NewUOWalker prepares a walker for the instance (any FD set). It
// reads the instance's shared conflict adjacency and allocates only its
// own per-walk state.
func NewUOWalker(inst *core.Instance) *UOWalker {
	n := inst.D.Len()
	pairs := inst.ConflictPairs()
	return &UOWalker{
		inst:      inst,
		pairs:     pairs,
		adj:       inst.Adjacency(),
		present:   make([]bool, n),
		pairAlive: make([]bool, len(pairs)),
		pairPos:   make([]int, len(pairs)),
		cnt:       make([]int, n),
		factPos:   make([]int, n),
	}
}

func (w *UOWalker) reset() {
	w.alive = w.alive[:0]
	w.activeFact = w.activeFact[:0]
	for i := range w.present {
		w.present[i] = true
		w.cnt[i] = 0
		w.factPos[i] = -1
	}
	for pid, p := range w.pairs {
		w.pairAlive[pid] = true
		w.pairPos[pid] = len(w.alive)
		w.alive = append(w.alive, pid)
		w.cnt[p[0]]++
		w.cnt[p[1]]++
	}
	for i, c := range w.cnt {
		if c > 0 {
			w.factPos[i] = len(w.activeFact)
			w.activeFact = append(w.activeFact, i)
		}
	}
}

// killPair removes a pair from the alive list and decrements both
// endpoint counters.
func (w *UOWalker) killPair(pid int) {
	if !w.pairAlive[pid] {
		return
	}
	w.pairAlive[pid] = false
	pos := w.pairPos[pid]
	last := w.alive[len(w.alive)-1]
	w.alive[pos] = last
	w.pairPos[last] = pos
	w.alive = w.alive[:len(w.alive)-1]
	for _, f := range []int{w.pairs[pid][0], w.pairs[pid][1]} {
		w.cnt[f]--
		if w.cnt[f] == 0 && w.factPos[f] >= 0 {
			fpos := w.factPos[f]
			lastF := w.activeFact[len(w.activeFact)-1]
			w.activeFact[fpos] = lastF
			w.factPos[lastF] = fpos
			w.activeFact = w.activeFact[:len(w.activeFact)-1]
			w.factPos[f] = -1
		}
	}
}

// removeFact removes a fact and kills every alive pair through it.
func (w *UOWalker) removeFact(f int) {
	if !w.present[f] {
		return
	}
	w.present[f] = false
	for _, pid := range w.adj.Pair[w.adj.Start[f]:w.adj.Start[f+1]] {
		w.killPair(pid)
	}
}

// walkCore runs the chain walk proper — reset, then apply uniformly
// chosen justified operations until consistent — leaving the outcome
// in w.present. All public walk variants share it, so the sampling law
// lives in exactly one place; record (nil-able) receives each applied
// operation for the variant that materialises the sequence.
func (w *UOWalker) walkCore(rng *rand.Rand, singleton bool, record func(core.Op)) {
	w.reset()
	for len(w.alive) > 0 {
		nOps := len(w.activeFact)
		if !singleton {
			nOps += len(w.alive)
		}
		r := rng.Intn(nOps)
		if r < len(w.activeFact) {
			op := core.Op{I: w.activeFact[r], J: -1}
			if record != nil {
				record(op)
			}
			w.removeFact(op.I)
		} else {
			p := w.pairs[w.alive[r-len(w.activeFact)]]
			if record != nil {
				record(core.Op{I: p[0], J: p[1]})
			}
			w.removeFact(p[0])
			w.removeFact(p[1])
		}
	}
}

// result materialises w.present as a Subset.
func (w *UOWalker) result() rel.Subset {
	s := rel.NewSubset(w.inst.D.Len())
	for i, p := range w.present {
		if p {
			s.Set(i)
		}
	}
	return s
}

// Walk runs one chain walk and returns the complete repairing sequence
// and its result. With singleton set, only single-fact removals are
// available (M^{uo,1}).
func (w *UOWalker) Walk(rng *rand.Rand, singleton bool) (core.Sequence, rel.Subset) {
	var seq core.Sequence
	w.walkCore(rng, singleton, func(op core.Op) { seq = append(seq, op) })
	return seq, w.result()
}

// WalkAddCounts runs one walk and increments the survival counter of
// every fact of its result, without materialising a Subset or a
// sequence — the marginals hot path for M^uo.
func (w *UOWalker) WalkAddCounts(rng *rand.Rand, singleton bool, counts []int) {
	w.walkCore(rng, singleton, nil)
	for i, p := range w.present {
		if p {
			counts[i]++
		}
	}
}

// WalkResult is Walk without materialising the sequence (the common
// case for Monte Carlo estimation, avoiding the sequence allocation).
func (w *UOWalker) WalkResult(rng *rand.Rand, singleton bool) rel.Subset {
	w.walkCore(rng, singleton, nil)
	return w.result()
}

// Package core implements the paper's primary contribution: the
// operational approach to consistent query answering (Section 3) and the
// three uniform repairing Markov chain generators with their
// singleton-operation variants (Section 4 and Appendices A, E).
//
// The package offers two exact engines:
//
//   - a state-DAG engine for M^us and M^uo (and their singleton
//     variants), exploiting that their transition law at a sequence s
//     depends only on the current database s(D), so the sequence tree
//     quotients losslessly onto the DAG of reachable sub-databases; and
//
//   - an explicit sequence-tree engine that materialises the repairing
//     Markov chain of Definition 3.5 (needed for M^ur, whose canonical-
//     sequence probabilities of Definition A.1 are inherently
//     tree-level, and used to cross-validate the DAG engine).
//
// Both engines are exponential in the worst case — the problems are
// ♯P-hard (Theorems 5.1, 6.1, 7.1) — and are intended for exact ground
// truth at small scale; the polynomial-time path is sampling + FPRAS
// (internal/sampler, internal/fpras).
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/fd"
	"repro/internal/rel"
)

// Instance bundles a database D and a set Σ of FDs together with the
// conflict structure every engine needs: the deduplicated conflict
// pairs of CG(D,Σ) and their number. A single fact's partners come from
// Sigma.ConflictsOf (see BlockOf).
type Instance struct {
	D     *rel.Database
	Sigma *fd.Set

	// npairs is the number of conflict pairs. NewInstance counts the
	// pairs it builds; a write carries its parent's count, adjusted by
	// the written fact's partners.
	npairs int

	// pairs are the edges of the conflict graph, sorted, with I < J,
	// built at most once: by NewInstance, or on the first read of an
	// instance a write derived.
	pairsOnce sync.Once
	pairs     [][2]int

	// adj is the per-fact form of pairs, built at most once, on the
	// first Adjacency call.
	adjOnce sync.Once
	adj     *Adjacency
}

// NewInstance precomputes the conflict structure of (D, Σ).
func NewInstance(d *rel.Database, sigma *fd.Set) *Instance {
	inst := &Instance{D: d, Sigma: sigma}
	inst.npairs = len(inst.ConflictPairs())
	return inst
}

// ConflictPairs returns the edges of CG(D,Σ) as fact-index pairs (I<J).
// On an instance InsertFact or DeleteFact derived, the first call
// builds them from D, as NewInstance does.
func (inst *Instance) ConflictPairs() [][2]int {
	inst.pairsOnce.Do(func() { inst.pairs = inst.Sigma.ConflictPairs(inst.D) })
	return inst.pairs
}

// ConflictPairCount returns |E(CG(D,Σ))|, the length of ConflictPairs,
// without building the pairs.
func (inst *Instance) ConflictPairCount() int { return inst.npairs }

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

// Full returns the subset representing D itself.
func (inst *Instance) Full() rel.Subset { return inst.D.FullSubset() }

// IsConsistent reports whether the sub-database identified by s
// satisfies Σ, i.e. no conflict pair survives in s.
func (inst *Instance) IsConsistent(s rel.Subset) bool {
	for _, p := range inst.ConflictPairs() {
		if s.Has(p[0]) && s.Has(p[1]) {
			return false
		}
	}
	return true
}

// Op is a D-operation −F (Definition 3.1) identified by the removed
// fact indices. J == -1 encodes a singleton removal −{f_I}; otherwise
// the pair removal −{f_I, f_J} with I < J.
type Op struct {
	I, J int
}

// Singleton reports whether the operation removes a single fact.
func (o Op) Singleton() bool { return o.J < 0 }

// Apply returns op(s) = s \ F.
func (o Op) Apply(s rel.Subset) rel.Subset {
	if o.Singleton() {
		return s.WithoutIndices(o.I)
	}
	return s.WithoutIndices(o.I, o.J)
}

// String renders the operation in the paper's notation against the
// facts of d.
func (o Op) String(d *rel.Database) string {
	if o.Singleton() {
		return fmt.Sprintf("-%s", d.Fact(o.I))
	}
	return fmt.Sprintf("-{%s,%s}", d.Fact(o.I), d.Fact(o.J))
}

// less orders operations deterministically: singletons by index first,
// then pairs lexicographically. The tree engine uses this order for the
// DFS ordering ≺ on sequences (Section 4 instantiates ≺ as a DFS
// traversal order).
func (o Op) less(p Op) bool {
	os, ps := o.Singleton(), p.Singleton()
	if os != ps {
		return os
	}
	if o.I != p.I {
		return o.I < p.I
	}
	return o.J < p.J
}

// JustifiedOps returns the (s, Σ)-justified operations (Definition 3.3)
// available at the sub-database s, in deterministic order: every
// nonempty F ⊆ {f, g} for some surviving violation {f, g}. With
// singleton set, only operations removing a single fact are returned
// (the restricted space of Section 7 / Appendix E).
func (inst *Instance) JustifiedOps(s rel.Subset, singleton bool) []Op {
	singles := make(map[int]bool)
	var ops []Op
	for _, p := range inst.ConflictPairs() {
		if !s.Has(p[0]) || !s.Has(p[1]) {
			continue
		}
		if !singles[p[0]] {
			singles[p[0]] = true
			ops = append(ops, Op{I: p[0], J: -1})
		}
		if !singles[p[1]] {
			singles[p[1]] = true
			ops = append(ops, Op{I: p[1], J: -1})
		}
		if !singleton {
			ops = append(ops, Op{I: p[0], J: p[1]})
		}
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].less(ops[b]) })
	return ops
}

// Sequence is a sequence of D-operations.
type Sequence []Op

// IsRepairing reports whether s is a (D,Σ)-repairing sequence
// (Definition 3.4): each op_i is justified at D^s_{i-1}. With singleton
// set, additionally every operation must be a singleton removal.
func (inst *Instance) IsRepairing(s Sequence, singleton bool) bool {
	cur := inst.Full()
	pairs := inst.ConflictPairs()
	for _, op := range s {
		if singleton && !op.Singleton() {
			return false
		}
		justified := false
		for _, p := range pairs {
			if !cur.Has(p[0]) || !cur.Has(p[1]) {
				continue
			}
			switch {
			case op.Singleton():
				if op.I == p[0] || op.I == p[1] {
					justified = true
				}
			default:
				if op.I == p[0] && op.J == p[1] {
					justified = true
				}
			}
			if justified {
				break
			}
		}
		if !justified {
			return false
		}
		cur = op.Apply(cur)
	}
	return true
}

// IsComplete reports whether s is a complete repairing sequence: it is
// repairing and its result satisfies Σ.
func (inst *Instance) IsComplete(s Sequence, singleton bool) bool {
	if !inst.IsRepairing(s, singleton) {
		return false
	}
	return inst.IsConsistent(inst.Result(s))
}

// Result computes s(D) as a subset (assuming s is a valid sequence of
// removals; no justification check is performed).
func (inst *Instance) Result(s Sequence) rel.Subset {
	cur := inst.Full()
	for _, op := range s {
		cur = op.Apply(cur)
	}
	return cur
}

// String renders the sequence in the paper's comma-separated notation.
func (inst *Instance) SequenceString(s Sequence) string {
	if len(s) == 0 {
		return "ε"
	}
	out := ""
	for i, op := range s {
		if i > 0 {
			out += ", "
		}
		out += op.String(inst.D)
	}
	return out
}

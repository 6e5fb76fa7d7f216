package core

// Incremental fact mutations. The conflict structure of (D, Σ) is the
// expensive part of NewInstance — ConflictPairs rebuckets every fact
// under every FD and scans every bucket pairwise. InsertFact and
// DeleteFact instead reuse the previous instance's conflict pairs:
// they are remapped across the index shift in one pass (the shift is
// monotone, so they stay sorted), and an inserted fact's partners come
// from one Sigma.ConflictsOf scan, merged in linearly. What remains per
// write is O(‖D‖) copying: the database columns, the pair remap, and one
// pass deriving the fact table from the parent's
// (rel.Database.Insert/Remove); an unseen constant is interned into the
// lineage's shared symbol table, not copied with it. All of it is
// copy-on-write: the receiver, its database and its conflict pairs are
// never mutated, so in-flight readers of the old instance are
// unaffected.

import (
	"errors"
	"fmt"

	"repro/internal/rel"
)

// Mutation errors. Callers distinguish them with errors.Is.
var (
	// ErrDuplicateFact: InsertFact of a fact already in D.
	ErrDuplicateFact = errors.New("core: fact already present")
	// ErrUnknownRelation: the fact's relation is not in Σ's schema.
	ErrUnknownRelation = errors.New("core: unknown relation")
	// ErrArityMismatch: the fact's arity differs from the schema's.
	ErrArityMismatch = errors.New("core: arity mismatch")
	// ErrFactIndex: DeleteFact index outside [0, |D|).
	ErrFactIndex = errors.New("core: fact index out of range")
)

// InsertFact returns a new instance for (D ∪ {f}, Σ) together with the
// index assigned to f, updating the conflict pairs incrementally: old
// pairs are remapped across the index shift and merged with the new
// fact's pairs, which one Sigma.ConflictsOf scan discovers — O(‖D‖)
// copying instead of NewInstance's full recompute.
func (inst *Instance) InsertFact(f rel.Fact) (*Instance, int, error) {
	r, ok := inst.Sigma.Schema().Relation(f.Rel)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q is not in the schema", ErrUnknownRelation, f.Rel)
	}
	if len(f.Args) != r.Arity() {
		return nil, 0, fmt.Errorf("%w: %s has %d arguments, relation %s/%d",
			ErrArityMismatch, f, len(f.Args), f.Rel, r.Arity())
	}
	d2, pos, fresh := inst.D.Insert(f)
	if !fresh {
		return nil, pos, fmt.Errorf("%w: %s (index %d)", ErrDuplicateFact, f, pos)
	}
	// The new fact's pairs come out sorted, because its partners do; the
	// old pairs stay sorted under the monotone shift. Merge the two.
	partners := inst.Sigma.ConflictsOf(d2, pos)
	added := make([][2]int, len(partners))
	for x, j := range partners {
		added[x] = [2]int{min(j, pos), max(j, pos)}
	}
	pairs := make([][2]int, 0, len(inst.pairs)+len(added))
	for _, p := range inst.pairs {
		for k := range p {
			if p[k] >= pos {
				p[k]++
			}
		}
		for len(added) > 0 && pairLess(added[0], p) {
			pairs = append(pairs, added[0])
			added = added[1:]
		}
		pairs = append(pairs, p)
	}
	pairs = append(pairs, added...)
	return &Instance{D: d2, Sigma: inst.Sigma, pairs: pairs}, pos, nil
}

// pairLess is the lexicographic order ConflictPairs sorts by.
func pairLess(p, q [2]int) bool {
	return p[0] < q[0] || p[0] == q[0] && p[1] < q[1]
}

// DeleteFact returns a new instance for (D ∖ {f_i}, Σ): pairs touching
// i are dropped, the rest remapped across the index shift. The same
// copy-on-write and cost bounds as InsertFact apply.
func (inst *Instance) DeleteFact(i int) (*Instance, error) {
	if i < 0 || i >= inst.D.Len() {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrFactIndex, i, inst.D.Len())
	}
	d2 := inst.D.Remove(i)
	pairs := make([][2]int, 0, len(inst.pairs))
	for _, p := range inst.pairs {
		if p[0] == i || p[1] == i {
			continue
		}
		a, b := p[0], p[1]
		if a > i {
			a--
		}
		if b > i {
			b--
		}
		pairs = append(pairs, [2]int{a, b})
	}
	return &Instance{D: d2, Sigma: inst.Sigma, pairs: pairs}, nil
}

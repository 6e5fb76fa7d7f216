package core

// Incremental fact mutations. The conflict structure of (D, Σ) is the
// expensive part of NewInstance — ConflictPairs rebuckets every fact
// under every FD and sorts every pair. InsertFact and DeleteFact do not
// touch it: they carry the parent's pair count, adjusted by the written
// fact's partners, which one Sigma.ConflictsOf scan finds, and leave
// the pair list to be built on the derived instance's first
// ConflictPairs call, if any. What remains per write is the O(‖D‖) copy
// of the three database columns (rel.Database.Insert/Remove); an unseen
// constant is interned into the lineage's shared symbol table, not
// copied with it. All of it is copy-on-write: the receiver and its
// database are never mutated, so in-flight readers of the old instance
// are unaffected.

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
// index assigned to f. The conflict pair count grows by f's partners,
// which one Sigma.ConflictsOf scan finds; the pairs themselves are
// built on first read.
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
	n := inst.npairs + len(inst.Sigma.ConflictsOf(d2, pos))
	return &Instance{D: d2, Sigma: inst.Sigma, npairs: n}, pos, nil
}

// DeleteFact returns a new instance for (D ∖ {f_i}, Σ): the conflict
// pair count drops by f_i's partners, read before the removal. The same
// copy-on-write and cost bounds as InsertFact apply.
func (inst *Instance) DeleteFact(i int) (*Instance, error) {
	if i < 0 || i >= inst.D.Len() {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrFactIndex, i, inst.D.Len())
	}
	n := inst.npairs - len(inst.Sigma.ConflictsOf(inst.D, i))
	return &Instance{D: inst.D.Remove(i), Sigma: inst.Sigma, npairs: n}, nil
}

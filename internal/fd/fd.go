// Package fd implements functional dependencies over relational schemas
// (Section 2 of the paper): satisfaction, the violation set V(D,Σ)
// (Definition 3.2), conflict graphs CG(D,Σ), blocks of key-equal facts,
// and the classification of constraint sets into the classes the paper's
// complexity results distinguish (primary keys ⊂ keys ⊂ FDs).
package fd

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/rel"
)

// FD is a functional dependency R : X → Y where X and Y are sets of
// attribute positions (0-based) of the relation R.
type FD struct {
	Rel string
	LHS []int
	RHS []int
}

// New builds an FD, normalising the attribute sets (sorted, deduplicated).
func New(relName string, lhs, rhs []int) FD {
	return FD{Rel: relName, LHS: normalise(lhs), RHS: normalise(rhs)}
}

func normalise(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// Validate checks that the FD is well-formed w.r.t. the schema: the
// relation exists and every attribute position is within its arity.
func (f FD) Validate(s *rel.Schema) error {
	r, ok := s.Relation(f.Rel)
	if !ok {
		return fmt.Errorf("fd: unknown relation %q", f.Rel)
	}
	for _, sets := range [][]int{f.LHS, f.RHS} {
		for _, i := range sets {
			if i < 0 || i >= r.Arity() {
				return fmt.Errorf("fd: attribute position %d out of range for %s/%d", i, f.Rel, r.Arity())
			}
		}
	}
	if len(f.LHS) == 0 && len(f.RHS) == 0 {
		return fmt.Errorf("fd: empty dependency on %q", f.Rel)
	}
	return nil
}

// IsKey reports whether the FD is a key w.r.t. the schema, i.e.
// X ∪ Y = att(R).
func (f FD) IsKey(s *rel.Schema) bool {
	r, ok := s.Relation(f.Rel)
	if !ok {
		return false
	}
	covered := make(map[int]bool, r.Arity())
	for _, i := range f.LHS {
		covered[i] = true
	}
	for _, i := range f.RHS {
		covered[i] = true
	}
	return len(covered) == r.Arity()
}

// ViolatedBy reports whether the pair of facts {f1, f2} jointly violates
// the FD: they agree on every attribute of X but disagree on some
// attribute of Y. A fact never violates an FD with itself.
func (f FD) ViolatedBy(f1, f2 rel.Fact) bool {
	if f1.Rel != f.Rel || f2.Rel != f.Rel {
		return false
	}
	for _, i := range f.LHS {
		if f1.Arg(i) != f2.Arg(i) {
			return false
		}
	}
	for _, i := range f.RHS {
		if f1.Arg(i) != f2.Arg(i) {
			return true
		}
	}
	return false
}

// String renders the FD as "R: A1,A2 -> A3" using the schema-independent
// positional attribute names A1..An.
func (f FD) String() string {
	return fmt.Sprintf("%s: %s -> %s", f.Rel, attrList(f.LHS), attrList(f.RHS))
}

func attrList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("A%d", x+1)
	}
	return strings.Join(parts, ",")
}

// Set is a finite set Σ of FDs over a schema.
type Set struct {
	schema *rel.Schema
	fds    []FD
}

// NewSet builds a validated FD set over the schema.
func NewSet(schema *rel.Schema, fds ...FD) (*Set, error) {
	for _, f := range fds {
		if err := f.Validate(schema); err != nil {
			return nil, err
		}
	}
	cp := make([]FD, len(fds))
	copy(cp, fds)
	return &Set{schema: schema, fds: cp}, nil
}

// MustSet is like NewSet but panics on error.
func MustSet(schema *rel.Schema, fds ...FD) *Set {
	s, err := NewSet(schema, fds...)
	if err != nil {
		panic(err)
	}
	return s
}

// Schema returns the schema the set is defined over.
func (s *Set) Schema() *rel.Schema { return s.schema }

// FDs returns the dependencies in declaration order. The returned slice
// must not be modified.
func (s *Set) FDs() []FD { return s.fds }

// Len reports |Σ|.
func (s *Set) Len() int { return len(s.fds) }

// Class is the constraint class of an FD set, in increasing generality.
// The paper's approximability results are stated per class.
type Class int

const (
	// PrimaryKeys: every FD is a key and there is at most one key per
	// relation name.
	PrimaryKeys Class = iota
	// Keys: every FD is a key (possibly several per relation).
	Keys
	// GeneralFDs: arbitrary functional dependencies.
	GeneralFDs
)

// String names the class as the paper does.
func (c Class) String() string {
	switch c {
	case PrimaryKeys:
		return "primary keys"
	case Keys:
		return "keys"
	default:
		return "FDs"
	}
}

// Classify determines the most specific class the set belongs to.
func (s *Set) Classify() Class {
	perRel := make(map[string]int)
	allKeys := true
	for _, f := range s.fds {
		if !f.IsKey(s.schema) {
			allKeys = false
			break
		}
		perRel[f.Rel]++
	}
	if !allKeys {
		return GeneralFDs
	}
	for _, n := range perRel {
		if n > 1 {
			return Keys
		}
	}
	return PrimaryKeys
}

// Satisfies reports whether D |= Σ.
func (s *Set) Satisfies(d *rel.Database) bool {
	return len(s.Violations(d)) == 0
}

// Violation is an element (φ, {f, g}) of V(D,Σ): the FD at index FDIndex
// in the set is violated by the pair of facts at database indices I < J.
type Violation struct {
	FDIndex int
	I, J    int
}

// Violations computes V(D,Σ) as pairs of fact indices of d, sorted by
// (FDIndex, I, J). For each FD the scan covers only the relation's
// fact span, bucketed by the interned LHS projection (id comparisons,
// no key strings), so consistent relations cost near-linear time.
func (s *Set) Violations(d *rel.Database) []Violation {
	var out []Violation
	for fi, phi := range s.fds {
		fi := fi
		violationsOf(d, phi, func(i, j int) {
			out = append(out, Violation{FDIndex: fi, I: i, J: j})
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].FDIndex != out[b].FDIndex {
			return out[a].FDIndex < out[b].FDIndex
		}
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// ConflictPairs returns the edge set of the conflict graph CG(D,Σ): the
// sorted, deduplicated pairs {i, j} of fact indices with {f_i, f_j} ̸|= Σ.
// Every FD's violating pairs are appended as violationsOf finds them,
// then one sort brings the pairs several FDs share next to each other
// and a compaction drops the repeats.
func (s *Set) ConflictPairs(d *rel.Database) [][2]int {
	var out [][2]int
	for _, phi := range s.fds {
		violationsOf(d, phi, func(i, j int) { out = append(out, [2]int{i, j}) })
	}
	slices.SortFunc(out, func(p, q [2]int) int {
		if c := cmp.Compare(p[0], q[0]); c != 0 {
			return c
		}
		return cmp.Compare(p[1], q[1])
	})
	if k := len(slices.Compact(out)); k < len(out) {
		// Keep an array no larger than appending the distinct pairs
		// alone would have grown.
		out = append([][2]int(nil), out[:k]...)
	}
	return out
}

// InConflict reports whether the two facts jointly violate some FD of Σ.
func (s *Set) InConflict(f, g rel.Fact) bool {
	for _, phi := range s.fds {
		if phi.ViolatedBy(f, g) {
			return true
		}
	}
	return false
}

// Block is a maximal set of facts of one relation that agree on the LHS
// of that relation's (primary) key. Facts of the same block of size ≥ 2
// pairwise violate the key; facts of different blocks never conflict
// (when Σ is a set of primary keys).
type Block struct {
	Rel     string
	Indices []int // fact indices in d, sorted
}

// Size reports |B|.
func (b Block) Size() int { return len(b.Indices) }

// Blocks partitions the facts of d into blocks w.r.t. the primary key of
// each relation. Facts of relations without a key in Σ form singleton
// blocks, as do facts of keyed relations that share their LHS values with
// no other fact. The result is sorted by the smallest fact index.
//
// Blocks must only be used when s.Classify() == PrimaryKeys; it panics
// otherwise, because the block decomposition is not meaningful for
// general keys or FDs.
func (s *Set) Blocks(d *rel.Database) []Block {
	if s.Classify() != PrimaryKeys {
		panic("fd: Blocks requires a set of primary keys")
	}
	keyOf := make(map[string]FD)
	for _, f := range s.fds {
		keyOf[f.Rel] = f
	}
	var out []Block
	// The sort order is relation-major, so each relation is one
	// contiguous span; group each keyed span by its interned LHS
	// projection, and emit singleton blocks for keyless relations.
	n := d.Len()
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && d.RelID(hi) == d.RelID(lo) {
			hi++
		}
		relName := d.Symbols().Str(d.RelID(lo))
		phi, keyed := keyOf[relName]
		if !keyed {
			for i := lo; i < hi; i++ {
				out = append(out, Block{Rel: relName, Indices: []int{i}})
			}
		} else {
			g := newGrouper(d, phi.LHS, lo, hi)
			for i := lo; i < hi; i++ {
				g.add(i)
			}
			g.buckets(func(idxs []int) bool {
				out = append(out, Block{Rel: relName, Indices: append([]int(nil), idxs...)})
				return true
			})
		}
		lo = hi
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Indices[0] < out[b].Indices[0] })
	return out
}

// String renders the set as "{fd1; fd2; ...}".
func (s *Set) String() string {
	parts := make([]string, len(s.fds))
	for i, f := range s.fds {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}

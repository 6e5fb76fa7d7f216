package fd

// Interned conflict detection over the columnar database
// representation: FD violation checks compare argument id columns, and
// LHS-projection grouping runs through an open-addressing grouper that
// hashes id tuples and chains equal projections — no per-fact key
// string, no map allocation. The conflicts of a single fact need no
// grouping at all: ConflictsOf scans the sorted rows that can share its
// left-hand side.

import (
	"sort"

	"repro/internal/rel"
)

// violatedRows reports whether the facts at indices i and j of d
// jointly violate phi: agreement on every LHS position, disagreement on
// some RHS position. Callers guarantee both facts belong to phi's
// relation (the per-relation span makes that free); like
// FD.ViolatedBy's Arg calls, an attribute position beyond a fact's
// arity panics.
func violatedRows(d *rel.Database, phi FD, i, j int) bool {
	a, b := d.ArgIDs(i), d.ArgIDs(j)
	for _, x := range phi.LHS {
		if a[x] != b[x] {
			return false
		}
	}
	for _, y := range phi.RHS {
		if a[y] != b[y] {
			return true
		}
	}
	return false
}

// projHash hashes the projection of fact i onto the attribute
// positions of attrs.
func projHash(d *rel.Database, attrs []int, i int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	row := d.ArgIDs(i)
	for _, a := range attrs {
		h = (h ^ uint64(uint32(row[a]))) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// projEqual reports whether facts i and j agree on every position of
// attrs.
func projEqual(d *rel.Database, attrs []int, i, j int) bool {
	a, b := d.ArgIDs(i), d.ArgIDs(j)
	for _, x := range attrs {
		if a[x] != b[x] {
			return false
		}
	}
	return true
}

// grouper buckets the facts of one relation span by their projection
// onto a fixed attribute set. Buckets are intrusive linked lists over a
// dense next array — two int32 slices total, regardless of how many
// groups form.
type grouper struct {
	d     *rel.Database
	attrs []int
	lo    int
	// slots holds the most recently added fact index + 1 of each
	// bucket; 0 is empty. Power-of-two sized for mask probing.
	slots []int32
	mask  uint64
	// next[i-lo] chains fact i to the previously added fact of its
	// bucket (+1, 0 terminates), so each chain lists its facts in
	// decreasing index order.
	next []int32
}

func newGrouper(d *rel.Database, attrs []int, lo, hi int) *grouper {
	n := hi - lo
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return &grouper{
		d: d, attrs: attrs, lo: lo,
		slots: make([]int32, size),
		mask:  uint64(size - 1),
		next:  make([]int32, n),
	}
}

// add buckets fact i (lo ≤ i < hi) by its projection.
func (g *grouper) add(i int) {
	h := projHash(g.d, g.attrs, i)
	for probe := h & g.mask; ; probe = (probe + 1) & g.mask {
		s := g.slots[probe]
		if s == 0 {
			g.slots[probe] = int32(i + 1)
			return
		}
		head := int(s - 1)
		if projEqual(g.d, g.attrs, head, i) {
			g.next[i-g.lo] = int32(head + 1)
			g.slots[probe] = int32(i + 1)
			return
		}
	}
}

// buckets invokes yield once per non-empty bucket with the fact
// indices in increasing order. The slice is reused across yields and
// must not be retained. Enumeration order is hash-slot order; callers
// needing determinism sort their aggregate output, exactly as the
// string-bucket implementation did.
func (g *grouper) buckets(yield func(idxs []int) bool) {
	var scratch []int
	for _, s := range g.slots {
		if s == 0 {
			continue
		}
		scratch = scratch[:0]
		for j := int(s); j != 0; j = int(g.next[j-1-g.lo]) {
			scratch = append(scratch, j-1)
		}
		// The chain is newest-first; reverse to increasing index order.
		for x, y := 0, len(scratch)-1; x < y; x, y = x+1, y-1 {
			scratch[x], scratch[y] = scratch[y], scratch[x]
		}
		if !yield(scratch) {
			return
		}
	}
}

// violationsOf enumerates the violations of a single FD in
// (I, J)-sorted order within each LHS bucket, for Violations.
func violationsOf(d *rel.Database, phi FD, yield func(i, j int)) {
	lo, hi := d.RelRange(phi.Rel)
	if lo == hi {
		return
	}
	g := newGrouper(d, phi.LHS, lo, hi)
	for i := lo; i < hi; i++ {
		g.add(i)
	}
	g.buckets(func(idxs []int) bool {
		for x := 0; x < len(idxs); x++ {
			for y := x + 1; y < len(idxs); y++ {
				if violatedRows(d, phi, idxs[x], idxs[y]) {
					yield(idxs[x], idxs[y])
				}
			}
		}
		return true
	})
}

// ConflictsOf returns the sorted indices of the facts of d that jointly
// violate some FD of Σ with the fact at index i: its neighbours in the
// conflict graph CG(D,Σ). For each FD on the fact's relation it scans
// the rows RelRangeID returns and keeps those violatedRows accepts. When
// attribute 0 is on the FD's left-hand side, only rows agreeing with the
// fact on it can conflict, and those are contiguous because rows sort
// relation-major and lexicographically; otherwise the scan covers the
// whole relation, with integer compares only.
func (s *Set) ConflictsOf(d *rel.Database, i int) []int {
	rid, row := d.RelID(i), d.ArgIDs(i)
	name := d.Symbols().Str(rid)
	var out []int
	runs := 0
	for _, phi := range s.fds {
		if phi.Rel != name {
			continue
		}
		first := int32(-1)
		if len(phi.LHS) > 0 && phi.LHS[0] == 0 {
			first = row[0]
		}
		lo, hi := d.RelRangeID(rid, first)
		for j := lo; j < hi; j++ {
			if j != i && violatedRows(d, phi, i, j) {
				out = append(out, j)
			}
		}
		runs++
	}
	if runs < 2 {
		return out
	}
	// Each FD appended an ascending run; merge them.
	sort.Ints(out)
	k := 0
	for _, j := range out {
		if k == 0 || out[k-1] != j {
			out[k] = j
			k++
		}
	}
	return out[:k]
}

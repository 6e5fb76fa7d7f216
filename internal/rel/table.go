package rel

import "slices"

// factTable is the open-addressing hash index from an interned fact row
// (relation id + argument ids) to its fact index. It replaces the old
// map[string]int keyed on escaped Fact.Key() strings: membership tests
// hash a handful of int32s with no per-lookup allocation, and the slot
// array round-trips through the v2 snapshot codec so a warm boot does
// not have to rehash the instance. A single-fact write does not rehash
// it either: withInsert and withRemove derive the successor's slots
// from the parent's in one pass.
type factTable struct {
	// slots holds fact index + 1; 0 marks an empty slot. Length is a
	// power of two ≥ 2·n, so linear probing terminates.
	slots []int32
	mask  uint64
}

// tableSize returns the power-of-two slot count for n facts.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

func newFactTable(n int) factTable {
	size := tableSize(n)
	return factTable{slots: make([]int32, size), mask: uint64(size - 1)}
}

// factTableFromSlots adopts a precomputed slot array (snapshot decode).
// The length must be a power of two.
func factTableFromSlots(slots []int32) (factTable, bool) {
	n := len(slots)
	if n == 0 || n&(n-1) != 0 {
		return factTable{}, false
	}
	return factTable{slots: slots, mask: uint64(n - 1)}, true
}

// HashRow hashes an interned row: a relation id and argument ids, all
// of a fact's or a projection of them. FNV-style combining with a final
// avalanche so that power-of-two masking sees well-mixed bits.
func HashRow(rid int32, args []int32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(uint32(rid))) * prime
	for _, a := range args {
		h = (h ^ uint64(uint32(a))) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// insert records fact index i under its row hash. The caller guarantees
// the row is not already present (constructors insert each distinct
// fact exactly once).
func (t *factTable) insert(d *Database, i int) {
	h := HashRow(d.rels[i], d.argRow(i))
	for probe := h & t.mask; ; probe = (probe + 1) & t.mask {
		if t.slots[probe] == 0 {
			t.slots[probe] = int32(i + 1)
			return
		}
	}
}

// withInsert returns t re-indexed for nd, the database t indexes with a
// fact inserted at pos: one pass moves every index ≥ pos up by one, and
// pos is probed in. Row hashes do not depend on indices, so every other
// entry keeps its slot. The slot count must be nd's tableSize.
func (t factTable) withInsert(nd *Database, pos int) factTable {
	nt := factTable{slots: slices.Clone(t.slots), mask: t.mask}
	// Slot values are index+1 (0 empty): add 1 to those ≥ pos+1,
	// branch-free since the values are in hash order.
	at := int32(pos)
	for k, v := range nt.slots {
		nt.slots[k] = v + (at-v)>>31&1
	}
	nt.insert(nd, pos)
	return nt
}

// withRemove returns t re-indexed for nd, the database d with the fact
// at i removed: the fact's slot is emptied, one pass moves every higher
// index down by one, and the entries whose probes ran through the
// emptied slot shift back into it (deletion by backward shift), so the
// table is what probing nd's rows in would have left. The slot count
// must be nd's tableSize.
func (t factTable) withRemove(d, nd *Database, i int) factTable {
	nt := factTable{slots: slices.Clone(t.slots), mask: t.mask}
	j := HashRow(d.rels[i], d.argRow(i)) & t.mask
	for nt.slots[j] != int32(i+1) {
		j = (j + 1) & t.mask
	}
	nt.slots[j] = 0
	gone := int32(i + 1)
	for k, v := range nt.slots {
		nt.slots[k] = v - (gone-v)>>31&1
	}
	for k := (j + 1) & t.mask; nt.slots[k] != 0; k = (k + 1) & t.mask {
		r := int(nt.slots[k] - 1)
		home := HashRow(nd.rels[r], nd.argRow(r)) & t.mask
		// The entry may fill the hole iff its probe from home passes j.
		if (k-home)&t.mask >= (k-j)&t.mask {
			nt.slots[j], nt.slots[k] = nt.slots[k], 0
			j = k
		}
	}
	return nt
}

// lookup returns the fact index of the row, or -1 when absent.
func (t *factTable) lookup(d *Database, rid int32, args []int32) int {
	if len(t.slots) == 0 {
		return -1
	}
	h := HashRow(rid, args)
	for probe := h & t.mask; ; probe = (probe + 1) & t.mask {
		s := t.slots[probe]
		if s == 0 {
			return -1
		}
		j := int(s - 1)
		if d.rels[j] == rid && eqIDs(d.argRow(j), args) {
			return j
		}
	}
}

func eqIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

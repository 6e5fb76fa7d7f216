package rel

// factTable is the open-addressing hash index from an interned fact row
// (relation id + argument ids) to its fact index. It replaces the old
// map[string]int keyed on escaped Fact.Key() strings: membership tests
// hash a handful of int32s with no per-lookup allocation, and the slot
// array round-trips through the v2 snapshot codec so a warm boot does
// not have to rehash the instance. A single-fact write does not touch
// it: a database Insert or Remove derived builds its own table with
// buildTable on its first lookup (Database.lookupTable), so most
// generations of a write-heavy lineage never build one.
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

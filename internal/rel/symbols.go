package rel

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Symbols is a per-lineage symbol table: every constant and relation
// name that occurs in a Database is dictionary-encoded to a dense int32
// id, so the hot paths (homomorphism search, conflict indexing,
// sampling) compare and hash machine words instead of strings. Ids are
// assigned in first-intern order; because every Database constructor
// interns its facts in sorted order, the id assignment — and therefore
// the whole columnar encoding — is deterministic for a given fact set.
//
// A Symbols value is append-only: an id, once assigned, never changes,
// so every Database of a copy-on-write lineage shares one table —
// Database.Insert interns an unseen string into its parent's table, and
// ids stay directly comparable across the lineage. The table is safe
// for concurrent use: Intern serialises on a mutex and publishes each
// string before its id, while Str, Lookup, Len and Strings read the
// published state without locking, so the hot readers never wait on a
// writer.
type Symbols struct {
	mu   sync.Mutex // serialises interning
	col  atomic.Pointer[symColumn]
	idx  atomic.Pointer[symIndex]
	seed maphash.Seed
}

// symColumn is the id→string column. strs is full length; ids below n
// are published. Intern writes strs[n] and then advances n, or, when
// strs is full, publishes a copy twice the size.
type symColumn struct {
	strs []string
	n    atomic.Int32
}

// published returns the column's published prefix, capacity clipped.
func (c *symColumn) published() []string {
	n := c.n.Load()
	return c.strs[:n:n]
}

// symIndex is the string→id index: open addressing over the column,
// each slot id+1 (0 = empty), at most half full so every probe ends.
// Intern fills slots of the published index in place, or publishes a
// rebuilt one twice the size; readers load slots atomically.
type symIndex struct {
	slots []atomic.Int32
	mask  uint64
}

// NewSymbols returns an empty symbol table.
func NewSymbols() *Symbols {
	s, _ := newSymbolsFromStrings(nil)
	return s
}

// Len reports the number of interned symbols.
func (s *Symbols) Len() int { return int(s.col.Load().n.Load()) }

// Intern returns the id of str, assigning the next dense id on first
// sight.
func (s *Symbols) Intern(str string) int32 {
	if id, ok := s.Lookup(str); ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.internLocked(str)
}

// internLocked is Intern with s.mu held.
func (s *Symbols) internLocked(str string) int32 {
	if id, ok := s.Lookup(str); ok {
		return id
	}
	c := s.col.Load()
	n := c.n.Load()
	if int(n) == len(c.strs) {
		nc := &symColumn{strs: make([]string, max(16, 2*len(c.strs)))}
		copy(nc.strs, c.strs)
		nc.n.Store(n)
		s.col.Store(nc)
		c = nc
	}
	c.strs[n] = str
	c.n.Store(n + 1)
	if ix := s.idx.Load(); 2*int(n+1) <= len(ix.slots) {
		ix.put(s.hash(str), n)
	} else {
		ix, _ = s.indexOf(c.published())
		s.idx.Store(ix)
	}
	return n
}

// Lookup returns the id of str without interning. The second result is
// false when the string has never been interned — for a query constant
// this means no fact of the database can mention it.
func (s *Symbols) Lookup(str string) (int32, bool) {
	ix := s.idx.Load()
	var col []string
	for p := s.hash(str) & ix.mask; ; p = (p + 1) & ix.mask {
		v := ix.slots[p].Load()
		if v == 0 {
			return 0, false
		}
		// A string is published before the slot naming its id.
		if int(v) > len(col) {
			col = s.col.Load().published()
		}
		if col[v-1] == str {
			return v - 1, true
		}
	}
}

// Str returns the string for an id. Ids come from Intern/Lookup on the
// same table, whose return publishes the string; an id the table never
// assigned reads past the published column — "" or a slice bounds
// panic.
func (s *Symbols) Str(id int32) string { return s.col.Load().strs[id] }

// Strings exposes the id→string column in id order — the snapshot
// codec's symbol section. It must not be modified; its capacity is
// clipped, so a table rebuilt from it never writes into this one's
// column.
func (s *Symbols) Strings() []string { return s.col.Load().published() }

func (s *Symbols) hash(str string) uint64 { return maphash.String(s.seed, str) }

// indexOf builds an index over col with room for the column to double
// before it fills. ok is false when col holds a string twice.
func (s *Symbols) indexOf(col []string) (*symIndex, bool) {
	size := 16
	for size < 4*len(col) {
		size <<= 1
	}
	ix := &symIndex{slots: make([]atomic.Int32, size), mask: uint64(size - 1)}
	for id, str := range col {
		p := s.hash(str) & ix.mask
		for v := ix.slots[p].Load(); v != 0; v = ix.slots[p].Load() {
			if col[v-1] == str {
				return nil, false
			}
			p = (p + 1) & ix.mask
		}
		ix.slots[p].Store(int32(id) + 1)
	}
	return ix, true
}

// put stores id under hash h in the first free slot of its probe.
func (ix *symIndex) put(h uint64, id int32) {
	p := h & ix.mask
	for ix.slots[p].Load() != 0 {
		p = (p + 1) & ix.mask
	}
	ix.slots[p].Store(id + 1)
}

// newSymbolsFromStrings rebuilds a table from its string column (the
// snapshot decode path). The table adopts strs without copying, but
// only up to its length: the first Intern moves the column to a buffer
// of its own, so interning never writes into the caller's. Duplicate
// strings would make ids ambiguous, so they are rejected by returning
// false.
func newSymbolsFromStrings(strs []string) (*Symbols, bool) {
	s := &Symbols{seed: maphash.MakeSeed()}
	ix, ok := s.indexOf(strs)
	if !ok {
		return nil, false
	}
	c := &symColumn{strs: strs[:len(strs):len(strs)]}
	c.n.Store(int32(len(strs)))
	s.col.Store(c)
	s.idx.Store(ix)
	return s, true
}

// Package rel implements the relational model of Section 2 of the paper:
// schemas, facts, and databases (finite sets of facts) over a countably
// infinite domain of constants, together with the bitset sub-database
// machinery the repair engines use to explore the space of databases
// D' ⊆ D.
//
// Databases are stored columnar and dictionary-encoded: a symbol table,
// shared by every database of a copy-on-write lineage, interns every
// constant and relation name to a dense int32 id, and the fact set lives
// in three flat columns (per-fact relation id, argument offsets,
// argument ids) sorted in Fact.Less order. The columns are the only
// index: a fact is found by binary search over them, so a database
// carries nothing a lookup must build or a snapshot must store. A
// single-fact write (Insert, Remove) copies the three columns and
// shifts the parent's relation spans. The string-based Fact API remains
// for construction, formatting, and the exact engines; the samplers,
// the homomorphism search, and the conflict indexes operate on the id
// columns directly.
package rel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Relation describes a relation name R/n with an associated tuple of
// distinct attribute names (A_1, ..., A_n).
type Relation struct {
	Name  string
	Attrs []string
}

// Arity reports the arity n of the relation.
func (r Relation) Arity() int { return len(r.Attrs) }

// AttrIndex returns the position of the attribute with the given name,
// or -1 if the relation has no such attribute.
func (r Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// String renders the relation as "R(A1,...,An)".
func (r Relation) String() string {
	return fmt.Sprintf("%s(%s)", r.Name, strings.Join(r.Attrs, ","))
}

// NewRelation builds a relation with default attribute names A1..An.
func NewRelation(name string, arity int) Relation {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
	}
	return Relation{Name: name, Attrs: attrs}
}

// Schema is a finite set of relation names with associated arities.
type Schema struct {
	rels  map[string]Relation
	order []string
}

// NewSchema builds a schema from the given relations. Duplicate relation
// names are rejected.
func NewSchema(rels ...Relation) (*Schema, error) {
	s := &Schema{rels: make(map[string]Relation, len(rels))}
	for _, r := range rels {
		if r.Arity() == 0 {
			return nil, fmt.Errorf("rel: relation %q has arity 0", r.Name)
		}
		if _, dup := s.rels[r.Name]; dup {
			return nil, fmt.Errorf("rel: duplicate relation %q", r.Name)
		}
		seen := make(map[string]bool, r.Arity())
		for _, a := range r.Attrs {
			if seen[a] {
				return nil, fmt.Errorf("rel: relation %q repeats attribute %q", r.Name, a)
			}
			seen[a] = true
		}
		s.rels[r.Name] = r
		s.order = append(s.order, r.Name)
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. It is intended for
// statically known schemas in examples and tests.
func MustSchema(rels ...Relation) *Schema {
	s, err := NewSchema(rels...)
	if err != nil {
		panic(err)
	}
	return s
}

// Relation looks up a relation by name.
func (s *Schema) Relation(name string) (Relation, bool) {
	r, ok := s.rels[name]
	return r, ok
}

// Relations returns the relations in declaration order.
func (s *Schema) Relations() []Relation {
	out := make([]Relation, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.rels[n])
	}
	return out
}

// Len reports the number of relations in the schema.
func (s *Schema) Len() int { return len(s.order) }

// A Fact is an expression R(c1,...,cn) where each c_i is a constant.
// Facts are immutable after construction; Args must not be mutated.
type Fact struct {
	Rel  string
	Args []string
}

// NewFact builds a fact over the given relation name.
func NewFact(rel string, args ...string) Fact {
	cp := make([]string, len(args))
	copy(cp, args)
	return Fact{Rel: rel, Args: cp}
}

// Arg returns the constant at attribute position i (0-based). In the
// paper's notation this is f[A_{i+1}].
func (f Fact) Arg(i int) string { return f.Args[i] }

// Equal reports whether two facts are identical.
func (f Fact) Equal(g Fact) bool {
	if f.Rel != g.Rel || len(f.Args) != len(g.Args) {
		return false
	}
	for i := range f.Args {
		if f.Args[i] != g.Args[i] {
			return false
		}
	}
	return true
}

// String renders the fact as "R(c1,...,cn)".
func (f Fact) String() string {
	return fmt.Sprintf("%s(%s)", f.Rel, strings.Join(f.Args, ","))
}

// Less imposes a total order on facts (relation name, then arguments).
// Databases keep their facts sorted in this order so that fact indices
// are deterministic across runs — and across representations: the
// columnar encoding preserves exactly this order, so indices, subsets,
// and snapshots mean the same thing they did under the struct-per-fact
// layout.
func (f Fact) Less(g Fact) bool {
	if f.Rel != g.Rel {
		return f.Rel < g.Rel
	}
	n := len(f.Args)
	if len(g.Args) < n {
		n = len(g.Args)
	}
	for i := 0; i < n; i++ {
		if f.Args[i] != g.Args[i] {
			return f.Args[i] < g.Args[i]
		}
	}
	return len(f.Args) < len(g.Args)
}

// Database is a finite set of facts. It maintains set semantics and a
// deterministic (sorted) iteration order, and assigns each fact a stable
// index in [0, Len()) used by the bitset sub-database machinery.
//
// The representation is columnar: fact i is (rels[i],
// args[offs[i]:offs[i+1]]) over the database's symbol table. The sort
// order is relation-major string-lexicographic (Fact.Less), identical
// to the pre-columnar layout, and it is how a fact is found: IndexOf,
// Contains and Insert binary-search the rows (search).
type Database struct {
	syms *Symbols
	// rels[i] is the relation id of fact i.
	rels []int32
	// offs has length Len()+1; the argument ids of fact i are
	// args[offs[i]:offs[i+1]]. Arities can differ per relation name (the
	// relational model here keys arity on the schema, but raw databases
	// tolerate mixed arities, and the homomorphism search checks them),
	// so offsets are explicit rather than derived.
	offs []int32
	args []int32
	// spans maps each relation id to its contiguous [lo, hi) index
	// range. The sort order is relation-major, so every relation's facts
	// occupy one run; caching the runs makes per-relation iteration a
	// lookup instead of a full scan, with the global fact index of the
	// j-th fact of relation R available as lo+j.
	spans map[int32]span

	// factsOnce/factsAll lazily materialise the []Fact view for cold
	// paths (formatting, the exact engines, the brute-force oracle). Hot
	// paths read the columns and never pay for this.
	factsOnce sync.Once
	factsAll  []Fact
}

// span is a half-open fact-index range [lo, hi).
type span struct{ lo, hi int }

// argRow returns the argument ids of fact i (a view, not a copy).
func (d *Database) argRow(i int) []int32 {
	return d.args[d.offs[i]:d.offs[i+1]]
}

// buildSpans derives the per-relation ranges from the sorted relation
// id column. Every constructor ends with it.
func (d *Database) buildSpans() {
	d.spans = make(map[int32]span)
	n := len(d.rels)
	for i := 0; i < n; {
		j := i + 1
		for j < n && d.rels[j] == d.rels[i] {
			j++
		}
		d.spans[d.rels[i]] = span{i, j}
		i = j
	}
}

// shiftedSpans returns d's relation spans after a write of one fact of
// relation rid at index at, delta +1 for an insert and −1 for a
// removal: rid's span grows or shrinks by one (a new relation starts at
// at, an emptied one is dropped) and every span after at moves by
// delta. The sort order is relation-major, so no other span contains
// at. O(#relations), where buildSpans scans every row.
func (d *Database) shiftedSpans(rid int32, at, delta int) map[int32]span {
	out := make(map[int32]span, len(d.spans)+1)
	for r, sp := range d.spans {
		if r != rid && sp.lo >= at {
			sp.lo += delta
			sp.hi += delta
		}
		out[r] = sp
	}
	sp, ok := out[rid]
	if !ok {
		sp = span{at, at}
	}
	sp.hi += delta
	if sp.lo == sp.hi {
		delete(out, rid)
	} else {
		out[rid] = sp
	}
	return out
}

// encodeFacts fills the columns from sorted, deduplicated facts,
// interning into d.syms. Interning in sorted fact order keeps id
// assignment deterministic for a given fact set.
func (d *Database) encodeFacts(facts []Fact) {
	d.syms.mu.Lock()
	defer d.syms.mu.Unlock()
	d.rels = make([]int32, len(facts))
	d.offs = make([]int32, len(facts)+1)
	total := 0
	for _, f := range facts {
		total += len(f.Args)
	}
	d.args = make([]int32, 0, total)
	for i, f := range facts {
		d.rels[i] = d.syms.internLocked(f.Rel)
		for _, a := range f.Args {
			d.args = append(d.args, d.syms.internLocked(a))
		}
		d.offs[i+1] = int32(len(d.args))
	}
}

// NewDatabase builds a database from the given facts, deduplicating and
// sorting them.
func NewDatabase(facts ...Fact) *Database {
	sorted := make([]Fact, len(facts))
	copy(sorted, facts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	// Duplicates are adjacent after sorting; identical facts are
	// interchangeable, so keeping the first preserves set semantics.
	dedup := sorted[:0]
	for i, f := range sorted {
		if i == 0 || !f.Equal(sorted[i-1]) {
			dedup = append(dedup, f)
		}
	}
	d := &Database{syms: NewSymbols()}
	d.encodeFacts(dedup)
	d.buildSpans()
	return d
}

// NewDatabaseFromParts adopts a ready-made columnar encoding: a symbol
// table and the three fact columns, already in Fact.Less order with no
// duplicate rows. It is the snapshot codec's boot path: no string
// parsing, no re-sort, no per-fact allocation. The columns come from a
// file or a peer, so they are validated, not trusted (cheap integer
// scans plus one adjacent string comparison per fact): a violation
// returns an error rather than a silently corrupt database.
func NewDatabaseFromParts(syms *Symbols, rels, offs, args []int32) (*Database, error) {
	n := len(rels)
	if n == 0 && len(offs) == 0 {
		offs = []int32{0}
	}
	if len(offs) != n+1 {
		return nil, fmt.Errorf("rel: offset column has %d entries for %d facts", len(offs), n)
	}
	if offs[0] != 0 || int(offs[n]) != len(args) {
		return nil, fmt.Errorf("rel: offset column does not cover %d argument ids", len(args))
	}
	nsyms := int32(syms.Len())
	for i := 0; i < n; i++ {
		if offs[i] > offs[i+1] {
			return nil, fmt.Errorf("rel: offset column decreases at fact %d", i)
		}
		if rels[i] < 0 || rels[i] >= nsyms {
			return nil, fmt.Errorf("rel: relation id %d of fact %d out of range", rels[i], i)
		}
	}
	for _, a := range args {
		if a < 0 || a >= nsyms {
			return nil, fmt.Errorf("rel: argument id %d out of range", a)
		}
	}
	d := &Database{syms: syms, rels: rels, offs: offs, args: args}
	for i := 1; i < n; i++ {
		if !d.rowLess(i-1, i) {
			return nil, fmt.Errorf("rel: facts %d and %d out of order or duplicated", i-1, i)
		}
	}
	d.buildSpans()
	return d, nil
}

// rowLess is Fact.Less on two rows of d without materialising them.
func (d *Database) rowLess(i, j int) bool {
	if d.rels[i] != d.rels[j] {
		return d.syms.Str(d.rels[i]) < d.syms.Str(d.rels[j])
	}
	a, b := d.argRow(i), d.argRow(j)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for k := 0; k < n; k++ {
		if a[k] != b[k] {
			return d.syms.Str(a[k]) < d.syms.Str(b[k])
		}
	}
	return len(a) < len(b)
}

// rowIs reports whether fact i is f, without materialising fact i.
func (d *Database) rowIs(i int, f Fact) bool {
	row := d.argRow(i)
	if d.syms.Str(d.rels[i]) != f.Rel || len(row) != len(f.Args) {
		return false
	}
	for k, id := range row {
		if d.syms.Str(id) != f.Args[k] {
			return false
		}
	}
	return true
}

// search returns the index f takes in sorted order (the number of
// rows that sort before or equal it) and whether the row just before
// that index is f. It is the one way to find a fact by content: a
// binary search over the columns, comparing symbol strings, O(log n)
// rows.
func (d *Database) search(f Fact) (pos int, found bool) {
	pos = sort.Search(d.Len(), func(i int) bool { return d.factLessRow(f, i) })
	return pos, pos > 0 && d.rowIs(pos-1, f)
}

// factLessRow is f.Less(fact i) without materialising fact i.
func (d *Database) factLessRow(f Fact, i int) bool {
	rn := d.syms.Str(d.rels[i])
	if f.Rel != rn {
		return f.Rel < rn
	}
	row := d.argRow(i)
	n := len(f.Args)
	if len(row) < n {
		n = len(row)
	}
	for k := 0; k < n; k++ {
		if s := d.syms.Str(row[k]); f.Args[k] != s {
			return f.Args[k] < s
		}
	}
	return len(f.Args) < len(row)
}

// Len reports the number of facts |D|.
func (d *Database) Len() int { return len(d.rels) }

// Fact materialises the fact at index i. The strings are shared with
// the symbol table; only the headers are fresh. Hot paths should read
// the id columns (RelID, ArgIDs) instead.
func (d *Database) Fact(i int) Fact {
	row := d.argRow(i)
	args := make([]string, len(row))
	for k, id := range row {
		args[k] = d.syms.Str(id)
	}
	return Fact{Rel: d.syms.Str(d.rels[i]), Args: args}
}

// Facts returns the facts in sorted order, materialising the []Fact
// view on first use (cold paths only: formatting, exact engines, the
// oracle). The returned slice must not be modified.
func (d *Database) Facts() []Fact {
	d.factsOnce.Do(func() {
		if d.Len() == 0 {
			return
		}
		out := make([]Fact, d.Len())
		for i := range out {
			out[i] = d.Fact(i)
		}
		d.factsAll = out
	})
	return d.factsAll
}

// Symbols returns the database's symbol table, shared with every
// database of its copy-on-write lineage. Interning into it is safe —
// ids never change — but adds no fact.
func (d *Database) Symbols() *Symbols { return d.syms }

// RelID returns the interned relation id of fact i.
func (d *Database) RelID(i int) int32 { return d.rels[i] }

// ArgIDs returns the interned argument ids of fact i. The slice is a
// view into the argument column and must not be modified.
func (d *Database) ArgIDs(i int) []int32 { return d.argRow(i) }

// Arity reports the number of arguments of fact i.
func (d *Database) Arity(i int) int { return int(d.offs[i+1] - d.offs[i]) }

// RelIDOf resolves a relation name to its id; ok is false when no fact
// of the database uses the name.
func (d *Database) RelIDOf(name string) (int32, bool) {
	id, ok := d.syms.Lookup(name)
	if !ok {
		return 0, false
	}
	if _, hasSpan := d.spans[id]; !hasSpan {
		return 0, false
	}
	return id, true
}

// Columns exposes the raw columnar encoding for the snapshot codec.
// All three slices are backing arrays and must not be modified.
func (d *Database) Columns() (syms *Symbols, rels, offs, args []int32) {
	return d.syms, d.rels, d.offs, d.args
}

// IndexOf returns the index of the fact, or -1 if it is absent. It
// binary-searches the sorted rows (search) without allocating.
func (d *Database) IndexOf(f Fact) int {
	if pos, found := d.search(f); found {
		return pos - 1
	}
	return -1
}

// Contains reports whether the fact is in the database.
func (d *Database) Contains(f Fact) bool { return d.IndexOf(f) >= 0 }

// ActiveDomain returns dom(D), the sorted set of constants occurring
// in the database.
func (d *Database) ActiveDomain() []string {
	seen := make([]bool, d.syms.Len())
	out := make([]string, 0, d.syms.Len())
	for _, id := range d.args {
		if !seen[id] {
			seen[id] = true
			out = append(out, d.syms.Str(id))
		}
	}
	sort.Strings(out)
	return out
}

// FactsOf returns the facts over the given relation name, in sorted
// order — a sub-slice of the materialised fact view, not a copy. The
// returned slice must not be modified.
func (d *Database) FactsOf(rel string) []Fact {
	id, ok := d.RelIDOf(rel)
	if !ok {
		return nil
	}
	sp := d.spans[id]
	return d.Facts()[sp.lo:sp.hi]
}

// RelRange returns the half-open fact-index range [lo, hi) of the
// relation's facts (empty when the relation has none): the fact at
// global index lo+j is the j-th fact of FactsOf(rel). Index-based
// consumers (the subset-restricted homomorphism search) use it to test
// bitset membership without per-fact index lookups.
func (d *Database) RelRange(rel string) (lo, hi int) {
	id, ok := d.RelIDOf(rel)
	if !ok {
		return 0, 0
	}
	sp := d.spans[id]
	return sp.lo, sp.hi
}

// RelRangeID is RelRange keyed on an interned relation id, narrowed to
// the rows whose first argument is the interned id first when first ≥ 0.
// Rows sort relation-major and string-lexicographic (Fact.Less), so a
// relation's rows with one first argument are contiguous whatever their
// arities: two binary searches on the symbol strings find them, with no
// index. A row without arguments sorts before every other.
func (d *Database) RelRangeID(rid, first int32) (lo, hi int) {
	sp := d.spans[rid]
	if first < 0 || sp.lo == sp.hi {
		return sp.lo, sp.hi
	}
	s := d.syms.Str(first)
	// past reports whether row i sorts after the rows led by s (after or
	// among them, with orEqual).
	past := func(i int, orEqual bool) bool {
		row := d.argRow(i)
		if len(row) == 0 {
			return false
		}
		a := d.syms.Str(row[0])
		return a > s || orEqual && a == s
	}
	lo = sp.lo + sort.Search(sp.hi-sp.lo, func(i int) bool { return past(sp.lo+i, true) })
	hi = lo + sort.Search(sp.hi-lo, func(i int) bool { return past(lo+i, false) })
	return lo, hi
}

// Restrict returns the database containing exactly the facts of d whose
// indices are set in the subset. The result shares d's symbol table and
// is assembled by copying column rows — selection preserves sort order
// and distinctness, so there is nothing to re-sort or dedup.
func (d *Database) Restrict(s Subset) *Database {
	nd := &Database{syms: d.syms}
	keep := s.Count()
	nd.rels = make([]int32, 0, keep)
	nd.offs = make([]int32, 1, keep+1)
	nd.args = make([]int32, 0, len(d.args))
	for i := 0; i < d.Len(); i++ {
		if s.Has(i) {
			nd.rels = append(nd.rels, d.rels[i])
			nd.args = append(nd.args, d.argRow(i)...)
			nd.offs = append(nd.offs, int32(len(nd.args)))
		}
	}
	nd.buildSpans()
	return nd
}

// Union returns a new database containing the facts of both databases.
func (d *Database) Union(other *Database) *Database {
	facts := make([]Fact, 0, d.Len()+other.Len())
	facts = append(facts, d.Facts()...)
	facts = append(facts, other.Facts()...)
	return NewDatabase(facts...)
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

// Equal reports whether two databases contain the same set of facts.
func (d *Database) Equal(other *Database) bool {
	if d.Len() != other.Len() {
		return false
	}
	if d.syms == other.syms {
		// Shared symbol table (Restrict/Insert lineage): ids are
		// directly comparable.
		for i := range d.rels {
			if d.rels[i] != other.rels[i] || !eqIDs(d.argRow(i), other.argRow(i)) {
				return false
			}
		}
		return true
	}
	for i := range d.rels {
		if d.syms.Str(d.rels[i]) != other.syms.Str(other.rels[i]) {
			return false
		}
		a, b := d.argRow(i), other.argRow(i)
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if d.syms.Str(a[k]) != other.syms.Str(b[k]) {
				return false
			}
		}
	}
	return true
}

// String renders the database as "{f1, f2, ...}" in sorted order.
func (d *Database) String() string {
	parts := make([]string, d.Len())
	for i, f := range d.Facts() {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Insert returns a new database with f added at its sorted position,
// leaving d untouched (copy-on-write), together with the index f was
// assigned. Every fact previously at index ≥ pos moves to index+1 in
// the new database — callers maintaining index-based structures must
// remap. ok is false (and d is returned unchanged with f's existing
// index) when the fact is already present: the search for pos finds it
// as the row just before pos. An unseen constant is interned into the
// lineage's shared symbol table. The write copies the three columns;
// the relation spans are shifted from d's.
func (d *Database) Insert(f Fact) (nd *Database, pos int, ok bool) {
	pos, found := d.search(f)
	if found {
		return d, pos - 1, false
	}
	rid := d.syms.Intern(f.Rel)
	ids := make([]int32, len(f.Args))
	for k, a := range f.Args {
		ids[k] = d.syms.Intern(a)
	}

	nd = &Database{syms: d.syms}
	n := d.Len()
	nd.rels = make([]int32, 0, n+1)
	nd.rels = append(nd.rels, d.rels[:pos]...)
	nd.rels = append(nd.rels, rid)
	nd.rels = append(nd.rels, d.rels[pos:]...)
	cut := d.offs[pos]
	nd.args = make([]int32, 0, len(d.args)+len(ids))
	nd.args = append(nd.args, d.args[:cut]...)
	nd.args = append(nd.args, ids...)
	nd.args = append(nd.args, d.args[cut:]...)
	nd.offs = make([]int32, 0, n+2)
	nd.offs = append(nd.offs, d.offs[:pos+1]...)
	nd.offs = append(nd.offs, cut+int32(len(ids)))
	for _, o := range d.offs[pos+1:] {
		nd.offs = append(nd.offs, o+int32(len(ids)))
	}
	nd.spans = d.shiftedSpans(rid, pos, 1)
	return nd, pos, true
}

// Remove returns a new database with the fact at index i removed,
// leaving d untouched (copy-on-write). Every fact previously at index
// > i moves to index−1 in the new database. It panics when i is out of
// range, matching slice-index semantics. Like Insert it copies the
// columns only.
func (d *Database) Remove(i int) *Database {
	if i < 0 || i >= d.Len() {
		panic(fmt.Sprintf("rel: Remove index %d out of range [0,%d)", i, d.Len()))
	}
	nd := &Database{syms: d.syms}
	n := d.Len()
	nd.rels = make([]int32, 0, n-1)
	nd.rels = append(nd.rels, d.rels[:i]...)
	nd.rels = append(nd.rels, d.rels[i+1:]...)
	lo, hi := d.offs[i], d.offs[i+1]
	gap := hi - lo
	nd.args = make([]int32, 0, int32(len(d.args))-gap)
	nd.args = append(nd.args, d.args[:lo]...)
	nd.args = append(nd.args, d.args[hi:]...)
	nd.offs = make([]int32, 0, n)
	nd.offs = append(nd.offs, d.offs[:i+1]...)
	for _, o := range d.offs[i+2:] {
		nd.offs = append(nd.offs, o-gap)
	}
	nd.spans = d.shiftedSpans(d.rels[i], i, -1)
	return nd
}

// FullSubset returns the subset containing every fact of d.
func (d *Database) FullSubset() Subset {
	s := NewSubset(d.Len())
	for i := 0; i < d.Len(); i++ {
		s.Set(i)
	}
	return s
}

// NewSymbolsFromStrings rebuilds a symbol table from its string column
// in id order (the snapshot decode path). It fails on duplicates,
// which would make ids ambiguous.
func NewSymbolsFromStrings(strs []string) (*Symbols, error) {
	s, ok := newSymbolsFromStrings(strs)
	if !ok {
		return nil, fmt.Errorf("rel: duplicate string in symbol column")
	}
	return s, nil
}

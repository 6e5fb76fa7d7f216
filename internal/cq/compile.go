package cq

// The interned evaluation plan: a Query compiled against one database's
// symbol table. Compilation translates every atom to (relation id, term
// ids) and every variable to a dense slot, so the backtracking search
// unifies int32s — no string comparison, no map get/delete per
// candidate fact. A Homomorphism map is materialised only when a caller
// actually asks for one (at yield), never on the per-draw entailment
// hot path.
//
// A Compiled plan is immutable and safe for concurrent use; each search
// call carries its own small state (binding slots, matched-fact slots),
// which is what the repair-space samplers pay per draw instead of the
// old per-candidate map traffic.

import (
	"sort"

	"repro/internal/rel"
)

// cterm is a compiled atom term: either a variable slot or an interned
// constant id.
type cterm struct {
	// id is the variable slot when isVar, else the constant's symbol id.
	id    int32
	isVar bool
}

// catom is a compiled body atom.
type catom struct {
	rid   int32
	terms []cterm
}

// Compiled is a query bound to one database's interned representation.
// Build it once per (query, database) pair and reuse it across draws;
// CompileFor is cheap (O(|Q|)) but not free.
type Compiled struct {
	q *Query
	d *rel.Database
	// unsat marks a query that cannot match at all against d: some body
	// relation has no facts, or some body constant was never interned —
	// no fact of d can mention it.
	unsat bool
	// order is the atom evaluation order (most selective first).
	order []int
	atoms []catom
	// varNames maps a slot to its variable name; slots are assigned in
	// first-occurrence order over the body.
	varNames []string
	varSlot  map[string]int32
	// ansSlots[i] is the slot of AnswerVars[i].
	ansSlots []int32
}

// CompileFor builds the interned evaluation plan of q against d. The
// plan is tied to d's symbol table and must not be used with any other
// database.
func (q *Query) CompileFor(d *rel.Database) *Compiled {
	c := &Compiled{
		q: q, d: d,
		order:   planOrder(q),
		atoms:   make([]catom, len(q.Atoms)),
		varSlot: make(map[string]int32),
	}
	syms := d.Symbols()
	for ai, a := range q.Atoms {
		rid, ok := d.RelIDOf(a.Rel)
		if !ok {
			c.unsat = true
		}
		ca := catom{rid: rid, terms: make([]cterm, len(a.Terms))}
		for i, t := range a.Terms {
			if t.IsVar {
				slot, seen := c.varSlot[t.Value]
				if !seen {
					slot = int32(len(c.varNames))
					c.varSlot[t.Value] = slot
					c.varNames = append(c.varNames, t.Value)
				}
				ca.terms[i] = cterm{id: slot, isVar: true}
				continue
			}
			id, ok := syms.Lookup(t.Value)
			if !ok {
				c.unsat = true
			}
			ca.terms[i] = cterm{id: id}
		}
		c.atoms[ai] = ca
	}
	c.ansSlots = make([]int32, len(q.AnswerVars))
	for i, v := range q.AnswerVars {
		// Safety (checked in New) guarantees every answer variable has a
		// body slot.
		c.ansSlots[i] = c.varSlot[v]
	}
	return c
}

// searchState is the per-call backtracking state. binding[slot] is the
// constant id the slot is unified with, -1 while unbound; facts[i] is
// the global fact index atom i is matched to, complete exactly when
// yield fires.
type searchState struct {
	binding []int32
	touched []int32 // scratch: slots bound at each depth, stacked
	facts   []int
	mask    rel.Subset
	useMask bool
	yield   func(binding []int32, facts []int) bool
}

func (c *Compiled) newState(yield func([]int32, []int) bool) *searchState {
	binding := make([]int32, len(c.varNames))
	for i := range binding {
		binding[i] = -1
	}
	total := 0
	for _, a := range c.atoms {
		total += len(a.terms)
	}
	return &searchState{
		binding: binding,
		touched: make([]int32, 0, total),
		facts:   make([]int, len(c.atoms)),
		yield:   yield,
	}
}

// search walks the atoms in the given order, binding each to the rows
// of its relation that agree with the binding so far. An atom whose
// first term is fixed — a constant, or a variable an earlier atom bound
// — scans only the rows with that first argument (RelRangeID's binary
// search), so a selective atom costs O(log |D|) rather than a scan of
// its relation.
func (c *Compiled) search(st *searchState, order []int, depth int) bool {
	if depth == len(order) {
		return st.yield(st.binding, st.facts)
	}
	ai := order[depth]
	a := &c.atoms[ai]
	d := c.d
	first := int32(-1)
	if len(a.terms) > 0 {
		if t := a.terms[0]; t.isVar {
			first = st.binding[t.id]
		} else {
			first = t.id
		}
	}
	lo, hi := d.RelRangeID(a.rid, first)
	for idx := lo; idx < hi; idx++ {
		if st.useMask && !st.mask.Has(idx) {
			continue
		}
		row := d.ArgIDs(idx)
		if len(row) != len(a.terms) {
			continue
		}
		mark := len(st.touched)
		ok := true
		for i, t := range a.terms {
			cid := row[i]
			if !t.isVar {
				if t.id != cid {
					ok = false
					break
				}
				continue
			}
			if prev := st.binding[t.id]; prev >= 0 {
				if prev != cid {
					ok = false
					break
				}
				continue
			}
			st.binding[t.id] = cid
			st.touched = append(st.touched, t.id)
		}
		if ok {
			st.facts[ai] = idx
			if !c.search(st, order, depth+1) {
				st.unbind(mark)
				return false
			}
		}
		st.unbind(mark)
	}
	return true
}

// unbind rolls the binding back to a touched-stack mark.
func (st *searchState) unbind(mark int) {
	for _, slot := range st.touched[mark:] {
		st.binding[slot] = -1
	}
	st.touched = st.touched[:mark]
}

// run drives the search with an optional subset mask and optional
// pre-bound slots (the HasAnswer pre-binding). preBound pairs are
// (slot, constant id); conflicting pre-bindings make the search empty,
// reported via the false return.
func (c *Compiled) run(st *searchState, preBound [][2]int32) {
	if c.unsat {
		return
	}
	for _, pb := range preBound {
		slot, cid := pb[0], pb[1]
		if prev := st.binding[slot]; prev >= 0 {
			if prev != cid {
				return
			}
			continue
		}
		st.binding[slot] = cid
	}
	c.search(st, c.order, 0)
}

// bindings enumerates interned solutions: yield receives the slot
// binding (indexed by compiled slots, see VarNames) and the matched
// fact indices (indexed by atom position). Both slices are reused
// between yields and must not be retained. Enumeration stops when
// yield returns false.
func (c *Compiled) bindings(mask rel.Subset, useMask bool, preBound [][2]int32, yield func([]int32, []int) bool) {
	st := c.newState(yield)
	st.mask, st.useMask = mask, useMask
	c.run(st, preBound)
}

// Matches enumerates the plan's matches against its database: yield
// receives the slot binding and the per-atom matched fact indices,
// under the same reuse rules as bindings, until it returns false. A nil
// t enumerates every match. Any other t, the empty tuple of a Boolean
// query included, is bound into the answer slots before the search
// starts, so only the matches answering t are explored, in the order
// the unbound search would yield them; none when t has the wrong arity
// or a constant no fact mentions.
func (c *Compiled) Matches(t Tuple, yield func(binding []int32, facts []int) bool) {
	var pre [][2]int32
	if t != nil {
		var ok bool
		if pre, ok = c.compileTuple(t); !ok {
			return
		}
	}
	c.bindings(rel.Subset{}, false, pre, yield)
}

// AnswerOf materialises the answer tuple of a complete binding, as
// yielded by Matches and AnchoredMatches. Boolean queries answer the
// empty tuple.
func (c *Compiled) AnswerOf(binding []int32) Tuple {
	syms := c.d.Symbols()
	tup := make(Tuple, len(c.ansSlots))
	for i, slot := range c.ansSlots {
		tup[i] = syms.Str(binding[slot])
	}
	return tup
}

// AnchoredMatches enumerates the homomorphic images whose atom ai maps
// to the fact at global index fi — the incremental witness-discovery
// primitive: after one fact is inserted, the new images are exactly the
// ones anchored at it (for some atom), so witness maintenance costs an
// anchored search per atom instead of a full re-enumeration. The
// anchored atom is unified against the fact up front and skipped by the
// search, so no scan of its relation happens; only the remaining atoms
// are explored under the anchored binding. yield receives the slot
// binding and per-atom matched fact indices under the same reuse rules
// as bindings.
func (c *Compiled) AnchoredMatches(ai, fi int, yield func(binding []int32, facts []int) bool) {
	if c.unsat || ai < 0 || ai >= len(c.atoms) {
		return
	}
	a := &c.atoms[ai]
	d := c.d
	if d.RelID(fi) != a.rid {
		return
	}
	row := d.ArgIDs(fi)
	if len(row) != len(a.terms) {
		return
	}
	st := c.newState(yield)
	// Unify the anchored atom against the fact: constants must agree,
	// variables bind (repeated variables must agree with themselves).
	for i, t := range a.terms {
		cid := row[i]
		if !t.isVar {
			if t.id != cid {
				return
			}
			continue
		}
		if prev := st.binding[t.id]; prev >= 0 {
			if prev != cid {
				return
			}
			continue
		}
		st.binding[t.id] = cid
	}
	st.facts[ai] = fi
	order := make([]int, 0, len(c.order)-1)
	for _, oi := range c.order {
		if oi != ai {
			order = append(order, oi)
		}
	}
	c.search(st, order, 0)
}

// NumAtoms reports the body size — the anchor positions AnchoredMatches
// accepts.
func (c *Compiled) NumAtoms() int { return len(c.atoms) }

// homomorphism materialises the string view of a complete binding.
func (c *Compiled) homomorphism(binding []int32) Homomorphism {
	syms := c.d.Symbols()
	h := make(Homomorphism, len(binding))
	for slot, cid := range binding {
		if cid >= 0 {
			h[c.varNames[slot]] = syms.Str(cid)
		}
	}
	return h
}

// Entails reports whether some homomorphism from the query into the
// database exists.
func (c *Compiled) Entails() bool {
	found := false
	c.bindings(rel.Subset{}, false, nil, func([]int32, []int) bool {
		found = true
		return false
	})
	return found
}

// EntailsIn reports whether D' |= Q for the sub-database identified by
// the subset mask — the per-draw hot path of the estimators.
func (c *Compiled) EntailsIn(s rel.Subset) bool {
	found := false
	c.bindings(s, true, nil, func([]int32, []int) bool {
		found = true
		return false
	})
	return found
}

// compileTuple translates an answer tuple to pre-bound slots. ok is
// false when some constant was never interned (no fact mentions it, so
// the tuple cannot be an answer) or the arity is wrong.
func (c *Compiled) compileTuple(t Tuple) ([][2]int32, bool) {
	if len(t) != len(c.ansSlots) {
		return nil, false
	}
	syms := c.d.Symbols()
	out := make([][2]int32, len(t))
	for i, s := range t {
		id, ok := syms.Lookup(s)
		if !ok {
			return nil, false
		}
		out[i] = [2]int32{c.ansSlots[i], id}
	}
	return out, true
}

// HasAnswerIn reports whether c̄ ∈ Q(D') for the sub-database
// identified by the mask. The tuple's constants are bound into their
// answer slots before the search starts, so the walk only explores
// matches that could produce this tuple.
func (c *Compiled) HasAnswerIn(s rel.Subset, t Tuple) bool {
	pre, ok := c.compileTuple(t)
	if !ok {
		return false
	}
	found := false
	c.bindings(s, true, pre, func([]int32, []int) bool {
		found = true
		return false
	})
	return found
}

// HasAnswer reports whether c̄ ∈ Q(D).
func (c *Compiled) HasAnswer(t Tuple) bool {
	pre, ok := c.compileTuple(t)
	if !ok {
		return false
	}
	found := false
	c.bindings(rel.Subset{}, false, pre, func([]int32, []int) bool {
		found = true
		return false
	})
	return found
}

// AnswersIn computes Q(D') for the sub-database identified by the
// mask, as a sorted set of tuples.
func (c *Compiled) AnswersIn(s rel.Subset, useMask bool) []Tuple {
	syms := c.d.Symbols()
	seen := make(map[string]bool)
	var out []Tuple
	c.bindings(s, useMask, nil, func(binding []int32, _ []int) bool {
		tup := make(Tuple, len(c.ansSlots))
		for i, slot := range c.ansSlots {
			tup[i] = syms.Str(binding[slot])
		}
		if k := tup.Key(); !seen[k] {
			seen[k] = true
			out = append(out, tup)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// planOrder orders atoms so that atoms sharing variables with already
// planned atoms come early, preferring atoms with more constants. This is
// a greedy bound-variables-first join order.
func planOrder(q *Query) []int {
	n := len(q.Atoms)
	used := make([]bool, n)
	bound := make(map[string]bool)
	order := make([]int, 0, n)
	score := func(i int) int {
		s := 0
		for _, t := range q.Atoms[i].Terms {
			if !t.IsVar || bound[t.Value] {
				s++
			}
		}
		return s
	}
	for len(order) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if sc := score(i); sc > bestScore {
				best, bestScore = i, sc
			}
		}
		used[best] = true
		order = append(order, best)
		for _, t := range q.Atoms[best].Terms {
			if t.IsVar {
				bound[t.Value] = true
			}
		}
	}
	return order
}

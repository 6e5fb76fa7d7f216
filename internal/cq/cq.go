// Package cq implements conjunctive queries (Section 2 of the paper):
// atoms over constants and variables, homomorphism-based semantics, and
// answer enumeration Q(D). It also exposes the "query as a set of atoms"
// view the appendix proofs use (homomorphic images h(Q)).
package cq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rel"
)

// Term is a variable or a constant appearing in a query atom.
type Term struct {
	// Value is the variable name or the constant.
	Value string
	// IsVar distinguishes variables from constants.
	IsVar bool
}

// Var builds a variable term.
func Var(name string) Term { return Term{Value: name, IsVar: true} }

// Const builds a constant term.
func Const(c string) Term { return Term{Value: c} }

// String renders variables bare and constants quoted.
func (t Term) String() string {
	if t.IsVar {
		return t.Value
	}
	return "'" + t.Value + "'"
}

// Atom is a relational atom R(t1,...,tn).
type Atom struct {
	Rel   string
	Terms []Term
}

// NewAtom builds an atom.
func NewAtom(relName string, terms ...Term) Atom {
	cp := make([]Term, len(terms))
	copy(cp, terms)
	return Atom{Rel: relName, Terms: cp}
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ","))
}

// Query is a conjunctive query Ans(x̄) :- R1(ȳ1), ..., Rn(ȳn).
type Query struct {
	// AnswerVars is the tuple x̄ of answer variables. Empty for Boolean
	// queries.
	AnswerVars []string
	// Atoms is the body of the query.
	Atoms []Atom
}

// New builds a query, checking that every answer variable occurs in the
// body (the safety condition of Section 2).
func New(answerVars []string, atoms ...Atom) (*Query, error) {
	if len(atoms) == 0 {
		return nil, fmt.Errorf("cq: query with empty body")
	}
	q := &Query{AnswerVars: append([]string(nil), answerVars...), Atoms: append([]Atom(nil), atoms...)}
	body := q.Variables()
	inBody := make(map[string]bool, len(body))
	for _, v := range body {
		inBody[v] = true
	}
	for _, v := range q.AnswerVars {
		if !inBody[v] {
			return nil, fmt.Errorf("cq: answer variable %q does not occur in the body", v)
		}
	}
	return q, nil
}

// MustNew is like New but panics on error.
func MustNew(answerVars []string, atoms ...Atom) *Query {
	q, err := New(answerVars, atoms...)
	if err != nil {
		panic(err)
	}
	return q
}

// IsBoolean reports whether the query has no answer variables.
func (q *Query) IsBoolean() bool { return len(q.AnswerVars) == 0 }

// IsAtomic reports whether the query has a single body atom.
func (q *Query) IsAtomic() bool { return len(q.Atoms) == 1 }

// Size reports |Q|, the number of atoms in the body. The paper's lower
// bounds (Lemmas 5.3, 6.3, D.8, ...) are stated in terms of this size.
func (q *Query) Size() int { return len(q.Atoms) }

// Variables returns var(Q), the sorted set of variables in the body.
func (q *Query) Variables() []string {
	set := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, t := range a.Terms {
			if t.IsVar {
				set[t.Value] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Constants returns const(Q), the sorted set of constants in the body.
func (q *Query) Constants() []string {
	set := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, t := range a.Terms {
			if !t.IsVar {
				set[t.Value] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// String renders the query in the paper's rule syntax.
func (q *Query) String() string {
	body := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		body[i] = a.String()
	}
	return fmt.Sprintf("Ans(%s) :- %s", strings.Join(q.AnswerVars, ","), strings.Join(body, ", "))
}

// Validate checks arities against a schema.
func (q *Query) Validate(s *rel.Schema) error {
	for _, a := range q.Atoms {
		r, ok := s.Relation(a.Rel)
		if !ok {
			return fmt.Errorf("cq: unknown relation %q", a.Rel)
		}
		if len(a.Terms) != r.Arity() {
			return fmt.Errorf("cq: atom %s has %d terms, relation has arity %d", a, len(a.Terms), r.Arity())
		}
	}
	return nil
}

// Homomorphism is a mapping from the variables of a query to constants.
type Homomorphism map[string]string

// Image returns h(Q): the database of facts obtained by applying the
// homomorphism to every body atom. It panics if some variable is unbound.
func (q *Query) Image(h Homomorphism) *rel.Database {
	facts := make([]rel.Fact, 0, len(q.Atoms))
	for _, a := range q.Atoms {
		args := make([]string, len(a.Terms))
		for i, t := range a.Terms {
			if t.IsVar {
				c, ok := h[t.Value]
				if !ok {
					panic(fmt.Sprintf("cq: unbound variable %q", t.Value))
				}
				args[i] = c
			} else {
				args[i] = t.Value
			}
		}
		facts = append(facts, rel.NewFact(a.Rel, args...))
	}
	return rel.NewDatabase(facts...)
}

// Entails reports whether D |= Q for a Boolean query (or, for a
// non-Boolean query, whether Q has at least one answer over D).
// Repeated callers should CompileFor the database once and use
// Compiled.Entails.
func (q *Query) Entails(d *rel.Database) bool {
	return q.CompileFor(d).Entails()
}

// EntailsIn reports whether D' |= Q for the sub-database of d
// identified by s, evaluated against the subset mask directly.
// Repeated callers (one entailment per Monte-Carlo draw) should
// CompileFor the database once and use Compiled.EntailsIn.
func (q *Query) EntailsIn(d *rel.Database, s rel.Subset) bool {
	return q.CompileFor(d).EntailsIn(s)
}

// Tuple is an answer tuple c̄ ∈ dom(D)^{|x̄|}.
type Tuple []string

// Key returns a canonical encoding of the tuple.
func (t Tuple) Key() string { return strings.Join(t, "\x00") }

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// String renders the tuple as "(c1,...,ck)".
func (t Tuple) String() string { return "(" + strings.Join(t, ",") + ")" }

// Answers computes Q(D), the sorted set of answer tuples.
func (q *Query) Answers(d *rel.Database) []Tuple {
	return q.CompileFor(d).AnswersIn(rel.Subset{}, false)
}

// HasAnswer reports whether c̄ ∈ Q(D).
func (q *Query) HasAnswer(d *rel.Database, c Tuple) bool {
	return q.CompileFor(d).HasAnswer(c)
}

// HasAnswerIn reports whether c̄ ∈ Q(D') for the sub-database of d
// identified by s, without materialising D'. Repeated callers should
// CompileFor the database once and use Compiled.HasAnswerIn.
func (q *Query) HasAnswerIn(d *rel.Database, s rel.Subset, c Tuple) bool {
	return q.CompileFor(d).HasAnswerIn(s, c)
}

// WitnessImages enumerates the distinct images h(Q) over all
// homomorphisms h from Q to D with h(x̄) = c̄. The appendix lower-bound
// proofs quantify over such images; the experiments use them to locate a
// consistent witness (an h with h(Q) |= Σ). The tuple's constants are
// bound into their answer slots before the search starts.
func (q *Query) WitnessImages(d *rel.Database, c Tuple) []*rel.Database {
	cc := q.CompileFor(d)
	pre, ok := cc.compileTuple(c)
	if !ok {
		return nil
	}
	seen := make(map[string]bool)
	var out []*rel.Database
	cc.bindings(rel.Subset{}, false, pre, func(binding []int32, _ []int) bool {
		img := q.Image(cc.homomorphism(binding))
		if k := img.String(); !seen[k] {
			seen[k] = true
			out = append(out, img)
		}
		return true
	})
	return out
}

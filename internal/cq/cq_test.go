package cq

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

// homomorphisms is the shared enumeration driver of the tests'
// unmasked and masked variants: the interned search, materialising the
// Homomorphism map at yield.
func (q *Query) homomorphisms(d *rel.Database, mask rel.Subset, useMask bool, yield func(Homomorphism, []int) bool) {
	c := q.CompileFor(d)
	c.bindings(mask, useMask, nil, func(binding []int32, facts []int) bool {
		return yield(c.homomorphism(binding), facts)
	})
}

// HomomorphismsMatched enumerates Compiled.Matches of every match with
// the string view of its binding: facts[i] is the index of the fact
// body atom i unified with.
func (q *Query) HomomorphismsMatched(d *rel.Database, yield func(h Homomorphism, facts []int) bool) {
	c := q.CompileFor(d)
	c.Matches(nil, func(binding []int32, facts []int) bool {
		return yield(c.homomorphism(binding), facts)
	})
}

// Homomorphisms enumerates every homomorphism from Q to D.
func (q *Query) Homomorphisms(d *rel.Database, yield func(Homomorphism) bool) {
	q.homomorphisms(d, rel.Subset{}, false, func(h Homomorphism, _ []int) bool { return yield(h) })
}

// HomomorphismsIn enumerates every homomorphism from Q to the
// sub-database of d identified by the subset, testing candidate facts
// against the bitset by their global index.
func (q *Query) HomomorphismsIn(d *rel.Database, s rel.Subset, yield func(Homomorphism) bool) {
	q.homomorphisms(d, s, true, func(h Homomorphism, _ []int) bool { return yield(h) })
}

func edgeDB(edges ...[2]string) *rel.Database {
	var facts []rel.Fact
	for _, e := range edges {
		facts = append(facts, rel.NewFact("E", e[0], e[1]))
	}
	return rel.NewDatabase(facts...)
}

func TestNewRejectsUnsafe(t *testing.T) {
	_, err := New([]string{"x"}, NewAtom("R", Var("y")))
	if err == nil {
		t.Fatal("answer variable not in body should be rejected")
	}
}

func TestNewRejectsEmptyBody(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty body should be rejected")
	}
}

func TestBooleanAtomicSize(t *testing.T) {
	q := MustNew(nil, NewAtom("R", Var("x")))
	if !q.IsBoolean() || !q.IsAtomic() || q.Size() != 1 {
		t.Fatal("flags wrong")
	}
	q2 := MustNew([]string{"x"}, NewAtom("R", Var("x")), NewAtom("S", Var("x")))
	if q2.IsBoolean() || q2.IsAtomic() || q2.Size() != 2 {
		t.Fatal("flags wrong")
	}
}

func TestVariablesAndConstants(t *testing.T) {
	q := MustNew(nil,
		NewAtom("R", Var("y"), Const("c")),
		NewAtom("S", Var("x"), Const("a")),
	)
	if got := q.Variables(); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("Variables = %v", got)
	}
	if got := q.Constants(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("Constants = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	q := MustNew([]string{"x"}, NewAtom("R", Var("x"), Const("c")))
	if got := q.String(); got != "Ans(x) :- R(x,'c')" {
		t.Fatalf("String = %q", got)
	}
}

func TestValidate(t *testing.T) {
	s := rel.MustSchema(rel.NewRelation("R", 2))
	ok := MustNew(nil, NewAtom("R", Var("x"), Var("y")))
	if err := ok.Validate(s); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	badArity := MustNew(nil, NewAtom("R", Var("x")))
	if err := badArity.Validate(s); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	badRel := MustNew(nil, NewAtom("T", Var("x")))
	if err := badRel.Validate(s); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestEntailsSimple(t *testing.T) {
	d := edgeDB([2]string{"a", "b"})
	q := MustNew(nil, NewAtom("E", Var("x"), Var("y")))
	if !q.Entails(d) {
		t.Error("should entail")
	}
	empty := rel.NewDatabase()
	if q.Entails(empty) {
		t.Error("empty database entails nothing")
	}
}

func TestEntailsWithConstants(t *testing.T) {
	d := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"})
	q := MustNew(nil, NewAtom("E", Const("a"), Var("y")))
	if !q.Entails(d) {
		t.Error("E('a', y) should hold")
	}
	q2 := MustNew(nil, NewAtom("E", Const("c"), Var("y")))
	if q2.Entails(d) {
		t.Error("E('c', y) should not hold")
	}
}

func TestJoinQuery(t *testing.T) {
	// Path of length 2: E(x,y), E(y,z).
	d := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	q := MustNew([]string{"x", "z"},
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("y"), Var("z")),
	)
	got := q.Answers(d)
	want := []Tuple{{"a", "c"}, {"b", "d"}}
	if len(got) != len(want) {
		t.Fatalf("Answers = %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("Answers = %v, want %v", got, want)
		}
	}
}

func TestSelfJoinSameVariable(t *testing.T) {
	// E(x,x): self-loops only.
	d := edgeDB([2]string{"a", "a"}, [2]string{"a", "b"})
	q := MustNew([]string{"x"}, NewAtom("E", Var("x"), Var("x")))
	got := q.Answers(d)
	if len(got) != 1 || got[0][0] != "a" {
		t.Fatalf("Answers = %v", got)
	}
}

func TestAnswersDeduplicated(t *testing.T) {
	// Two witnesses for the same answer tuple.
	d := edgeDB([2]string{"a", "b"}, [2]string{"a", "c"})
	q := MustNew([]string{"x"}, NewAtom("E", Var("x"), Var("y")))
	got := q.Answers(d)
	if len(got) != 1 || got[0][0] != "a" {
		t.Fatalf("Answers = %v", got)
	}
}

func TestHasAnswer(t *testing.T) {
	d := edgeDB([2]string{"a", "b"})
	q := MustNew([]string{"x", "y"}, NewAtom("E", Var("x"), Var("y")))
	if !q.HasAnswer(d, Tuple{"a", "b"}) {
		t.Error("(a,b) should be an answer")
	}
	if q.HasAnswer(d, Tuple{"b", "a"}) {
		t.Error("(b,a) should not be an answer")
	}
	if q.HasAnswer(d, Tuple{"a"}) {
		t.Error("wrong arity tuple should not be an answer")
	}
}

func TestBooleanEmptyTupleAnswer(t *testing.T) {
	d := edgeDB([2]string{"a", "b"})
	q := MustNew(nil, NewAtom("E", Var("x"), Var("y")))
	if !q.HasAnswer(d, Tuple{}) {
		t.Error("Boolean query with a match should have the empty tuple as answer")
	}
	ans := q.Answers(d)
	if len(ans) != 1 || len(ans[0]) != 0 {
		t.Fatalf("Answers = %v", ans)
	}
}

func TestImage(t *testing.T) {
	q := MustNew(nil,
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("y"), Const("c")),
	)
	h := Homomorphism{"x": "a", "y": "b"}
	img := q.Image(h)
	want := rel.NewDatabase(rel.NewFact("E", "a", "b"), rel.NewFact("E", "b", "c"))
	if !img.Equal(want) {
		t.Fatalf("Image = %v, want %v", img, want)
	}
}

func TestImagePanicsOnUnbound(t *testing.T) {
	q := MustNew(nil, NewAtom("E", Var("x"), Var("y")))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbound variable")
		}
	}()
	q.Image(Homomorphism{"x": "a"})
}

func TestImageCollapsesAtoms(t *testing.T) {
	// Two atoms can map to the same fact: |h(Q)| ≤ |Q|.
	q := MustNew(nil,
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("z"), Var("w")),
	)
	h := Homomorphism{"x": "a", "y": "b", "z": "a", "w": "b"}
	if img := q.Image(h); img.Len() != 1 {
		t.Fatalf("image size = %d, want 1", img.Len())
	}
}

func TestWitnessImages(t *testing.T) {
	d := edgeDB([2]string{"a", "b"}, [2]string{"a", "c"}, [2]string{"z", "b"})
	q := MustNew([]string{"x"}, NewAtom("E", Var("x"), Var("y")))
	imgs := q.WitnessImages(d, Tuple{"a"})
	if len(imgs) != 2 {
		t.Fatalf("got %d witness images, want 2", len(imgs))
	}
	for _, img := range imgs {
		if img.Len() != 1 || img.Fact(0).Arg(0) != "a" {
			t.Fatalf("bad image %v", img)
		}
	}
	if imgs := q.WitnessImages(d, Tuple{"nope"}); len(imgs) != 0 {
		t.Fatalf("expected no images, got %v", imgs)
	}
}

func TestHomomorphismsEarlyStop(t *testing.T) {
	d := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	q := MustNew(nil, NewAtom("E", Var("x"), Var("y")))
	count := 0
	q.Homomorphisms(d, func(Homomorphism) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("enumerated %d homomorphisms, want early stop at 2", count)
	}
}

func TestTriangleQuery(t *testing.T) {
	d := edgeDB(
		[2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "a"},
		[2]string{"a", "d"},
	)
	q := MustNew(nil,
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("y"), Var("z")),
		NewAtom("E", Var("z"), Var("x")),
	)
	if !q.Entails(d) {
		t.Error("triangle should be found")
	}
	d2 := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"})
	if q.Entails(d2) {
		t.Error("no triangle in a path")
	}
}

func TestRunningExampleQuery(t *testing.T) {
	// The query of the B.1 reduction: Ans() :- E(x,y), V(x,z), V(y,z), T(z).
	q := MustNew(nil,
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("V", Var("x"), Var("z")),
		NewAtom("V", Var("y"), Var("z")),
		NewAtom("T", Var("z")),
	)
	d := rel.NewDatabase(
		rel.NewFact("E", "u", "v"),
		rel.NewFact("V", "u", "1"),
		rel.NewFact("V", "v", "1"),
		rel.NewFact("T", "1"),
	)
	if !q.Entails(d) {
		t.Error("monochromatic-1 edge should be detected")
	}
	d2 := rel.NewDatabase(
		rel.NewFact("E", "u", "v"),
		rel.NewFact("V", "u", "1"),
		rel.NewFact("T", "1"),
	)
	if q.Entails(d2) {
		t.Error("no monochromatic edge after removal")
	}
}

// countHomomorphismsNaive counts homomorphisms by brute force over all
// variable assignments into the active domain.
func countHomomorphismsNaive(q *Query, d *rel.Database) int {
	vars := q.Variables()
	dom := d.ActiveDomain()
	if len(dom) == 0 {
		return 0
	}
	count := 0
	assign := make(Homomorphism, len(vars))
	var recur func(int)
	recur = func(i int) {
		if i == len(vars) {
			ok := true
			for _, f := range q.Image(assign).Facts() {
				if !d.Contains(f) {
					ok = false
					break
				}
			}
			if ok {
				count++
			}
			return
		}
		for _, c := range dom {
			assign[vars[i]] = c
			recur(i + 1)
		}
		delete(assign, vars[i])
	}
	recur(0)
	return count
}

// Property: the backtracking engine finds exactly the homomorphisms the
// brute-force assignment enumeration finds, on random edge databases.
func TestQuickHomomorphismCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := MustNew(nil,
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("y"), Var("z")),
	)
	prop := func() bool {
		n := 1 + rng.Intn(8)
		var edges [][2]string
		for i := 0; i < n; i++ {
			edges = append(edges, [2]string{
				string(rune('a' + rng.Intn(4))),
				string(rune('a' + rng.Intn(4))),
			})
		}
		d := edgeDB(edges...)
		got := 0
		q.Homomorphisms(d, func(Homomorphism) bool { got++; return true })
		return got == countHomomorphismsNaive(q, d)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every answer tuple has a witness image contained in D, and
// HasAnswer agrees with membership in Answers.
func TestQuickAnswersConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := MustNew([]string{"x"},
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("y"), Var("x")),
	)
	prop := func() bool {
		n := 1 + rng.Intn(8)
		var edges [][2]string
		for i := 0; i < n; i++ {
			edges = append(edges, [2]string{
				string(rune('a' + rng.Intn(4))),
				string(rune('a' + rng.Intn(4))),
			})
		}
		d := edgeDB(edges...)
		ans := q.Answers(d)
		inAns := make(map[string]bool)
		for _, a := range ans {
			inAns[a.Key()] = true
			if !q.HasAnswer(d, a) {
				return false
			}
			for _, img := range q.WitnessImages(d, a) {
				for _, f := range img.Facts() {
					if !d.Contains(f) {
						return false
					}
				}
			}
		}
		for _, c := range d.ActiveDomain() {
			if q.HasAnswer(d, Tuple{c}) != inAns[Tuple{c}.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleKeyAndString(t *testing.T) {
	a := Tuple{"x", "y"}
	b := Tuple{"x", "y"}
	c := Tuple{"xy"}
	if a.Key() != b.Key() {
		t.Error("equal tuples must share keys")
	}
	if a.Key() == c.Key() {
		t.Error("distinct tuples must not share keys")
	}
	if a.String() != "(x,y)" {
		t.Errorf("String = %q", a.String())
	}
	if a.Equal(c) || !a.Equal(b) {
		t.Error("Equal wrong")
	}
}

package rel

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewRelationDefaultAttrs(t *testing.T) {
	r := NewRelation("R", 3)
	want := []string{"A1", "A2", "A3"}
	if !reflect.DeepEqual(r.Attrs, want) {
		t.Fatalf("attrs = %v, want %v", r.Attrs, want)
	}
	if r.Arity() != 3 {
		t.Fatalf("arity = %d, want 3", r.Arity())
	}
}

func TestRelationAttrIndex(t *testing.T) {
	r := Relation{Name: "Emp", Attrs: []string{"id", "name"}}
	if got := r.AttrIndex("name"); got != 1 {
		t.Errorf("AttrIndex(name) = %d, want 1", got)
	}
	if got := r.AttrIndex("salary"); got != -1 {
		t.Errorf("AttrIndex(salary) = %d, want -1", got)
	}
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(NewRelation("R", 2), NewRelation("R", 3))
	if err == nil {
		t.Fatal("expected duplicate-relation error")
	}
}

func TestNewSchemaRejectsZeroArity(t *testing.T) {
	_, err := NewSchema(Relation{Name: "R"})
	if err == nil {
		t.Fatal("expected zero-arity error")
	}
}

func TestNewSchemaRejectsRepeatedAttr(t *testing.T) {
	_, err := NewSchema(Relation{Name: "R", Attrs: []string{"A", "A"}})
	if err == nil {
		t.Fatal("expected repeated-attribute error")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := MustSchema(NewRelation("R", 2), NewRelation("S", 1))
	r, ok := s.Relation("R")
	if !ok || r.Arity() != 2 {
		t.Fatalf("Relation(R) = %v, %v", r, ok)
	}
	if _, ok := s.Relation("T"); ok {
		t.Fatal("Relation(T) should be absent")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	rels := s.Relations()
	if rels[0].Name != "R" || rels[1].Name != "S" {
		t.Fatalf("Relations order = %v", rels)
	}
}

func TestFactEqual(t *testing.T) {
	f := NewFact("R", "a", "b")
	g := NewFact("R", "a", "b")
	h := NewFact("R", "a", "c")
	if !f.Equal(g) {
		t.Error("f should equal g")
	}
	if f.Equal(h) {
		t.Error("f should differ from h")
	}
}

func TestFactString(t *testing.T) {
	f := NewFact("Emp", "1", "Alice")
	if got := f.String(); got != "Emp(1,Alice)" {
		t.Fatalf("String = %q", got)
	}
}

func TestFactArgIsImmutableCopy(t *testing.T) {
	args := []string{"a", "b"}
	f := NewFact("R", args...)
	args[0] = "mutated"
	if f.Arg(0) != "a" {
		t.Fatal("NewFact must copy its arguments")
	}
}

func TestFactLessTotalOrder(t *testing.T) {
	facts := []Fact{
		NewFact("S", "a"),
		NewFact("R", "b"),
		NewFact("R", "a", "z"),
		NewFact("R", "a"),
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i].Less(facts[j]) })
	want := []string{"R(a)", "R(a,z)", "R(b)", "S(a)"}
	for i, f := range facts {
		if f.String() != want[i] {
			t.Fatalf("sorted[%d] = %s, want %s", i, f, want[i])
		}
	}
}

func TestDatabaseDedupAndOrder(t *testing.T) {
	d := NewDatabase(
		NewFact("R", "b"),
		NewFact("R", "a"),
		NewFact("R", "b"), // duplicate
	)
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Fact(0).String() != "R(a)" || d.Fact(1).String() != "R(b)" {
		t.Fatalf("order wrong: %v", d.Facts())
	}
}

func TestDatabaseIndexOfContains(t *testing.T) {
	f, g := NewFact("R", "a"), NewFact("R", "b")
	d := NewDatabase(f, g)
	if d.IndexOf(f) != 0 || d.IndexOf(g) != 1 {
		t.Fatalf("IndexOf: %d %d", d.IndexOf(f), d.IndexOf(g))
	}
	if d.IndexOf(NewFact("R", "c")) != -1 {
		t.Fatal("absent fact should have index -1")
	}
	if !d.Contains(f) || d.Contains(NewFact("S", "a")) {
		t.Fatal("Contains wrong")
	}
}

func TestActiveDomain(t *testing.T) {
	d := NewDatabase(NewFact("R", "a", "b"), NewFact("S", "b", "c"))
	want := []string{"a", "b", "c"}
	if got := d.ActiveDomain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ActiveDomain = %v, want %v", got, want)
	}
}

func TestFactsOf(t *testing.T) {
	d := NewDatabase(NewFact("R", "a"), NewFact("S", "b"), NewFact("R", "c"))
	rs := d.FactsOf("R")
	if len(rs) != 2 || rs[0].String() != "R(a)" || rs[1].String() != "R(c)" {
		t.Fatalf("FactsOf(R) = %v", rs)
	}
	if len(d.FactsOf("T")) != 0 {
		t.Fatal("FactsOf(T) should be empty")
	}
}

func TestDatabaseWithoutAndUnion(t *testing.T) {
	f, g, h := NewFact("R", "a"), NewFact("R", "b"), NewFact("R", "c")
	d := NewDatabase(f, g)
	e := d.Remove(d.IndexOf(f))
	if e.Len() != 1 || !e.Contains(g) || e.Contains(f) {
		t.Fatalf("without %v: %v", f, e)
	}
	if d.Len() != 2 || !d.Contains(f) {
		t.Fatal("Remove must not mutate the receiver")
	}
	u := d.Union(NewDatabase(h))
	if u.Len() != 3 {
		t.Fatalf("Union len = %d", u.Len())
	}
}

func TestDatabaseEqual(t *testing.T) {
	a := NewDatabase(NewFact("R", "a"), NewFact("R", "b"))
	b := NewDatabase(NewFact("R", "b"), NewFact("R", "a"))
	c := NewDatabase(NewFact("R", "a"))
	if !a.Equal(b) {
		t.Error("a should equal b (order-independent)")
	}
	if a.Equal(c) {
		t.Error("a should differ from c")
	}
}

func TestDatabaseRestrict(t *testing.T) {
	d := NewDatabase(NewFact("R", "a"), NewFact("R", "b"), NewFact("R", "c"))
	s := NewSubset(3)
	s.Set(0)
	s.Set(2)
	r := d.Restrict(s)
	if r.Len() != 2 || !r.Contains(NewFact("R", "a")) || !r.Contains(NewFact("R", "c")) {
		t.Fatalf("Restrict = %v", r)
	}
}

func TestFullSubset(t *testing.T) {
	d := NewDatabase(NewFact("R", "a"), NewFact("R", "b"))
	s := d.FullSubset()
	if s.Count() != 2 || !s.Has(0) || !s.Has(1) {
		t.Fatalf("FullSubset = %v", s.Indices())
	}
}

func TestSubsetBasics(t *testing.T) {
	s := NewSubset(130) // force multiple words
	for _, i := range []int{0, 63, 64, 129} {
		s.Set(i)
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 3 {
		t.Fatal("Clear failed")
	}
	want := []int{0, 63, 129}
	if got := s.Indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
}

func TestSubsetCloneIsIndependent(t *testing.T) {
	s := NewSubset(10)
	s.Set(1)
	c := s.Clone()
	c.Set(2)
	if s.Has(2) {
		t.Fatal("Clone must not share storage")
	}
}

func TestSubsetWithoutIndices(t *testing.T) {
	s := NewSubset(5)
	for i := 0; i < 5; i++ {
		s.Set(i)
	}
	r := s.WithoutIndices(1, 3)
	if r.Count() != 3 || r.Has(1) || r.Has(3) {
		t.Fatalf("WithoutIndices = %v", r.Indices())
	}
	if s.Count() != 5 {
		t.Fatal("WithoutIndices must not mutate the receiver")
	}
}

func TestSubsetKeyDistinguishes(t *testing.T) {
	a := NewSubset(70)
	b := NewSubset(70)
	a.Set(0)
	b.Set(65)
	if a.Key() == b.Key() {
		t.Fatal("distinct subsets must have distinct keys")
	}
	c := NewSubset(70)
	c.Set(0)
	if a.Key() != c.Key() {
		t.Fatal("equal subsets must have equal keys")
	}
}

func TestSubsetSubsetOfAndEqual(t *testing.T) {
	a, b := NewSubset(8), NewSubset(8)
	a.Set(1)
	b.Set(1)
	b.Set(2)
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if a.Equal(b) {
		t.Fatal("Equal wrong")
	}
	a.Set(2)
	if !a.Equal(b) {
		t.Fatal("Equal after update wrong")
	}
}

// Property: Restrict(FullSubset) is the identity, and the index map is
// consistent with sorted order, for random databases.
func TestQuickDatabaseInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func() bool {
		n := rng.Intn(20)
		facts := make([]Fact, n)
		for i := range facts {
			facts[i] = NewFact("R", string(rune('a'+rng.Intn(5))), string(rune('a'+rng.Intn(5))))
		}
		d := NewDatabase(facts...)
		if !d.Restrict(d.FullSubset()).Equal(d) {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if d.IndexOf(d.Fact(i)) != i {
				return false
			}
			if i > 0 && !d.Fact(i-1).Less(d.Fact(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: subset Key is injective on random subsets of a fixed universe.
func TestQuickSubsetKeyInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := make(map[string][]int)
	for trial := 0; trial < 300; trial++ {
		s := NewSubset(100)
		for i := 0; i < 100; i++ {
			if rng.Intn(2) == 0 {
				s.Set(i)
			}
		}
		k := s.Key()
		if prev, ok := seen[k]; ok {
			if !reflect.DeepEqual(prev, s.Indices()) {
				t.Fatalf("key collision: %v vs %v", prev, s.Indices())
			}
		}
		seen[k] = s.Indices()
	}
}

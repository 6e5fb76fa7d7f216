package rel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestColumnarRoundTrip re-assembles a database from its exposed
// columns and checks the copy is indistinguishable from the original:
// same facts, same indices, same spans, same lookup behaviour.
func TestColumnarRoundTrip(t *testing.T) {
	d := NewDatabase(
		NewFact("R", "a", "b"),
		NewFact("R", "a", "c"),
		NewFact("S", "x"),
		NewFact("R", "b", "b"),
		NewFact("T", "a", "b", "c"),
	)
	syms, rels, offs, args := d.Columns()

	nd, err := NewDatabaseColumnar(syms, rels, offs, args)
	if err != nil {
		t.Fatalf("NewDatabaseColumnar: %v", err)
	}
	if !d.Equal(nd) {
		t.Fatalf("columnar round trip changed the fact set: %v vs %v", d, nd)
	}
	for i := 0; i < d.Len(); i++ {
		f := d.Fact(i)
		if got := nd.IndexOf(f); got != i {
			t.Fatalf("IndexOf(%v) = %d, want %d", f, got, i)
		}
	}

	np, err := NewDatabaseFromParts(syms, rels, offs, args, d.LookupSlots())
	if err != nil {
		t.Fatalf("NewDatabaseFromParts: %v", err)
	}
	if !d.Equal(np) {
		t.Fatalf("from-parts round trip changed the fact set")
	}
	if got := np.IndexOf(NewFact("R", "a", "c")); got != d.IndexOf(NewFact("R", "a", "c")) {
		t.Fatalf("from-parts lookup disagrees: %d", got)
	}
	if np.Contains(NewFact("R", "zzz", "b")) {
		t.Fatalf("from-parts contains a fact that was never inserted")
	}
}

// TestColumnarRejectsCorruptColumns feeds malformed columns to the
// columnar constructors: each must error, never panic or accept.
func TestColumnarRejectsCorruptColumns(t *testing.T) {
	d := NewDatabase(NewFact("R", "a"), NewFact("R", "b"), NewFact("S", "a"))
	syms, rels, offs, args := d.Columns()

	cp := func(xs []int32) []int32 { return append([]int32(nil), xs...) }

	cases := []struct {
		name             string
		rels, offs, args []int32
		mutate           func(rels, offs, args []int32)
	}{
		{name: "out of order", rels: cp(rels), offs: cp(offs), args: cp(args),
			mutate: func(r, o, a []int32) { r[0], r[2] = r[2], r[0] }},
		{name: "duplicate rows", rels: cp(rels), offs: cp(offs), args: cp(args),
			mutate: func(r, o, a []int32) { r[1] = r[0]; a[1] = a[0] }},
		{name: "offsets decrease", rels: cp(rels), offs: cp(offs), args: cp(args),
			mutate: func(r, o, a []int32) { o[1] = 3; o[2] = 1 }},
		{name: "rel id out of range", rels: cp(rels), offs: cp(offs), args: cp(args),
			mutate: func(r, o, a []int32) { r[0] = 99 }},
		{name: "arg id out of range", rels: cp(rels), offs: cp(offs), args: cp(args),
			mutate: func(r, o, a []int32) { a[0] = -1 }},
		{name: "short offsets", rels: cp(rels), offs: cp(offs)[:2], args: cp(args)},
	}
	for _, tc := range cases {
		if tc.mutate != nil {
			tc.mutate(tc.rels, tc.offs, tc.args)
		}
		if _, err := NewDatabaseColumnar(syms, tc.rels, tc.offs, tc.args); err == nil {
			t.Errorf("%s: NewDatabaseColumnar accepted corrupt columns", tc.name)
		}
	}

	if _, err := NewDatabaseFromParts(syms, rels, offs, args, []int32{1, 2, 3}); err == nil {
		t.Errorf("NewDatabaseFromParts accepted a non-power-of-two slot array")
	}
	bad := cp(d.LookupSlots())
	bad[0] = 99
	if _, err := NewDatabaseFromParts(syms, rels, offs, args, bad); err == nil {
		t.Errorf("NewDatabaseFromParts accepted out-of-range slot values")
	}
}

// TestInternedLookupMatchesLinearScan cross-checks the hash index
// against a brute-force scan on a randomized instance, including facts
// that are almost-members (same relation, one argument off).
func TestInternedLookupMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var facts []Fact
	for i := 0; i < 400; i++ {
		facts = append(facts, NewFact(
			fmt.Sprintf("R%d", rng.Intn(5)),
			fmt.Sprintf("a%d", rng.Intn(20)),
			fmt.Sprintf("b%d", rng.Intn(20)),
		))
	}
	d := NewDatabase(facts...)
	probe := append([]Fact(nil), facts...)
	for i := 0; i < 200; i++ {
		probe = append(probe, NewFact(
			fmt.Sprintf("R%d", rng.Intn(6)),
			fmt.Sprintf("a%d", rng.Intn(25)),
			fmt.Sprintf("b%d", rng.Intn(25)),
		))
	}
	for _, f := range probe {
		want := -1
		for i := 0; i < d.Len(); i++ {
			if d.Fact(i).Equal(f) {
				want = i
				break
			}
		}
		if got := d.IndexOf(f); got != want {
			t.Fatalf("IndexOf(%v) = %d, want %d", f, got, want)
		}
	}
}

// TestSymbolsSharingAcrossMutations checks the copy-on-write contract:
// every insert shares the parent's symbol table — an unseen string is
// interned into it, not into a copy — and the parent's facts and ids
// are unchanged either way.
func TestSymbolsSharingAcrossMutations(t *testing.T) {
	d := NewDatabase(NewFact("R", "a"), NewFact("R", "b"))
	before := d.Symbols().Len()
	ids := func(db *Database) [][]int32 {
		var out [][]int32
		for i := 0; i < db.Len(); i++ {
			out = append(out, append([]int32{db.RelID(i)}, db.ArgIDs(i)...))
		}
		return out
	}
	wantIDs, wantStr := ids(d), d.String()

	nd, _, ok := d.Insert(NewFact("R", "a"))
	if ok || nd != d {
		t.Fatalf("inserting an existing fact must return the receiver unchanged")
	}

	shared, _, ok := d.Insert(NewFact("R", "b")) // present → unchanged
	if ok || shared != d {
		t.Fatalf("inserting a present fact must be a no-op")
	}

	// Known strings, new combination: share the table.
	two := NewDatabase(NewFact("R", "a", "b"), NewFact("R", "b", "a"))
	comb, _, ok := two.Insert(NewFact("R", "a", "a"))
	if !ok {
		t.Fatalf("insert of new fact failed")
	}
	if comb.Symbols() != two.Symbols() {
		t.Fatalf("insert of known strings must share the symbol table")
	}

	// Unseen string: interned into the shared table.
	grown, _, ok := d.Insert(NewFact("R", "zzz"))
	if !ok {
		t.Fatalf("insert of new fact failed")
	}
	if grown.Symbols() != d.Symbols() {
		t.Fatalf("insert of an unseen string must share the symbol table")
	}
	if got := d.Symbols().Len(); got != before+1 {
		t.Fatalf("shared symbol table has %d symbols after one unseen string, want %d", got, before+1)
	}
	if id, ok := d.Symbols().Lookup("zzz"); !ok || grown.ArgIDs(grown.IndexOf(NewFact("R", "zzz")))[0] != id {
		t.Fatalf("unseen string not interned under the id the child uses")
	}
	if got := ids(d); !reflect.DeepEqual(got, wantIDs) || d.String() != wantStr {
		t.Fatalf("parent changed: ids %v %s, want %v %s", got, d, wantIDs, wantStr)
	}
	if d.Contains(NewFact("R", "zzz")) || d.Len() != 2 {
		t.Fatalf("parent gained the child's fact")
	}
	if !grown.Restrict(grown.FullSubset()).Equal(grown) {
		t.Fatalf("child does not equal its own restriction")
	}
}

// TestSymbolsInternNeverWritesIntoSource: a table adopts a decoded
// string column without copying, so interning into it must never write
// into that column's spare capacity — nor into the column of the table
// whose Strings() it was rebuilt from.
func TestSymbolsInternNeverWritesIntoSource(t *testing.T) {
	buf := make([]string, 2, 8)
	buf[0], buf[1] = "a", "b"
	s, err := NewSymbolsFromStrings(buf)
	if err != nil {
		t.Fatal(err)
	}
	if id := s.Intern("c"); id != 2 || s.Str(2) != "c" {
		t.Fatalf("Intern(c) = %d (%q), want 2", id, s.Str(id))
	}
	if spare := buf[:cap(buf)]; spare[2] != "" {
		t.Fatalf("Intern wrote %q into the decoded buffer's spare capacity", spare[2])
	}

	src := NewSymbols()
	for _, str := range []string{"x", "y", "z"} {
		src.Intern(str)
	}
	copyOf, err := NewSymbolsFromStrings(src.Strings())
	if err != nil {
		t.Fatal(err)
	}
	copyOf.Intern("from-copy")
	src.Intern("from-src")
	if copyOf.Str(3) != "from-copy" || src.Str(3) != "from-src" {
		t.Fatalf("tables sharing a column corrupted each other: copy id 3 = %q, source id 3 = %q", copyOf.Str(3), src.Str(3))
	}
	if _, err := NewSymbolsFromStrings([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate strings accepted")
	}
}

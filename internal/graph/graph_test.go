package graph

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 3)
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if d := g.Degree(1); d != 2 {
		t.Fatalf("Degree(1) = %d", d)
	}
	if d := g.Degree(3); d != 1 {
		t.Fatalf("self-loop Degree(3) = %d", d)
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if !g.HasSelfLoop() {
		t.Fatal("self-loop not detected")
	}
	edges := g.Edges()
	if len(edges) != 3 || g.NumEdges() != 3 {
		t.Fatalf("Edges = %v", edges)
	}
}

func TestComponentsAndConnectivity(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !path(4).Connected() || !path(4).NonTriviallyConnected() {
		t.Fatal("path should be (non-trivially) connected")
	}
	if New(1).NonTriviallyConnected() {
		t.Fatal("single node is trivially connected")
	}
	if !New(1).Connected() || !New(0).Connected() {
		t.Fatal("tiny graphs are connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycle(5)
	sub := g.InducedSubgraph([]int{0, 1, 3})
	if sub.N() != 3 || !sub.HasEdge(0, 1) || sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatalf("induced subgraph wrong: edges %v", sub.Edges())
	}
}

// fib returns the n-th Fibonacci number with fib(1)=1, fib(2)=1.
func fib(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func TestCountIndependentSetsKnownValues(t *testing.T) {
	// Path P_n has fib(n+2) independent sets; cycle C_n has Lucas(n);
	// complete K_n has n+1; empty graph on n nodes has 2^n.
	if got := path(5).CountIndependentSets(); got.Int64() != fib(7) {
		t.Errorf("P5: got %v, want %d", got, fib(7))
	}
	if got := complete(6).CountIndependentSets(); got.Int64() != 7 {
		t.Errorf("K6: got %v, want 7", got)
	}
	if got := New(10).CountIndependentSets(); got.Int64() != 1024 {
		t.Errorf("empty(10): got %v, want 1024", got)
	}
	// Lucas numbers: C3=4, C4=7, C5=11, C6=18.
	lucas := map[int]int64{3: 4, 4: 7, 5: 11, 6: 18}
	for n, want := range lucas {
		if got := cycle(n).CountIndependentSets(); got.Int64() != want {
			t.Errorf("C%d: got %v, want %d", n, got, want)
		}
	}
}

func TestCountIndependentSetsSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	// Node 0 can never be chosen: IS = {∅, {1}}.
	if got := g.CountIndependentSets(); got.Int64() != 2 {
		t.Fatalf("got %v, want 2", got)
	}
}

func TestCountNonEmptyIndependentSets(t *testing.T) {
	if got := complete(3).CountNonEmptyIndependentSets(); got.Int64() != 3 {
		t.Fatalf("got %v, want 3", got)
	}
}

func TestIndependentSetsEnumeration(t *testing.T) {
	g := path(3) // IS: {}, {0}, {1}, {2}, {0,2} = 5
	var sets [][]int
	g.IndependentSets(func(s []int) bool {
		sets = append(sets, s)
		return true
	})
	if len(sets) != 5 {
		t.Fatalf("enumerated %d sets, want 5: %v", len(sets), sets)
	}
	for _, s := range sets {
		if !g.IsIndependentSet(s) {
			t.Fatalf("%v is not independent", s)
		}
	}
}

func TestIndependentSetsEarlyStop(t *testing.T) {
	g := New(10)
	count := 0
	g.IndependentSets(func([]int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed: %d", count)
	}
}

func TestIsIndependentSet(t *testing.T) {
	g := path(3)
	if !g.IsIndependentSet([]int{0, 2}) {
		t.Error("{0,2} independent in P3")
	}
	if g.IsIndependentSet([]int{0, 1}) {
		t.Error("{0,1} not independent in P3")
	}
	loop := New(1)
	loop.AddEdge(0, 0)
	if loop.IsIndependentSet([]int{0}) {
		t.Error("self-loop node is not independent")
	}
}

// Property: CountIndependentSets equals the enumeration count on random
// graphs.
func TestQuickISCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prop := func() bool {
		g := RandomGraph(rng, 1+rng.Intn(10), 0.3)
		count := 0
		g.IndependentSets(func([]int) bool { count++; return true })
		return g.CountIndependentSets().Int64() == int64(count)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeColoringPath(t *testing.T) {
	g := path(6)
	ec := ColorEdgesMisraGries(g)
	if !ec.Valid(g) {
		t.Fatal("colouring of path invalid")
	}
	if ec.NumColors != 3 { // Δ+1 = 3
		t.Fatalf("NumColors = %d", ec.NumColors)
	}
}

func TestEdgeColoringComplete(t *testing.T) {
	for n := 2; n <= 8; n++ {
		g := complete(n)
		ec := ColorEdgesMisraGries(g)
		if !ec.Valid(g) {
			t.Fatalf("K%d colouring invalid", n)
		}
	}
}

func TestEdgeColoringPanicsOnLoop(t *testing.T) {
	g := New(1)
	g.AddEdge(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for self-loop")
		}
	}()
	ColorEdgesMisraGries(g)
}

// Property: Misra–Gries produces a proper colouring with at most Δ+1
// colours on random graphs.
func TestQuickEdgeColoringProper(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	prop := func() bool {
		g := RandomGraph(rng, 2+rng.Intn(20), 0.4)
		ec := ColorEdgesMisraGries(g)
		if !ec.Valid(g) {
			return false
		}
		for _, e := range g.Edges() {
			if c := ec.ColorOf(e[0], e[1]); c > g.MaxDegree()+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestHardnessHShape(t *testing.T) {
	h := HardnessH()
	if h.N() != 3 {
		t.Fatal("H has 3 nodes")
	}
	if !h.HasEdge(0, 0) || !h.HasEdge(2, 2) || h.HasEdge(1, 1) {
		t.Fatal("H self-loops wrong: loop on 0 and ?, none on 1")
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(0, 2) || !h.HasEdge(1, 2) {
		t.Fatal("H must be complete between distinct nodes")
	}
}

func TestCountHomomorphismsKnown(t *testing.T) {
	h := HardnessH()
	// Single node, no edges: 3 homomorphisms.
	if got := CountHomomorphisms(New(1), h); got.Int64() != 3 {
		t.Errorf("single node: %v, want 3", got)
	}
	// Single edge {0,1}: all pairs except (1,1): 9-1 = 8.
	e := New(2)
	e.AddEdge(0, 1)
	if got := CountHomomorphisms(e, h); got.Int64() != 8 {
		t.Errorf("single edge: %v, want 8", got)
	}
	// Two isolated nodes: 3^2 = 9.
	if got := CountHomomorphisms(New(2), h); got.Int64() != 9 {
		t.Errorf("two nodes: %v, want 9", got)
	}
	// Empty graph: exactly one (empty) homomorphism.
	if got := CountHomomorphisms(New(0), h); got.Int64() != 1 {
		t.Errorf("empty graph: %v, want 1", got)
	}
}

// naiveHomCount enumerates all |H|^|G| assignments.
func naiveHomCount(g, h *Graph) *big.Int {
	n := g.N()
	if n == 0 {
		return big.NewInt(1)
	}
	assign := make([]int, n)
	count := big.NewInt(0)
	one := big.NewInt(1)
	var recur func(int)
	recur = func(i int) {
		if i == n {
			for _, e := range g.Edges() {
				if !h.HasEdge(assign[e[0]], assign[e[1]]) {
					return
				}
			}
			count.Add(count, one)
			return
		}
		for v := 0; v < h.N(); v++ {
			assign[i] = v
			recur(i + 1)
		}
	}
	recur(0)
	return count
}

// Property: backtracking hom count equals naive enumeration on random
// graphs into HardnessH.
func TestQuickHomCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := HardnessH()
	prop := func() bool {
		g := RandomGraph(rng, 1+rng.Intn(7), 0.4)
		return CountHomomorphisms(g, h).Cmp(naiveHomCount(g, h)) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualUnderMapping(t *testing.T) {
	a := path(3)
	b := New(3)
	b.AddEdge(2, 1)
	b.AddEdge(1, 0)
	if !EqualUnderMapping(a, b, []int{0, 1, 2}) {
		t.Error("identity should be an isomorphism P3 -> P3")
	}
	if !EqualUnderMapping(a, b, []int{2, 1, 0}) {
		t.Error("reversal should be an isomorphism")
	}
	c := cycle(3)
	if EqualUnderMapping(a, c, []int{0, 1, 2}) {
		t.Error("P3 is not isomorphic to C3 under identity")
	}
	if EqualUnderMapping(a, b, []int{0, 0, 2}) {
		t.Error("non-bijection accepted")
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := RandomConnectedGraph(rng, 12, 0.1)
	if !g.Connected() {
		t.Error("RandomConnectedGraph not connected")
	}
	b := RandomBoundedDegreeGraph(rng, 15, 4, 100)
	if b.MaxDegree() > 4 {
		t.Errorf("degree bound violated: %d", b.MaxDegree())
	}
	cb := RandomConnectedBoundedDegreeGraph(rng, 15, 5, 60)
	if !cb.Connected() {
		t.Error("RandomConnectedBoundedDegreeGraph not connected")
	}
	if cb.MaxDegree() > 5 {
		t.Errorf("degree bound violated: %d", cb.MaxDegree())
	}
}

func TestRandomGraphRespectsP(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := RandomGraph(rng, 10, 0)
	if g.NumEdges() != 0 {
		t.Error("p=0 should give no edges")
	}
	g = RandomGraph(rng, 10, 1)
	if g.NumEdges() != 45 {
		t.Errorf("p=1 should give all 45 edges, got %d", g.NumEdges())
	}
}

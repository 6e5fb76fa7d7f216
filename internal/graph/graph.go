// Package graph implements the undirected-graph substrate the paper's
// proofs and reductions rely on: connectivity, independent-set counting
// and enumeration (Lemma 5.4 identifies candidate repairs with
// independent sets of the conflict graph), Misra–Gries (Δ+1)-edge
// colouring (the constructive Vizing theorem used by Proposition 5.5),
// and graph-homomorphism counting (the ♯H-Coloring problem of §B.1).
package graph

import (
	"math/big"
	"math/rand"
	"sort"
)

// Graph is a simple undirected graph over nodes 0..n-1. Self-loops are
// permitted (H-colouring targets use them) but parallel edges are not.
type Graph struct {
	n   int
	adj []map[int]bool
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	g := &Graph{n: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// N reports the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v} (a self-loop if u == v).
func (g *Graph) AddEdge(u, v int) {
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u][v] }

// Neighbors returns the sorted neighbours of u (including u itself when
// u has a self-loop).
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Degree reports the number of edges incident to u, counting a self-loop
// once.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree reports Δ(G).
func (g *Graph) MaxDegree() int {
	d := 0
	for u := 0; u < g.n; u++ {
		if deg := g.Degree(u); deg > d {
			d = deg
		}
	}
	return d
}

// Edges returns the edge set with u ≤ v, sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u <= v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return len(g.Edges()) }

// HasSelfLoop reports whether any node carries a self-loop.
func (g *Graph) HasSelfLoop() bool {
	for u := 0; u < g.n; u++ {
		if g.adj[u][u] {
			return true
		}
	}
	return false
}

// Components returns the connected components as sorted node lists,
// ordered by smallest node.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var out [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		out = append(out, comp)
	}
	return out
}

// Connected reports whether the graph is connected (the empty graph and
// single-node graph are connected).
func (g *Graph) Connected() bool { return g.n <= 1 || len(g.Components()) == 1 }

// NonTriviallyConnected reports the paper's notion: at least two nodes
// and connected.
func (g *Graph) NonTriviallyConnected() bool { return g.n >= 2 && g.Connected() }

// InducedSubgraph returns the subgraph induced by the given nodes,
// renumbered 0..len(nodes)-1 in the given order.
func (g *Graph) InducedSubgraph(nodes []int) *Graph {
	idx := make(map[int]int, len(nodes))
	for i, u := range nodes {
		idx[u] = i
	}
	h := New(len(nodes))
	for i, u := range nodes {
		for v := range g.adj[u] {
			if j, ok := idx[v]; ok && i <= j {
				h.AddEdge(i, j)
			}
		}
	}
	return h
}

// CountIndependentSets computes |IS(G)|, the number of independent sets
// of G (including the empty set), exactly. Nodes with self-loops can
// never be in an independent set. The computation is component-wise; per
// component it uses branching on a maximum-degree vertex with memoised
// sub-problems, which is exact and fast for the laptop-scale graphs the
// reductions produce.
func (g *Graph) CountIndependentSets() *big.Int {
	total := big.NewInt(1)
	for _, comp := range g.Components() {
		sub := g.InducedSubgraph(comp)
		total.Mul(total, countISConnected(sub))
	}
	return total
}

// CountNonEmptyIndependentSets computes |IS≠∅(G)| = |IS(G)| − 1.
func (g *Graph) CountNonEmptyIndependentSets() *big.Int {
	c := g.CountIndependentSets()
	return c.Sub(c, big.NewInt(1))
}

// countISConnected counts independent sets of an arbitrary graph by
// recursive branching: pick a vertex v of maximum degree; IS(G) =
// IS(G−v) + IS(G−N[v]) unless v has a self-loop, in which case
// IS(G) = IS(G−v).
func countISConnected(g *Graph) *big.Int {
	alive := make([]bool, g.n)
	for i := range alive {
		alive[i] = true
	}
	memo := make(map[string]*big.Int)
	return countISRec(g, alive, memo)
}

func aliveKey(alive []bool) string {
	b := make([]byte, (len(alive)+7)/8)
	for i, a := range alive {
		if a {
			b[i/8] |= 1 << uint(i%8)
		}
	}
	return string(b)
}

func countISRec(g *Graph, alive []bool, memo map[string]*big.Int) *big.Int {
	key := aliveKey(alive)
	if v, ok := memo[key]; ok {
		return new(big.Int).Set(v)
	}
	// Find an alive vertex of maximum alive-degree.
	best, bestDeg := -1, -1
	for u := 0; u < g.n; u++ {
		if !alive[u] {
			continue
		}
		d := 0
		for v := range g.adj[u] {
			if v != u && alive[v] {
				d++
			}
		}
		if d > bestDeg {
			best, bestDeg = u, d
		}
	}
	var res *big.Int
	switch {
	case best == -1:
		res = big.NewInt(1) // empty graph: only the empty set
	case bestDeg == 0:
		// All alive vertices are isolated; each contributes factor 2
		// unless it has a self-loop (factor 1).
		res = big.NewInt(1)
		for u := 0; u < g.n; u++ {
			if alive[u] && !g.adj[u][u] {
				res.Lsh(res, 1)
			}
		}
	default:
		// Branch on best.
		alive[best] = false
		without := countISRec(g, alive, memo)
		if g.adj[best][best] {
			res = without
		} else {
			var removed []int
			for v := range g.adj[best] {
				if alive[v] {
					alive[v] = false
					removed = append(removed, v)
				}
			}
			with := countISRec(g, alive, memo)
			for _, v := range removed {
				alive[v] = true
			}
			res = new(big.Int).Add(without, with)
		}
		alive[best] = true
	}
	memo[key] = new(big.Int).Set(res)
	return res
}

// IndependentSets enumerates every independent set of G (as a sorted
// node list), invoking yield for each; enumeration stops early if yield
// returns false. Intended for small graphs.
func (g *Graph) IndependentSets(yield func([]int) bool) {
	var cur []int
	var recur func(int) bool
	recur = func(next int) bool {
		if next == g.n {
			cp := append([]int(nil), cur...)
			return yield(cp)
		}
		// Exclude next.
		if !recur(next + 1) {
			return false
		}
		// Include next if compatible.
		if g.adj[next][next] {
			return true
		}
		for _, u := range cur {
			if g.adj[u][next] {
				return true
			}
		}
		cur = append(cur, next)
		ok := recur(next + 1)
		cur = cur[:len(cur)-1]
		return ok
	}
	recur(0)
}

// IsIndependentSet reports whether the node set is independent in G.
func (g *Graph) IsIndependentSet(nodes []int) bool {
	for i, u := range nodes {
		if g.adj[u][u] {
			return false
		}
		for _, v := range nodes[i+1:] {
			if g.adj[u][v] {
				return false
			}
		}
	}
	return true
}

// EqualUnderMapping reports whether perm (a bijection node-of-a →
// node-of-b) is a graph isomorphism from a to b.
func EqualUnderMapping(a, b *Graph, perm []int) bool {
	if a.n != b.n || len(perm) != a.n {
		return false
	}
	seen := make([]bool, a.n)
	for _, p := range perm {
		if p < 0 || p >= a.n || seen[p] {
			return false
		}
		seen[p] = true
	}
	for u := 0; u < a.n; u++ {
		for v := u; v < a.n; v++ {
			if a.HasEdge(u, v) != b.HasEdge(perm[u], perm[v]) {
				return false
			}
		}
	}
	return true
}

// RandomGraph samples G(n, p): each of the C(n,2) potential edges is
// present independently with probability p. No self-loops.
func RandomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// RandomConnectedGraph samples a connected graph on n ≥ 1 nodes: a
// uniform random spanning tree (random Prüfer-like attachment) plus
// G(n,p) extra edges.
func RandomConnectedGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// RandomBoundedDegreeGraph samples a graph with maximum degree ≤ maxDeg
// by attempting m random edges and keeping those that respect the bound.
func RandomBoundedDegreeGraph(rng *rand.Rand, n, maxDeg, attempts int) *Graph {
	g := New(n)
	for i := 0; i < attempts; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if g.Degree(u) < maxDeg && g.Degree(v) < maxDeg {
			g.AddEdge(u, v)
		}
	}
	return g
}

// RandomConnectedBoundedDegreeGraph samples a connected graph with max
// degree ≤ maxDeg (maxDeg ≥ 2): a path plus degree-respecting random
// edges.
func RandomConnectedBoundedDegreeGraph(rng *rand.Rand, n, maxDeg, attempts int) *Graph {
	if maxDeg < 2 && n > 2 {
		panic("graph: need maxDeg >= 2 for a connected graph on more than 2 nodes")
	}
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i-1], perm[i])
	}
	for i := 0; i < attempts; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if g.Degree(u) < maxDeg && g.Degree(v) < maxDeg {
			g.AddEdge(u, v)
		}
	}
	return g
}

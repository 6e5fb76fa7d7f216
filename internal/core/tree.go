package core

import (
	"fmt"
	"math/big"
	"strings"

	"repro/internal/rel"
)

// This file materialises the repairing Markov chain of Definition 3.5
// as an explicit edge-labelled rooted tree whose nodes are the
// repairing sequences RS(D,Σ). It is exponential by nature and exists
// for three purposes: (1) the M^ur generator of Definition A.1 assigns
// probabilities through canonical-leaf counts, which are tree-level
// quantities; (2) reproducing Figure 1 and the worked example of
// Section 4; (3) cross-validating the DAG engines.

// TreeNode is a node of the repairing Markov chain: the repairing
// sequence leading to it, its current database, and its children (one
// per justified operation), in the deterministic operation order.
type TreeNode struct {
	// Op is the operation labelling the edge from the parent (zero
	// value at the root).
	Op Op
	// State is s(D) for the sequence s ending at this node.
	State rel.Subset
	// Depth is |s|.
	Depth int
	// Children are the extensions Ops_s(D,Σ), ordered by Op.less; nil
	// for leaves (complete sequences).
	Children []*TreeNode

	// crs is |CRS_s(D,Σ)|: the number of leaves in the subtree.
	crs *big.Int
	// can is |CanCRS_s(D,Σ)|: the number of canonical leaves below.
	can *big.Int
	// canonical marks canonical leaves (DFS-first per distinct result).
	canonical bool
}

// IsLeaf reports whether the node is a complete repairing sequence.
func (n *TreeNode) IsLeaf() bool { return len(n.Children) == 0 }

// CanonicalLeaves returns |CanCRS_s|.
func (n *TreeNode) CanonicalLeaves() *big.Int { return new(big.Int).Set(n.can) }

// Canonical reports whether a leaf is the canonical complete sequence
// for its result (meaningless for inner nodes).
func (n *TreeNode) Canonical() bool { return n.canonical }

// Tree is a fully materialised (D,Σ)-repairing Markov chain.
type Tree struct {
	inst      *Instance
	singleton bool
	Root      *TreeNode
	// Leaves lists the complete sequences in DFS order — the order the
	// canonical ordering ≺ of Section 4 refers to.
	Leaves []*TreeNode
	// NodeCount is |RS(D,Σ)|.
	NodeCount int
}

// BuildTree materialises the repairing Markov chain of (D,Σ). The
// number of nodes is capped by maxNodes (0 = unlimited); building stops
// with a StateLimitError beyond it. With singleton set, only singleton
// operations are used (the M^{·,1} chains).
func (inst *Instance) BuildTree(singleton bool, maxNodes int) (*Tree, error) {
	t := &Tree{inst: inst, singleton: singleton}
	root := &TreeNode{State: inst.Full()}
	t.Root = root
	t.NodeCount = 1
	var build func(n *TreeNode) error
	build = func(n *TreeNode) error {
		ops := inst.JustifiedOps(n.State, singleton)
		if len(ops) == 0 {
			t.Leaves = append(t.Leaves, n)
			return nil
		}
		for _, op := range ops {
			child := &TreeNode{Op: op, State: op.Apply(n.State), Depth: n.Depth + 1}
			t.NodeCount++
			if maxNodes > 0 && t.NodeCount > maxNodes {
				return StateLimitError{Limit: maxNodes}
			}
			n.Children = append(n.Children, child)
			if err := build(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(root); err != nil {
		return nil, err
	}
	t.annotate()
	return t, nil
}

// annotate computes subtree leaf counts, marks canonical leaves (the
// DFS-first complete sequence per distinct result database, matching
// the ordering ≺ used in the Section 4 example), and computes canonical
// leaf counts.
func (t *Tree) annotate() {
	seen := make(map[string]bool)
	for _, leaf := range t.Leaves { // Leaves are in DFS order
		k := leaf.State.Key()
		if !seen[k] {
			seen[k] = true
			leaf.canonical = true
		}
	}
	var up func(n *TreeNode)
	up = func(n *TreeNode) {
		if n.IsLeaf() {
			n.crs = big.NewInt(1)
			if n.canonical {
				n.can = big.NewInt(1)
			} else {
				n.can = big.NewInt(0)
			}
			return
		}
		n.crs = big.NewInt(0)
		n.can = big.NewInt(0)
		for _, c := range n.Children {
			up(c)
			n.crs.Add(n.crs, c.crs)
			n.can.Add(n.can, c.can)
		}
	}
	up(t.Root)
}

// TransitionProb returns P(s, s') for the child edge from parent to its
// i-th child under the given generator, per Definitions A.1, A.3, A.5.
func (t *Tree) TransitionProb(gen Generator, parent *TreeNode, i int) *big.Rat {
	child := parent.Children[i]
	switch gen {
	case UniformOperations:
		return big.NewRat(1, int64(len(parent.Children)))
	case UniformSequences:
		return new(big.Rat).SetFrac(child.crs, parent.crs)
	case UniformRepairs:
		if parent.can.Sign() == 0 {
			// Dead subtree: arbitrary distribution, the paper suggests
			// uniform over the available operations.
			return big.NewRat(1, int64(len(parent.Children)))
		}
		return new(big.Rat).SetFrac(child.can, parent.can)
	default:
		panic("core: unknown generator")
	}
}

// LeafDistribution computes π, the leaf distribution of the chain under
// the given generator: the product of transition probabilities along
// the root-to-leaf path, in DFS leaf order.
func (t *Tree) LeafDistribution(gen Generator) []*big.Rat {
	out := make([]*big.Rat, 0, len(t.Leaves))
	var walk func(n *TreeNode, acc *big.Rat)
	walk = func(n *TreeNode, acc *big.Rat) {
		if n.IsLeaf() {
			out = append(out, acc)
			return
		}
		for i, c := range n.Children {
			p := t.TransitionProb(gen, n, i)
			walk(c, new(big.Rat).Mul(acc, p))
		}
	}
	walk(t.Root, big.NewRat(1, 1))
	return out
}

// ReachableLeaves returns the indices (into Leaves) of RL(M_Σ(D)): the
// leaves with non-zero probability under the generator.
func (t *Tree) ReachableLeaves(gen Generator) []int {
	dist := t.LeafDistribution(gen)
	var out []int
	for i, p := range dist {
		if p.Sign() > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Semantics computes [[D]]_M on the explicit tree: the distribution
// over repairs obtained by summing leaf probabilities per distinct
// result (Definition 3.8).
func (t *Tree) Semantics(gen Generator) []RepairProb {
	dist := t.LeafDistribution(gen)
	acc := map[string]*RepairProb{}
	for i, leaf := range t.Leaves {
		if dist[i].Sign() == 0 {
			continue
		}
		k := leaf.State.Key()
		if rp, ok := acc[k]; ok {
			rp.Prob.Add(rp.Prob, dist[i])
		} else {
			acc[k] = &RepairProb{Repair: leaf.State, Prob: new(big.Rat).Set(dist[i])}
		}
	}
	out := make([]RepairProb, 0, len(acc))
	for _, rp := range acc {
		out = append(out, *rp)
	}
	sortRepairProbs(out)
	return out
}

// Probability computes P_{M,Q}(D, c̄) on the explicit tree: the total
// probability of leaves whose result satisfies pred.
func (t *Tree) Probability(gen Generator, pred func(rel.Subset) bool) *big.Rat {
	dist := t.LeafDistribution(gen)
	sum := new(big.Rat)
	for i, leaf := range t.Leaves {
		if pred(leaf.State) {
			sum.Add(sum, dist[i])
		}
	}
	return sum
}

// CanonicalLeafCount returns |CanCRS(D,Σ)| = |CORep(D,Σ)| (each
// distinct result has exactly one canonical sequence).
func (t *Tree) CanonicalLeafCount() *big.Int { return t.Root.CanonicalLeaves() }

// SequenceOf reconstructs the operation sequence of a node by walking
// from the root (O(depth · branching); for rendering only).
func (t *Tree) SequenceOf(target *TreeNode) Sequence {
	var path Sequence
	var find func(n *TreeNode, acc Sequence) bool
	find = func(n *TreeNode, acc Sequence) bool {
		if n == target {
			path = append(Sequence(nil), acc...)
			return true
		}
		for _, c := range n.Children {
			if find(c, append(acc, c.Op)) {
				return true
			}
		}
		return false
	}
	find(t.Root, nil)
	return path
}

// Render pretty-prints the chain with transition probabilities under
// the given generator — the textual analogue of Figure 1.
func (t *Tree) Render(gen Generator) string {
	var b strings.Builder
	var walk func(n *TreeNode, prefix string, edge string)
	walk = func(n *TreeNode, prefix string, edge string) {
		label := "ε"
		if n != t.Root {
			label = n.Op.String(t.inst.D)
		}
		marker := ""
		if n.IsLeaf() {
			marker = "  [leaf"
			if n.canonical {
				marker += ", canonical"
			}
			marker += "]"
		}
		fmt.Fprintf(&b, "%s%s%s%s\n", prefix, edge, label, marker)
		for i, c := range n.Children {
			p := t.TransitionProb(gen, n, i)
			childEdge := fmt.Sprintf("├─ p=%s ─ ", p.RatString())
			childPrefix := prefix + "│  "
			if i == len(n.Children)-1 {
				childEdge = fmt.Sprintf("└─ p=%s ─ ", p.RatString())
				childPrefix = prefix + "   "
			}
			walk(c, childPrefix, childEdge)
		}
	}
	walk(t.Root, "", "")
	return b.String()
}

// DOT renders the chain in Graphviz format with edge probabilities
// under the given generator; leaves are boxes (canonical leaves filled).
func (t *Tree) DOT(gen Generator) string {
	var b strings.Builder
	b.WriteString("digraph chain {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n")
	id := 0
	var walk func(n *TreeNode) int
	walk = func(n *TreeNode) int {
		me := id
		id++
		label := "ε"
		if n != t.Root {
			label = n.Op.String(t.inst.D)
		}
		attrs := "shape=ellipse"
		if n.IsLeaf() {
			attrs = "shape=box"
			if n.canonical {
				attrs += ", style=filled, fillcolor=lightgrey"
			}
		}
		fmt.Fprintf(&b, "  n%d [label=%q, %s];\n", me, label, attrs)
		for i, c := range n.Children {
			child := walk(c)
			p := t.TransitionProb(gen, n, i)
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", me, child, p.RatString())
		}
		return me
	}
	walk(t.Root)
	b.WriteString("}\n")
	return b.String()
}

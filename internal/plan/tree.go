package plan

import (
	"fmt"
	"slices"
	"strings"

	"acep/internal/stats"
)

// TreeNode is a node of a tree-based (ZStream) plan. A leaf has Pos >= 0
// and nil children; an internal node has Pos == -1 and two children.
type TreeNode struct {
	Pos         int
	Left, Right *TreeNode
}

// Leaf constructs a leaf node for a core position.
func Leaf(pos int) *TreeNode { return &TreeNode{Pos: pos} }

// Join constructs an internal node over two subtrees.
func Join(l, r *TreeNode) *TreeNode { return &TreeNode{Pos: -1, Left: l, Right: r} }

// IsLeaf reports whether the node is a leaf.
func (n *TreeNode) IsLeaf() bool { return n.Pos >= 0 }

// TreePlan is a tree-based evaluation plan over the pattern's core
// positions, as produced by the ZStream dynamic-programming algorithm.
type TreePlan struct {
	Root *TreeNode
	// nodes holds the nodes of a plan made by Clone or CopyTo: Root and
	// the links point into it.
	nodes []TreeNode
}

// NewTreePlan wraps a root node.
func NewTreePlan(root *TreeNode) *TreePlan { return &TreePlan{Root: root} }

// Cardinality computes the expected partial-match cardinality of the
// subtree under the snapshot: leaf cardinality is the arrival rate scaled
// by the unary selectivity; an internal node multiplies its children's
// cardinalities by the combined selectivity of all predicates crossing
// the two leaf sets.
func Cardinality(n *TreeNode, s *stats.Snapshot) float64 {
	if n.IsLeaf() {
		return s.Rates[n.Pos] * s.Sel[n.Pos][n.Pos]
	}
	card := Cardinality(n.Left, s) * Cardinality(n.Right, s)
	return crossSel(card, n.Left, n.Right, s)
}

// crossSel multiplies card by Sel[i][j] for every leaf i of a and every
// leaf j of b, both left to right, i outermost — the order a product over
// the two leaf lists takes — without gathering the lists.
func crossSel(card float64, a, b *TreeNode, s *stats.Snapshot) float64 {
	if !a.IsLeaf() {
		return crossSel(crossSel(card, a.Left, b, s), a.Right, b, s)
	}
	if !b.IsLeaf() {
		return crossSel(crossSel(card, a, b.Left, s), a, b.Right, s)
	}
	return card * s.Sel[a.Pos][b.Pos]
}

// SubtreeCost computes the ZStream cost of the subtree:
// Cost(leaf) = cardinality; Cost(T) = Cost(L) + Cost(R) + Card(T).
func SubtreeCost(n *TreeNode, s *stats.Snapshot) float64 {
	if n.IsLeaf() {
		return Cardinality(n, s)
	}
	return SubtreeCost(n.Left, s) + SubtreeCost(n.Right, s) + Cardinality(n, s)
}

// Cost implements Plan.
func (p *TreePlan) Cost(s *stats.Snapshot) float64 { return SubtreeCost(p.Root, s) }

// Clone implements Plan.
func (p *TreePlan) Clone() Plan { return p.CopyTo(nil) }

// CopyTo implements Plan.
func (p *TreePlan) CopyTo(dst Plan) Plan {
	d, ok := dst.(*TreePlan)
	if !ok || d == nil {
		d = &TreePlan{}
	}
	// Grown once, before any link into it is taken.
	d.nodes = slices.Grow(d.nodes[:0], size(p.Root))
	d.Root = d.copyNode(p.Root)
	return d
}

// copyNode appends a copy of the subtree under n to p.nodes.
func (p *TreePlan) copyNode(n *TreeNode) *TreeNode {
	p.nodes = append(p.nodes, TreeNode{Pos: n.Pos})
	c := &p.nodes[len(p.nodes)-1]
	if !n.IsLeaf() {
		c.Left = p.copyNode(n.Left)
		c.Right = p.copyNode(n.Right)
	}
	return c
}

// size counts the nodes of the subtree under n.
func size(n *TreeNode) int {
	if n.IsLeaf() {
		return 1
	}
	return 1 + size(n.Left) + size(n.Right)
}

// Equal reports structural equality (same shape, same leaf positions).
func (p *TreePlan) Equal(other Plan) bool {
	o, ok := other.(*TreePlan)
	if !ok {
		return false
	}
	return nodesEqual(p.Root, o.Root)
}

func nodesEqual(a, b *TreeNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.IsLeaf() != b.IsLeaf() {
		return false
	}
	if a.IsLeaf() {
		return a.Pos == b.Pos
	}
	return nodesEqual(a.Left, b.Left) && nodesEqual(a.Right, b.Right)
}

// String renders the tree with parentheses, e.g. "((0 1) 2)".
func (p *TreePlan) String() string {
	var b strings.Builder
	b.WriteString("tree")
	formatNode(&b, p.Root)
	return b.String()
}

func formatNode(b *strings.Builder, n *TreeNode) {
	if n == nil {
		b.WriteString("<nil>")
		return
	}
	if n.IsLeaf() {
		fmt.Fprintf(b, "%d", n.Pos)
		return
	}
	b.WriteByte('(')
	formatNode(b, n.Left)
	b.WriteByte(' ')
	formatNode(b, n.Right)
	b.WriteByte(')')
}

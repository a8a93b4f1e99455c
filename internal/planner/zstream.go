package planner

import (
	"acep/internal/core"
	"acep/internal/pattern"
	"acep/internal/plan"
	"acep/internal/stats"
)

// ZStream is the dynamic-programming tree-plan generation algorithm of
// Mei & Madden (SIGMOD '09), as given in paper Algorithm 3: for every
// contiguous range of core positions (in pattern order) it memoizes the
// cheapest tree, where
//
//	Cost(leaf) = Card(leaf) = r_i · sel_{i,i}
//	Cost(T)    = Cost(L) + Cost(R) + Card(T)
//	Card(T)    = Card(L) · Card(R) · SEL(L,R)
//
// and SEL(L,R) is the product of the selectivities of all predicates
// crossing the two leaf sets.
//
// Instrumentation (paper §4.2): every internal node of a candidate tree
// is a potential building block; a comparison between two candidate
// trees over the same range is a BBC for the cheaper tree's root. In the
// recorded cost expressions the cost and cardinality of *internal*
// subtrees are frozen to their creation-time values — safe because
// invariants are verified leaves-to-root, so a statistics change affecting
// a subtree is caught by an earlier invariant — while leaf cardinalities
// (arrival rates and unary selectivities) and the top-level cross
// selectivities stay live.
type ZStream struct {
	// Scratch is what Generate builds into (nil: a fresh one per call).
	Scratch *Scratch
}

// Name implements Algorithm.
func (ZStream) Name() string { return "zstream" }

// zcell is one memoized DP entry: the cheapest tree over a contiguous
// range of core positions, whose leaves are that range of the core.
type zcell struct {
	tree  *plan.TreeNode
	cost  float64
	card  float64
	split int              // the left subtree covers the range's first split positions
	conds []core.Condition // the DCS of the tree's root
}

// zcand is one candidate split of a range: its cost, cardinality and
// partially frozen cost expression.
type zcand struct {
	cost, card float64
	expr       core.Expr
}

// candidateExpr appends the partially frozen cost expression of the tree
// joining cells l and r, over leaves lv and rv, and returns it with the
// cross selectivities it multiplies the cardinality term by.
func (sc *Scratch) candidateExpr(pat *pattern.Pattern, l, r *zcell, lv, rv []int) (e core.Expr, cross [][2]int) {
	t := len(sc.terms)
	// Children's costs: live for leaves, frozen for internal subtrees.
	for _, c := range [2]*zcell{l, r} {
		if c.tree.IsLeaf() {
			p := c.tree.Pos
			ri, q := len(sc.rates), len(sc.sels)
			sc.rates = append(sc.rates, p)
			sc.sels = append(sc.sels, [2]int{p, p})
			sc.terms = append(sc.terms, core.Term{Coef: 1, Rates: from(sc.rates, ri), Sels: from(sc.sels, q)})
		} else {
			e.Add += c.cost
		}
	}
	// Cardinality term: frozen child cardinalities for internal children,
	// live rate/unary-selectivity factors for leaf children, plus the live
	// cross selectivities, skipping pairs with no predicates (their
	// selectivity is identically 1).
	card := core.Term{Coef: 1}
	ri, q := len(sc.rates), len(sc.sels)
	for _, c := range [2]*zcell{l, r} {
		if c.tree.IsLeaf() {
			p := c.tree.Pos
			sc.rates = append(sc.rates, p)
			sc.sels = append(sc.sels, [2]int{p, p})
		} else {
			card.Coef *= c.card
		}
	}
	x := len(sc.sels)
	for _, i := range lv {
		for _, j := range rv {
			if len(pat.PredsBetween(i, j)) != 0 {
				sc.sels = append(sc.sels, [2]int{min(i, j), max(i, j)})
			}
		}
	}
	card.Rates, card.Sels = from(sc.rates, ri), from(sc.sels, q)
	sc.terms = append(sc.terms, card)
	e.Terms = from(sc.terms, t)
	return e, from(sc.sels, x)
}

// Generate implements Algorithm.
func (z ZStream) Generate(pat *pattern.Pattern, s *stats.Snapshot) Result {
	sc := z.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	sc.reset()
	cp := pat.Core()
	n := len(cp)
	// memo[(size-1)*n+start]: cheapest tree over cp[start : start+size].
	// The final tree is built from winners alone: n leaves and one node
	// per range of two or more.
	if cap(sc.cells) < n*n {
		sc.cells = make([]zcell, n*n)
	}
	if need := n + n*(n-1)/2; cap(sc.nodes) < need {
		sc.nodes = make([]plan.TreeNode, need)
	}
	memo, nodes := sc.cells[:n*n], sc.nodes[:0]
	node := func(v plan.TreeNode) *plan.TreeNode {
		nodes = append(nodes, v)
		return &nodes[len(nodes)-1]
	}
	for start, p := range cp {
		card := s.Rates[p] * s.Sel[p][p]
		memo[start] = zcell{tree: node(plan.TreeNode{Pos: p}), cost: card, card: card}
	}
	for size := 2; size <= n; size++ {
		for start := 0; start+size <= n; start++ {
			cands := sc.cands[:0]
			for k := 1; k < size; k++ {
				l := &memo[(k-1)*n+start]
				r := &memo[(size-k-1)*n+start+k]
				expr, cross := sc.candidateExpr(pat, l, r, cp[start:start+k], cp[start+k:start+size])
				card := l.card * r.card
				for _, ij := range cross {
					card *= s.Sel[ij[0]][ij[1]]
				}
				cands = append(cands, zcand{cost: l.cost + r.cost + card, card: card, expr: expr})
			}
			best := 0
			for c := 1; c < len(cands); c++ {
				if cands[c].cost < cands[best].cost {
					best = c
				}
			}
			at := len(sc.conds)
			for c := range cands {
				if c != best {
					sc.conds = append(sc.conds, core.Condition{LHS: cands[best].expr, RHS: cands[c].expr})
				}
			}
			k := best + 1
			memo[(size-1)*n+start] = zcell{
				tree:  node(plan.TreeNode{Pos: -1, Left: memo[(k-1)*n+start].tree, Right: memo[(size-k-1)*n+start+k].tree}),
				cost:  cands[best].cost,
				card:  cands[best].card,
				split: k,
				conds: from(sc.conds, at),
			}
			sc.cands = cands
		}
	}
	// The DCSs of the chosen plan's internal nodes, leaves-to-root.
	sc.collect(memo, n, n, 0)
	sc.tree.Root = memo[(n-1)*n].tree
	return sc.result(&sc.tree)
}

// collect appends the DCS of every internal node of the tree over
// cp[start : start+size] in post-order — leaves to root, the order in
// which the invariant method verifies a tree plan's invariants (§3.2).
func (sc *Scratch) collect(memo []zcell, n, size, start int) {
	if size == 1 {
		return
	}
	c := &memo[(size-1)*n+start]
	sc.collect(memo, n, c.split, start)
	sc.collect(memo, n, size-c.split, start+c.split)
	sc.blocks = append(sc.blocks, core.DCS{Conds: c.conds})
}

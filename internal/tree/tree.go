// Package tree implements the tree-based evaluation engine of the
// ZStream model (paper ref [42], Figure 3). Arriving events accumulate at
// the leaves of a TreePlan; each internal node stores the partial matches
// (tuples) over its leaf set, and a new tuple at a node immediately joins
// against its sibling's store, propagating matches bottom-up until the
// root emits core-complete matches. The topology of the internal nodes —
// chosen by the ZStream planner from the current statistics — determines
// the order in which predicates are applied and therefore the volume of
// intermediate tuples.
//
// Tuples live in the match.Store the NFA engine also uses: each non-root
// node is a match.Place. When the join table between a node and its
// sibling contains an equality predicate, the node's place is indexed on
// it and a tuple inserted at the sibling meets only the tuples filed
// under its key value; the full join table still runs on each of those.
// Matches and Stats.PMCreated are those of the unindexed engine;
// Stats.PredEvals is lower. LivePMs and HotTypes read the store: on an
// indexed node a tuple that expired in a bucket no later insert probes is
// still counted until the next prune, at most half a window past its
// expiry.
//
// An insert chain starts at the leaf of the event that arrived, and that
// event is the latest of every tuple the chain builds. Where a node's join
// table needs it strictly before an event of the sibling's leaf set — a
// RelBefore pair, known when the plan is compiled — every probe there is
// doomed: the tuple still parks and still sweeps the sibling's bucket, so
// LivePMs and PeakPMs read as before, but it joins nothing. The sibling's
// tuples meet it instead when they are inserted later.
//
// Like the NFA engine, this one stores no event — it keeps the pointers
// it is handed, good until Floor has passed them — and its steady-state
// per-event path is allocation-free: tuples, their assignment arrays and
// the index's buckets come from free lists recycled on expiry and
// completion, and every join runs off a per-node compiled table of the
// cross pairs between the node's leaf set and its sibling's — both sides
// of a join tuple are complete over their leaf sets, so the table needs
// no nil checks and the pair predicates are pre-oriented.
package tree

import (
	"slices"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// tuple is a partial match over one node's leaf set.
type tuple = match.Partial

// node mirrors a plan.TreeNode with evaluation state.
type node struct {
	leaf            bool
	pos             int // pattern position when leaf
	left, right     *node
	parent, sibling *node
	store           *match.Place  // tuples over this node's leaf set (nil at the root)
	joins           []match.Check // cross pairs vs the sibling's leaf set: inserted tuple's PosN, sibling tuple's PosO
	doomed          []bool        // by the position whose arrival started the insert chain: a join pair needs it before a sibling event
}

// Engine is a tree-based evaluation engine for one (non-OR) pattern and
// one tree plan: the plan's nodes over the match.Frame that holds the
// clock, the emit filter, the resolver and the counters.
type Engine struct {
	match.Frame
	tp        *plan.TreePlan
	unindexed bool // every node's tuples in a single bucket: the differential tests' reference

	root      *node
	nodes     []node  // every node of the plan; root and the links point into it
	leafByPos []*node // pattern position -> leaf node (nil for residuals)
	mine      []int   // compileJoins' leaf sets
	theirs    []int
}

// New builds an engine for the pattern following the given tree plan.
// The engine retains the event pointers it is handed: each must stay
// valid, unchanged, until Floor has passed the event.
func New(pat *pattern.Pattern, tp *plan.TreePlan, emit func(*match.Match)) *Engine {
	return newEngine(pat, tp, emit, true)
}

// newEngine is New with the equality index optional: indexed=false keeps
// every node's tuples in a single bucket, the reference the differential
// tests hold the index against.
func newEngine(pat *pattern.Pattern, tp *plan.TreePlan, emit func(*match.Match), indexed bool) *Engine {
	g := &Engine{Frame: match.NewFrame(pat, emit), unindexed: !indexed}
	g.compile(tp)
	return g
}

// Replan makes g the engine New would build for the same pattern, emit
// callback and p, a *plan.TreePlan, but in the storage g already has: the
// match.Frame is reset (every tuple, recorded event and parked match
// dropped, the clock, the emit filter and the counters at zero), and the
// plan is compiled into g's nodes, join tables and places. g keeps p,
// which must not change while g runs it. A host replaces a plan this way
// with an engine that has retired, its counters read.
func (g *Engine) Replan(p plan.Plan) { g.compile(p.(*plan.TreePlan)) }

// compile runs tp over the frame: New runs it on a new engine, Replan on
// a retired one, each node, table and place written in place.
func (g *Engine) compile(tp *plan.TreePlan) {
	g.Reset()
	g.tp = tp
	// A binary tree over the core positions has 2k-1 nodes; growing the
	// array once, before any link into it is taken, keeps the links good.
	k := len(g.Pat.Core())
	g.nodes = slices.Grow(g.nodes[:0], 2*k-1)
	g.leafByPos = slices.Grow(g.leafByPos[:0], g.Pat.NumPositions())[:g.Pat.NumPositions()]
	clear(g.leafByPos)
	g.root = g.build(tp.Root, nil)
	g.compileJoins(g.root)
	g.placeStores(g.root)
}

// build takes the next node of g.nodes for pn, keeping the arrays of its
// join table and doomed marks.
func (g *Engine) build(pn *plan.TreeNode, parent *node) *node {
	g.nodes = g.nodes[:len(g.nodes)+1]
	n := &g.nodes[len(g.nodes)-1]
	*n = node{parent: parent, joins: n.joins[:0], doomed: n.doomed}
	if pn.IsLeaf() {
		n.leaf = true
		n.pos = pn.Pos
		g.leafByPos[pn.Pos] = n
		return n
	}
	n.pos = -1
	n.left = g.build(pn.Left, n)
	n.right = g.build(pn.Right, n)
	n.left.sibling = n.right
	n.right.sibling = n.left
	return n
}

// leafSet collects the pattern positions under n in ascending order (the
// tree is built over declaration-ordered leaves, so an in-order walk is
// already sorted per subtree; ascending order preserves the historical
// predicate evaluation order).
func leafSet(n *node, out []int) []int {
	if n == nil {
		return out
	}
	if n.leaf {
		return append(out, n.pos)
	}
	out = leafSet(n.left, out)
	return leafSet(n.right, out)
}

// compileJoins builds every non-root node's flat join table: the cross
// pairs between its leaf set and its sibling's, each with the pattern's
// pre-oriented pair check, and marks the positions whose arrival can join
// nothing there. Tuples are complete over their node's leaf set, so the
// table never needs nil checks at join time.
func (g *Engine) compileJoins(n *node) {
	if n == nil {
		return
	}
	if n != g.root && n.sibling != nil {
		g.mine = leafSet(n, g.mine[:0])
		g.theirs = leafSet(n.sibling, g.theirs[:0])
		n.doomed = slices.Grow(n.doomed[:0], g.Pat.NumPositions())[:g.Pat.NumPositions()]
		clear(n.doomed)
		for _, pa := range g.mine {
			for _, pb := range g.theirs {
				pc := g.Pat.Pair(pa, pb)
				n.joins = append(n.joins, match.Check{PosN: pa, PosO: pb, PC: pc})
				n.doomed[pa] = n.doomed[pa] || pc.Rel == pattern.RelBefore
			}
		}
	}
	g.compileJoins(n.left)
	g.compileJoins(n.right)
}

// placeStores gives every non-root node its parking place. A node's
// tuples are probed by tuples inserted at its sibling, so the place is
// indexed on an equality predicate of the sibling's join table, if it has
// one.
func (g *Engine) placeStores(n *node) {
	if n == nil {
		return
	}
	if n != g.root {
		var key match.EqKey
		if !g.unindexed {
			key = match.EqKeyOf(n.sibling.joins)
		}
		n.store = g.Store.NewPlace(key, false) // nothing offers to a node
	}
	g.placeStores(n.left)
	g.placeStores(n.right)
}

// Plan returns the tree plan in effect.
func (g *Engine) Plan() plan.Plan { return g.tp }

// Process feeds one input event (non-decreasing timestamps). The pointer
// is retained if the event is kept (see New).
func (g *Engine) Process(e *event.Event) { g.process(e, 0) }

// ProcessMasked is Process with a precomputed unary predicate mask:
// when mask carries pattern.MaskValid, bit p
// replaces the per-event UnaryOk evaluation for position p.
func (g *Engine) ProcessMasked(e *event.Event, mask uint32) { g.process(e, mask) }

func (g *Engine) process(e *event.Event, mask uint32) {
	if e.TS > g.Watermark() {
		g.Advance(e.TS)
	}
	for _, p := range g.Pat.PositionsOfType(e.Type) {
		leaf := g.leafByPos[p]
		if leaf == nil {
			// Residual position: the resolver buffers it for scope
			// resolution (it applies the position's unary predicates).
			if g.WantsResidual(p, e, mask) {
				g.Resolver().AddResidual(p, e)
			}
			continue
		}
		if !g.UnaryOk(p, e, mask) {
			continue
		}
		t := g.Store.Get()
		t.MinTS = e.TS
		t.MaxTS = e.TS
		t.Evs[p] = e
		g.PMCreated++
		g.insert(leaf, t, p)
	}
}

// insert adds a tuple at a node, emits if the node is the root, and
// otherwise joins it against the sibling tuples its key selects, pushing
// combined tuples to the parent. p is the position of the event whose
// arrival started the chain; where the node's joins need that event
// before a sibling event, the probe only sweeps.
func (g *Engine) insert(n *node, t *tuple, p int) {
	if n == g.root {
		g.Complete(t)
		return
	}
	n.store.Park(t)
	ss := n.sibling.store.ProbePartial(t, g.Watermark())
	if n.doomed[p] {
		return
	}
	for _, s := range ss {
		if g.joinOK(n, t, s) {
			g.PMCreated++
			g.insert(n.parent, g.merge(t, s), p)
		}
	}
}

// joinOK checks the node's compiled cross-pair table between the
// inserted tuple t and sibling tuple s, after one window check on the
// tuples' timestamp spans.
func (g *Engine) joinOK(n *node, t, s *tuple) bool {
	if t.MaxTS-s.MinTS > g.Pat.Window || s.MaxTS-t.MinTS > g.Pat.Window {
		return false
	}
	for i := range n.joins {
		j := &n.joins[i]
		if !j.PC.Ok(t.Evs[j.PosN], s.Evs[j.PosO], &g.PredEvals) {
			return false
		}
	}
	return true
}

func (g *Engine) merge(a, b *tuple) *tuple {
	m := g.Store.Get()
	copy(m.Evs, a.Evs)
	m.MinTS = a.MinTS
	m.MaxTS = a.MaxTS
	for p, qe := range b.Evs {
		if qe != nil {
			m.Evs[p] = qe
		}
	}
	if b.MinTS < m.MinTS {
		m.MinTS = b.MinTS
	}
	if b.MaxTS > m.MaxTS {
		m.MaxTS = b.MaxTS
	}
	return m
}

// HotTypes marks (in mark, indexed by event type) every type that could
// extend a live tuple right now: a leaf position is hot when its
// sibling's store is non-empty, so an arriving event of that type joins
// immediately and propagates toward the root. (Deeper propagation is not
// modelled; the immediate join is the first-order signal the
// pattern-aware shedding policy protects.)
func (g *Engine) HotTypes(mark []bool) {
	for p, leaf := range g.leafByPos {
		if leaf == nil || leaf.sibling == nil || leaf.sibling.store.Len() == 0 {
			continue
		}
		if t := g.Pat.Positions[p].Type; t < len(mark) {
			mark[t] = true
		}
	}
}

// HotKeys calls add with key(ev) for one representative event of every
// tuple stored at an internal node — a genuinely joined partial match of
// two or more events. Leaf tuples (single buffered events) are
// deliberately excluded: counting every buffered event's key would mark
// every recently active entity hot and starve the shedder of droppable
// mass, whereas an internal join is real progress worth protecting.
func (g *Engine) HotKeys(key func(*event.Event) uint64, add func(uint64)) {
	g.hotKeys(g.root, key, add)
}

func (g *Engine) hotKeys(n *node, key func(*event.Event) uint64, add func(uint64)) {
	if n == nil || n.leaf {
		return
	}
	if n.store != nil {
		n.store.HotKeys(key, add)
	}
	g.hotKeys(n.left, key, add)
	g.hotKeys(n.right, key, add)
}

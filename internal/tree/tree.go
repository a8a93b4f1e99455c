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
// Like the NFA engine, the steady-state per-event path is
// allocation-free: events are interned into a chunked arena, tuples and
// their assignment arrays come from a free list recycled on expiry and
// completion, and every join runs off a per-node compiled table of the
// cross pairs between the node's leaf set and its sibling's — both sides
// of a join tuple are complete over their leaf sets, so the table needs
// no nil checks and the pair predicates are pre-oriented.
package tree

import (
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/nfa"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// Stats is identical in meaning to the NFA engine's counters; tuples
// stored at tree nodes play the role of partial matches.
type Stats = nfa.Stats

// tuple is a partial match over one node's leaf set.
type tuple struct {
	evs          []*event.Event // by pattern position
	minTS, maxTS event.Time
}

// joinCheck is one compiled cross-pair check of a node's join: the
// inserted tuple's event at pa against the sibling tuple's event at pb.
type joinCheck struct {
	pa, pb int
	pc     *pattern.PairCheck
}

// node mirrors a plan.TreeNode with evaluation state.
type node struct {
	leaf            bool
	pos             int // pattern position when leaf
	left, right     *node
	parent, sibling *node
	store           []*tuple
	joins           []joinCheck // cross pairs vs the sibling's leaf set
}

// Engine is a tree-based evaluation engine for one (non-OR) pattern and
// one tree plan.
type Engine struct {
	pat *pattern.Pattern
	tp  *plan.TreePlan
	res *match.Resolver

	root      *node
	leafByPos []*node // pattern position -> leaf node (nil for residuals)

	arena     match.Arena
	external  bool // events are caller-stable; retain pointers, don't intern
	tupleFree []*tuple

	watermark  event.Time
	lastPrune  event.Time
	emitBefore uint64

	pmCreated  uint64
	predEvals  uint64
	suppressed uint64
	live       int
	peak       int
}

// New builds an engine for the pattern following the given tree plan.
// The engine copies every event it keeps, so the caller's *event.Event
// is never retained past Process.
func New(pat *pattern.Pattern, tp *plan.TreePlan, emit func(*match.Match)) *Engine {
	g := &Engine{
		pat:       pat,
		tp:        tp,
		res:       match.NewResolver(pat, emit),
		leafByPos: make([]*node, pat.NumPositions()),
	}
	g.root = g.build(tp.Root, nil)
	g.compileJoins(g.root)
	return g
}

func (g *Engine) build(pn *plan.TreeNode, parent *node) *node {
	n := &node{parent: parent}
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
// pre-oriented pair check. Tuples are complete over their node's leaf
// set, so the table never needs nil checks at join time.
func (g *Engine) compileJoins(n *node) {
	if n == nil {
		return
	}
	if n != g.root && n.sibling != nil {
		mine := leafSet(n, nil)
		theirs := leafSet(n.sibling, nil)
		for _, pa := range mine {
			for _, pb := range theirs {
				n.joins = append(n.joins, joinCheck{pa: pa, pb: pb, pc: g.pat.Pair(pa, pb)})
			}
		}
	}
	g.compileJoins(n.left)
	g.compileJoins(n.right)
}

// Resolver exposes the residual resolver (for migration seeding).
func (g *Engine) Resolver() *match.Resolver { return g.res }

// SetOwnedEmit declares that the emit callback consumes each match (and
// its events) synchronously and retains nothing past its return. The
// engine then recycles emission structures and overwrites released arena
// chunks instead of leaving them to the GC, making the steady-state path
// allocation-free. Must not be combined with callbacks that buffer
// matches (e.g. the shard collector).
func (g *Engine) SetOwnedEmit(owned bool) {
	g.res.SetOwned(owned)
	if g.emitBefore == 0 { // a migrating engine's arena stays frozen
		g.arena.SetRecycle(owned)
	}
}

// SetExternal declares that every event handed to Process is already
// stored stably outside the engine (an ingest or decode arena with
// recycling off), so the engine retains the caller's pointer directly
// instead of interning a copy. See nfa.Engine.SetExternal.
func (g *Engine) SetExternal(on bool) { g.external = on }

// SetEmitOnlyBefore restricts emission to matches containing at least one
// core event with Seq < seq (old-plan side of plan migration). Setting a
// boundary also freezes the arena: migration hands this engine's
// residual events to the successor, so released chunks must never be
// overwritten.
func (g *Engine) SetEmitOnlyBefore(seq uint64) {
	g.emitBefore = seq
	if seq > 0 {
		g.arena.Freeze()
	}
}

// Plan returns the tree plan in effect.
func (g *Engine) Plan() plan.Plan { return g.tp }

// Advance moves the watermark forward, resolving parked matches and
// periodically pruning expired tuples.
func (g *Engine) Advance(ts event.Time) {
	if ts < g.watermark {
		return
	}
	g.watermark = ts
	g.res.Advance(ts)
	if ts-g.lastPrune >= g.pat.Window/2 {
		g.pruneNode(g.root)
		// The resolver's residual buffers prune at watermark-2·window
		// (in Advance above) — the oldest horizon any arena pointer can
		// outlive — so chunks wholly behind it are released.
		g.arena.Release(g.watermark - 2*g.pat.Window)
		g.lastPrune = ts
	}
}

func (g *Engine) pruneNode(n *node) {
	if n == nil {
		return
	}
	kept := n.store[:0]
	for _, t := range n.store {
		if g.watermark-t.minTS <= g.pat.Window {
			kept = append(kept, t)
			continue
		}
		g.putTuple(t)
	}
	for i := len(kept); i < len(n.store); i++ {
		n.store[i] = nil
	}
	g.live -= len(n.store) - len(kept)
	n.store = kept
	g.pruneNode(n.left)
	g.pruneNode(n.right)
}

// getTuple returns a pooled (or fresh) zeroed tuple.
func (g *Engine) getTuple() *tuple {
	if n := len(g.tupleFree); n > 0 {
		t := g.tupleFree[n-1]
		g.tupleFree[n-1] = nil
		g.tupleFree = g.tupleFree[:n-1]
		return t
	}
	return &tuple{evs: make([]*event.Event, len(g.pat.Positions))}
}

// putTuple recycles a dead tuple. Safe because tuples never escape the
// engine: completion hands the resolver a copy of the assignment.
func (g *Engine) putTuple(t *tuple) {
	clear(t.evs)
	g.tupleFree = append(g.tupleFree, t)
}

// Process feeds one input event (non-decreasing timestamps). The event
// is copied if kept (unless SetExternal is in effect); the caller may
// reuse it.
func (g *Engine) Process(e *event.Event) { g.process(e, 0) }

// ProcessMasked is Process with a precomputed unary predicate mask:
// when mask carries pattern.MaskValid, bit p
// replaces the per-event UnaryOk evaluation for position p.
func (g *Engine) ProcessMasked(e *event.Event, mask uint32) { g.process(e, mask) }

func (g *Engine) process(e *event.Event, mask uint32) {
	if e.TS > g.watermark {
		g.Advance(e.TS)
	}
	var ae *event.Event // arena copy, interned at most once
	for _, p := range g.pat.PositionsOfType(e.Type) {
		leaf := g.leafByPos[p]
		if leaf == nil {
			// Residual position: the resolver buffers it for scope
			// resolution (it applies the position's unary predicates).
			if g.wantsResidual(p, e, mask) {
				if ae == nil {
					ae = g.intern(e)
				}
				g.res.AddResidual(p, ae)
			}
			continue
		}
		if !g.unaryOk(p, e, mask) {
			continue
		}
		if ae == nil {
			ae = g.intern(e)
		}
		t := g.getTuple()
		t.minTS = ae.TS
		t.maxTS = ae.TS
		t.evs[p] = ae
		g.pmCreated++
		g.insert(leaf, t)
	}
}

// intern stores the event for retention: an arena copy normally, the
// caller's stable pointer under SetExternal.
func (g *Engine) intern(e *event.Event) *event.Event {
	if g.external {
		return e
	}
	return g.arena.Intern(e)
}

// unaryOk consults the precomputed mask bit when one is present and falls
// back to evaluating position p's compiled unary predicates.
func (g *Engine) unaryOk(p int, e *event.Event, mask uint32) bool {
	if mask&pattern.MaskValid != 0 {
		return pattern.MaskOk(mask, p)
	}
	return g.pat.UnaryOk(p, e, &g.predEvals)
}

// wantsResidual is Resolver.Wants with the mask consulted for the unary
// predicates when present.
func (g *Engine) wantsResidual(p int, e *event.Event, mask uint32) bool {
	if mask&pattern.MaskValid != 0 {
		return g.res.Buffered(p) && pattern.MaskOk(mask, p)
	}
	return g.res.Wants(p, e)
}

// insert adds a tuple at a node, emits if the node is the root, and
// otherwise joins it against the sibling's store, pushing combined tuples
// to the parent.
func (g *Engine) insert(n *node, t *tuple) {
	if n == g.root {
		g.complete(t)
		g.putTuple(t)
		return
	}
	n.store = append(n.store, t)
	g.live++
	if g.live > g.peak {
		g.peak = g.live
	}
	sib := n.sibling
	list := sib.store
	for i := 0; i < len(list); {
		s := list[i]
		if g.watermark-s.minTS > g.pat.Window {
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			list = list[:len(list)-1]
			g.live--
			g.putTuple(s)
			continue
		}
		if g.joinOK(n, t, s) {
			g.pmCreated++
			g.insert(n.parent, g.merge(t, s))
		}
		i++
	}
	sib.store = list
}

// joinOK checks the node's compiled cross-pair table between the
// inserted tuple t and sibling tuple s, after one window check on the
// tuples' timestamp spans.
func (g *Engine) joinOK(n *node, t, s *tuple) bool {
	if t.maxTS-s.minTS > g.pat.Window || s.maxTS-t.minTS > g.pat.Window {
		return false
	}
	for i := range n.joins {
		j := &n.joins[i]
		if !j.pc.Ok(t.evs[j.pa], s.evs[j.pb], &g.predEvals) {
			return false
		}
	}
	return true
}

func (g *Engine) merge(a, b *tuple) *tuple {
	m := g.getTuple()
	copy(m.evs, a.evs)
	m.minTS = a.minTS
	m.maxTS = a.maxTS
	for p, qe := range b.evs {
		if qe != nil {
			m.evs[p] = qe
		}
	}
	if b.minTS < m.minTS {
		m.minTS = b.minTS
	}
	if b.maxTS > m.maxTS {
		m.maxTS = b.maxTS
	}
	return m
}

// complete applies the migration emit filter and hands the core match to
// the resolver (which copies the assignment; the tuple is recycled by
// the caller).
func (g *Engine) complete(t *tuple) {
	if g.emitBefore > 0 {
		old := false
		for _, ev := range t.evs {
			if ev != nil && ev.Seq < g.emitBefore {
				old = true
				break
			}
		}
		if !old {
			g.suppressed++
			return
		}
	}
	g.res.OnCoreComplete(t.evs, g.watermark)
}

// Finish force-resolves all parked matches.
func (g *Engine) Finish() { g.res.Flush() }

// LivePMs reports the current number of stored tuples (the shedding
// layer's load signal; tuples play the role of partial matches).
func (g *Engine) LivePMs() int { return g.live }

// HotTypes marks (in mark, indexed by event type) every type that could
// extend a live tuple right now: a leaf position is hot when its
// sibling's store is non-empty, so an arriving event of that type joins
// immediately and propagates toward the root. (Deeper propagation is not
// modelled; the immediate join is the first-order signal the
// pattern-aware shedding policy protects.)
func (g *Engine) HotTypes(mark []bool) {
	for p, leaf := range g.leafByPos {
		if leaf == nil || leaf.sibling == nil || len(leaf.sibling.store) == 0 {
			continue
		}
		if t := g.pat.Positions[p].Type; t < len(mark) {
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
	for _, t := range n.store {
		for _, e := range t.evs {
			if e != nil {
				add(key(e))
				break
			}
		}
	}
	g.hotKeys(n.left, key, add)
	g.hotKeys(n.right, key, add)
}

// Stats returns a snapshot of the engine's counters.
func (g *Engine) Stats() Stats {
	return Stats{
		PMCreated:  g.pmCreated,
		PredEvals:  g.predEvals + g.res.PredEvals,
		Emitted:    g.res.Emitted,
		Dropped:    g.res.Dropped,
		Suppressed: g.suppressed,
		LivePMs:    g.live,
		PeakPMs:    g.peak,
		Pending:    g.res.PendingCount(),
	}
}

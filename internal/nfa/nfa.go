// Package nfa implements the order-based evaluation engine: a lazy chain
// NFA (paper ref [36], Figure 1(b)) that detects the pattern's core
// positions in the order prescribed by an OrderPlan rather than in
// declaration order.
//
// A partial match (PM) is created when an event of the plan's first
// position arrives; a PM at state s has filled the first s positions of
// the order and advances either when a matching event of position
// order[s] arrives (eager path) or, upon creation, by scanning the
// history of order[s] for events that arrived earlier (lazy path). Every
// extension forks, so each event combination is enumerated exactly once.
// Core-complete matches are handed to the residual resolver for
// negation/Kleene processing.
//
// PMs and the per-position histories live in a match.Store: each state
// s >= 1 is a match.Place holding the PMs waiting there and the events of
// order[s] seen so far (the first position needs no history — nothing
// scans it). When state s's check list contains an equality predicate
// between order[s] and a filled position, the place is indexed on it and
// an event meets only the PMs — a PM only the history — filed under its
// key value; the full check list still runs on each of those. Matches and
// Stats.PMCreated are those of the unindexed engine; Stats.PredEvals is
// lower.
//
// Each state is classified once, when the plan is compiled, by the order
// relations of its check list; events arrive in non-decreasing timestamp
// order and both rules lean on it:
//   - forward (every check RelAfter — all states of a declaration-order
//     SEQ): no history. A PM is registered there only while the event it
//     holds last is processed, so nothing recorded could follow it and the
//     lazy scan would visit nothing. Arriving events take the eager path.
//   - look-back (some check RelBefore): no eager path. The next position
//     must strictly precede an event the PM already holds, and an arriving
//     event is no earlier than any of them, so Offer records it and sweeps
//     expiry but no PM is asked; PMs there grow through the lazy scan alone.
//   - unordered (AND states, every check RelNone or RelAfter, one at least
//     RelNone): both paths.
//
// Introspection (LivePMs, HotTypes, HotKeys) reads the store. On an
// indexed state, a PM that expired in a bucket no later event probes is
// still counted until the next prune, at most half a window past its
// expiry; on an unindexed state every event offered to it removes the
// PMs that have expired.
//
// The engine stores no event: it keeps the pointers it is handed, and
// whoever owns the storage behind them keeps an event in place until
// Floor has passed it. The steady-state per-event path is
// allocation-free: PMs, their assignment arrays and the index's buckets
// come from free lists recycled on expiry and completion, and all
// predicate and order checks run off the pattern's compiled transition
// tables — a type-indexed dispatch list plus per-state flat pair-check
// tables with operand orientation baked in.
package nfa

import (
	"cmp"
	"fmt"
	"slices"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// Engine is a lazy-NFA evaluation engine for one (non-OR) pattern and one
// order plan: the plan's states over the match.Frame that holds the
// clock, the emit filter, the resolver and the counters.
type Engine struct {
	match.Frame
	op        *plan.OrderPlan
	unindexed bool // every state in a single bucket: the differential tests' reference

	orderIdx []int           // pattern position -> index in order (-1 if residual)
	states   []*match.Place  // states[s]: PMs with s filled positions (1..n-1)
	checks   [][]match.Check // per state: checks against the filled prefix
	rules    []rule          // per state: which paths extend its PMs
	n        int             // number of core positions
	prefix   int             // when >0, order[0..prefix-1] is fed externally via Seed
}

// New builds an engine for the pattern following the given order plan.
// emit receives every surviving match. The engine retains the event
// pointers it is handed: each must stay valid, unchanged, until Floor has
// passed the event.
func New(pat *pattern.Pattern, op *plan.OrderPlan, emit func(*match.Match)) *Engine {
	return newEngine(pat, op, emit, true)
}

// newEngine is New with the equality index optional: indexed=false parks
// every state in a single bucket, the reference the differential tests
// hold the index against.
func newEngine(pat *pattern.Pattern, op *plan.OrderPlan, emit func(*match.Match), indexed bool) *Engine {
	g := &Engine{Frame: match.NewFrame(pat, emit), unindexed: !indexed}
	g.compile(op)
	return g
}

// Replan makes g the engine New would build for the same pattern, emit
// callback and p, an *plan.OrderPlan, but in the storage g already has:
// the match.Frame is reset (every partial, recorded event and parked
// match dropped, the clock, the emit filter and the counters at zero),
// and the plan is compiled into g's tables and places. g keeps p, which
// must not change while g runs it. A host replaces a plan this way with
// an engine that has retired, its counters read.
func (g *Engine) Replan(p plan.Plan) { g.compile(p.(*plan.OrderPlan)) }

// compile runs op over the frame: New runs it on a new engine, Replan on
// a retired one, each slice written in place.
func (g *Engine) compile(op *plan.OrderPlan) {
	g.Reset()
	pat := g.Pat
	g.op, g.n, g.prefix = op, len(op.Order), 0
	g.orderIdx = slices.Grow(g.orderIdx[:0], pat.NumPositions())[:pat.NumPositions()]
	for i := range g.orderIdx {
		g.orderIdx[i] = -1
	}
	for k, p := range op.Order {
		g.orderIdx[p] = k
	}
	// Compile the per-state transition tables: a PM at state s has filled
	// exactly order[0..s-1], so the extension checks are a fixed list (in
	// declaration-position order, matching the historical predicate
	// evaluation order). A state whose list holds an equality predicate
	// is indexed on it; a forward state keeps no history.
	g.states = slices.Grow(g.states[:0], g.n)[:g.n]
	g.checks = slices.Grow(g.checks[:0], g.n)[:g.n]
	g.rules = slices.Grow(g.rules[:0], g.n)[:g.n]
	for s := 1; s < g.n; s++ {
		next := op.Order[s]
		cs := g.checks[s][:0]
		for k := 0; k < s; k++ {
			q := op.Order[k]
			cs = append(cs, match.Check{PosN: next, PosO: q, PC: pat.Pair(next, q)})
		}
		slices.SortFunc(cs, func(a, b match.Check) int { return cmp.Compare(a.PosO, b.PosO) })
		g.checks[s] = cs
		var key match.EqKey
		if !g.unindexed {
			key = match.EqKeyOf(cs)
		}
		g.rules[s] = classify(cs)
		g.states[s] = g.Store.NewPlace(key, g.rules[s] != forward)
	}
}

// rule is a state's offer rule: which of the two paths — the eager one,
// an arriving event offered to the PMs parked there, and the lazy scan of
// the history when a PM parks — can extend its PMs.
type rule uint8

const (
	forward   rule = iota // eager path only, no history
	lookBack              // lazy scan only: no arriving event is offered
	unordered             // both
)

// classify names the rule of a state with the given check list.
func classify(cs []match.Check) rule {
	r := forward
	for _, c := range cs {
		switch c.PC.Rel {
		case pattern.RelBefore:
			return lookBack
		case pattern.RelNone:
			r = unordered
		}
	}
	return r
}

// Plan returns the order plan in effect.
func (g *Engine) Plan() plan.Plan { return g.op }

// SetSharedPrefix declares that the first k positions of the plan's
// order are evaluated externally: a shared prefix runner (see
// internal/multi) detects every assignment of order[0..k-1] and hands
// it in through Seed, so Process skips those positions entirely — no
// unary evaluation, no buffering, no PM creation below state k. The
// engine then behaves, match-for-match, like an unseeded engine on the
// same plan, provided the runner seeds every prefix assignment before
// the event that completed it is handed to Process (the lazy
// registration scan picks up suffix events that arrived earlier, and
// later suffix events extend seeded PMs through the eager path exactly
// as they would natively-created ones).
//
// k must leave at least one position to the engine (0 < k < number of
// core positions).
func (g *Engine) SetSharedPrefix(k int) error {
	if k <= 0 || k >= g.n {
		return fmt.Errorf("nfa: shared prefix %d out of range (1..%d)", k, g.n-1)
	}
	g.prefix = k
	return nil
}

// Seed injects one prefix assignment produced by a shared prefix
// runner: evs[j] is the event assigned to the plan's order position j,
// for j < k (SetSharedPrefix). The events must satisfy the prefix's
// unary and pairwise constraints (the runner evaluated them) and stay
// in place until Floor has passed them, as Process's events must.
// Assignments whose timestamp span exceeds this pattern's window are
// dropped here, so a runner sized to the widest subscriber window can fan
// one completion to every subscriber unfiltered.
func (g *Engine) Seed(evs []*event.Event) {
	m := g.Store.Get()
	for j := 0; j < g.prefix; j++ {
		e := evs[j]
		m.Evs[g.op.Order[j]] = e
		if j == 0 || e.TS < m.MinTS {
			m.MinTS = e.TS
		}
		if j == 0 || e.TS > m.MaxTS {
			m.MaxTS = e.TS
		}
	}
	if m.MaxTS-m.MinTS > g.Pat.Window {
		g.Store.Put(m)
		return
	}
	g.PMCreated++
	g.register(g.prefix, m)
}

// Process feeds one input event. Events must arrive in non-decreasing
// timestamp order. The pointer is retained if the event is kept (see
// New).
func (g *Engine) Process(e *event.Event) { g.process(e, 0) }

// ProcessMasked is Process with a precomputed unary predicate mask:
// when mask carries pattern.MaskValid, bit p
// replaces the per-event UnaryOk evaluation for position p. A zero mask
// falls back to per-event evaluation, so callers without masks pass 0.
func (g *Engine) ProcessMasked(e *event.Event, mask uint32) { g.process(e, mask) }

func (g *Engine) process(e *event.Event, mask uint32) {
	if e.TS > g.Watermark() {
		g.Advance(e.TS)
	}
	for _, p := range g.Pat.PositionsOfType(e.Type) {
		k := g.orderIdx[p]
		if k < 0 {
			// Residual position: the resolver buffers it for scope
			// resolution (it applies the position's unary predicates).
			if g.WantsResidual(p, e, mask) {
				g.Resolver().AddResidual(p, e)
			}
			continue
		}
		if k < g.prefix {
			continue // fed externally through Seed
		}
		if !g.UnaryOk(p, e, mask) {
			continue
		}
		if k == 0 {
			g.create(p, e)
			continue
		}
		// Offer the event to the PMs waiting at state k that its key
		// selects, and record it for the ones that park there later. At a
		// look-back state it must precede an event each PM holds: it can
		// extend none.
		ms := g.states[k].Offer(e, g.Watermark())
		if g.rules[k] == lookBack {
			continue
		}
		for _, m := range ms {
			if g.canExtend(k, m, e) {
				g.fork(k, m, p, e)
			}
		}
	}
}

// canExtend checks whether event e can fill state k's position of PM m:
// one window check against the PM's timestamp span, then the state's
// compiled check list (temporal relation + oriented predicates against
// each filled position).
func (g *Engine) canExtend(k int, m *match.Partial, e *event.Event) bool {
	if m.MaxTS-e.TS > g.Pat.Window || e.TS-m.MinTS > g.Pat.Window {
		return false
	}
	for i := range g.checks[k] {
		c := &g.checks[k][i]
		if !c.PC.Ok(e, m.Evs[c.PosO], &g.PredEvals) {
			return false
		}
	}
	return true
}

// create starts a new PM from an event at the plan's first position.
func (g *Engine) create(p int, e *event.Event) {
	m := g.Store.Get()
	m.MinTS = e.TS
	m.MaxTS = e.TS
	m.Evs[p] = e
	g.PMCreated++
	g.register(1, m)
}

// fork copies parent (a PM at state k), adds e at position p and
// registers the child.
func (g *Engine) fork(k int, parent *match.Partial, p int, e *event.Event) {
	m := g.Store.Get()
	copy(m.Evs, parent.Evs)
	m.MinTS = parent.MinTS
	m.MaxTS = parent.MaxTS
	if e.TS < m.MinTS {
		m.MinTS = e.TS
	}
	if e.TS > m.MaxTS {
		m.MaxTS = e.TS
	}
	m.Evs[p] = e
	g.PMCreated++
	g.register(k+1, m)
}

// register completes a PM that has filled s positions if that is all of
// them; otherwise it parks it at state s and lazily scans the next
// position's history, if the state keeps one, for events that already
// arrived.
func (g *Engine) register(s int, m *match.Partial) {
	if s == g.n {
		g.Complete(m)
		return
	}
	h := g.states[s].Park(m)
	if h == nil {
		return
	}
	next := g.op.Order[s]
	// Lazy path: events of the next position that arrived before this PM
	// was created. Future events arrive through Offer. The scan reads the
	// window narrowed to what the check list's order relations let through:
	// after the latest filled event next must follow, before the earliest
	// one it must precede.
	lo, loExcl := m.MaxTS-g.Pat.Window, false
	hi, hiExcl := m.MinTS+g.Pat.Window, false
	for _, c := range g.checks[s] {
		switch ts := m.Evs[c.PosO].TS; {
		case c.PC.Rel == pattern.RelAfter && ts >= lo:
			lo, loExcl = ts, true
		case c.PC.Rel == pattern.RelBefore && ts <= hi:
			hi, hiExcl = ts, true
		}
	}
	h.Scan(lo, hi, loExcl, hiExcl, func(c *event.Event) bool {
		if g.canExtend(s, m, c) {
			g.fork(s, m, next, c)
		}
		return true
	})
}

// HotTypes marks (in mark, indexed by event type) every type that could
// extend a live partial match right now: for each non-empty NFA state,
// the type of the next position in the plan's order. An event of a hot
// type may be the one that advances — or completes — an in-flight match,
// so the pattern-aware shedding policy protects it.
func (g *Engine) HotTypes(mark []bool) {
	for s := 1; s < g.n; s++ {
		if g.states[s].Len() == 0 {
			continue
		}
		if t := g.Pat.Positions[g.op.Order[s]].Type; t < len(mark) {
			mark[t] = true
		}
	}
}

// HotKeys calls add with key(ev) for one representative event of every
// live partial match. For key-connected (partitionable) patterns every
// event of a PM carries the same key value, so one representative
// identifies the PM's entity.
func (g *Engine) HotKeys(key func(*event.Event) uint64, add func(uint64)) {
	for s := 1; s < g.n; s++ {
		g.states[s].HotKeys(key, add)
	}
}

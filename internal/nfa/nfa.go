// Package nfa implements the order-based evaluation engine: a lazy chain
// NFA (paper ref [36], Figure 1(b)) that detects the pattern's core
// positions in the order prescribed by an OrderPlan rather than in
// declaration order.
//
// Events are buffered per core position. A partial match (PM) is created
// when an event of the plan's first position arrives; a PM at state s has
// filled the first s positions of the order and advances either when a
// matching event of position order[s] arrives (eager path) or, upon
// creation, by scanning the history buffer of order[s] for events that
// arrived earlier (lazy path). Every extension forks, so each event
// combination is enumerated exactly once. Core-complete matches are
// handed to the residual resolver for negation/Kleene processing.
//
// The steady-state per-event path is allocation-free: arriving events are
// copied into a chunked arena (released whole chunks at a time as the
// watermark passes them), PMs and their assignment arrays come from a
// free list recycled on expiry and completion, and all predicate and
// order checks run off the pattern's compiled transition tables — a
// type-indexed dispatch list plus per-state flat pair-check tables with
// operand orientation baked in.
package nfa

import (
	"fmt"
	"sort"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// Stats aggregates the engine's work and output counters.
type Stats struct {
	// PMCreated counts partial matches created (a memory/work proxy, the
	// quantity the greedy plan cost models).
	PMCreated uint64
	// PredEvals counts predicate evaluations (engine + resolver).
	PredEvals uint64
	// Emitted counts matches delivered to the callback.
	Emitted uint64
	// Dropped counts core-complete matches discarded by residual
	// constraints.
	Dropped uint64
	// Suppressed counts matches withheld by the migration emit filter.
	Suppressed uint64
	// LivePMs is the current number of registered partial matches.
	LivePMs int
	// PeakPMs is the high-water mark of LivePMs.
	PeakPMs int
	// Pending is the number of matches parked in the resolver.
	Pending int
}

// pm is a partial match: an assignment of events to a prefix of the
// plan's order.
type pm struct {
	evs          []*event.Event // by pattern position
	filled       int
	minTS, maxTS event.Time
}

// stateCheck is one compiled extension check of a state: the event being
// offered must be compatible with the PM's event at pos, per the
// pre-oriented pair table.
type stateCheck struct {
	pos int // previously-filled pattern position
	pc  *pattern.PairCheck
}

// Engine is a lazy-NFA evaluation engine for one (non-OR) pattern and one
// order plan.
type Engine struct {
	pat *pattern.Pattern
	op  *plan.OrderPlan
	res *match.Resolver

	bufs     []*match.Buffer // per pattern position; non-nil at core ones
	orderIdx []int           // pattern position -> index in order (-1 if residual)
	states   [][]*pm         // states[s]: PMs with s filled positions (1..n-1)
	checks   [][]stateCheck  // per state: checks against the filled prefix
	n        int             // number of core positions

	arena    match.Arena
	external bool // events are caller-stable; retain pointers, don't intern
	pmFree   []*pm

	watermark  event.Time
	retention  event.Time
	lastPrune  event.Time
	emitBefore uint64 // when >0, emit only matches with a core Seq < emitBefore
	prefix     int    // when >0, order[0..prefix-1] is fed externally via Seed

	pmCreated  uint64
	predEvals  uint64
	suppressed uint64
	live       int
	peak       int
}

// New builds an engine for the pattern following the given order plan.
// emit receives every surviving match. The engine copies every event it
// keeps, so the caller's *event.Event is never retained past Process.
func New(pat *pattern.Pattern, op *plan.OrderPlan, emit func(*match.Match)) *Engine {
	g := &Engine{
		pat:       pat,
		op:        op,
		res:       match.NewResolver(pat, emit),
		bufs:      make([]*match.Buffer, pat.NumPositions()),
		orderIdx:  make([]int, pat.NumPositions()),
		n:         len(op.Order),
		retention: 2 * pat.Window,
	}
	for i := range g.orderIdx {
		g.orderIdx[i] = -1
	}
	for k, p := range op.Order {
		g.orderIdx[p] = k
		g.bufs[p] = &match.Buffer{}
	}
	g.states = make([][]*pm, g.n)
	// Compile the per-state transition tables: a PM at state s has filled
	// exactly order[0..s-1], so the extension checks are a fixed list (in
	// declaration-position order, matching the historical predicate
	// evaluation order).
	g.checks = make([][]stateCheck, g.n)
	for s := 1; s < g.n; s++ {
		next := op.Order[s]
		cs := make([]stateCheck, 0, s)
		for k := 0; k < s; k++ {
			q := op.Order[k]
			cs = append(cs, stateCheck{pos: q, pc: pat.Pair(next, q)})
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].pos < cs[j].pos })
		g.checks[s] = cs
	}
	return g
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
// stored stably outside the engine — an ingest or decode arena with
// recycling off, whose chunks the garbage collector keeps alive for as
// long as anything references them — so the engine retains the caller's
// pointer directly instead of interning a copy. This removes the last
// per-event copy on the batched wire-to-match path: the arena slot the
// decoder filled is the very pointer buffers and partial matches hold.
func (g *Engine) SetExternal(on bool) { g.external = on }

// SetEmitOnlyBefore restricts emission to matches containing at least one
// core event with Seq < seq: the old-plan side of the paper's §2.2
// migration protocol. Zero removes the filter. Setting a boundary also
// freezes the arena: migration hands this engine's residual events to
// the successor, so released chunks must never be overwritten.
func (g *Engine) SetEmitOnlyBefore(seq uint64) {
	g.emitBefore = seq
	if seq > 0 {
		g.arena.Freeze()
	}
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
// stable for the engine's retention horizon — Seed retains the
// pointers without interning, like SetExternal. Assignments whose
// timestamp span exceeds this pattern's window are dropped here, so a
// runner sized to the widest subscriber window can fan one completion
// to every subscriber unfiltered.
func (g *Engine) Seed(evs []*event.Event) {
	m := g.getPM()
	m.filled = g.prefix
	for j := 0; j < g.prefix; j++ {
		e := evs[j]
		m.evs[g.op.Order[j]] = e
		if j == 0 || e.TS < m.minTS {
			m.minTS = e.TS
		}
		if j == 0 || e.TS > m.maxTS {
			m.maxTS = e.TS
		}
	}
	if m.maxTS-m.minTS > g.pat.Window {
		g.putPM(m)
		return
	}
	g.pmCreated++
	g.register(m)
}

// Advance moves the watermark forward, resolving parked matches and
// periodically pruning buffers and expired partial matches.
func (g *Engine) Advance(ts event.Time) {
	if ts < g.watermark {
		return
	}
	g.watermark = ts
	g.res.Advance(ts)
	if ts-g.lastPrune >= g.pat.Window/2 {
		g.prune()
		g.lastPrune = ts
	}
}

func (g *Engine) prune() {
	horizon := g.watermark - g.retention
	for _, b := range g.bufs {
		if b != nil {
			b.Prune(horizon)
		}
	}
	for s, list := range g.states {
		kept := list[:0]
		for _, m := range list {
			if g.expired(m) {
				g.putPM(m)
				continue
			}
			kept = append(kept, m)
		}
		for i := len(kept); i < len(list); i++ {
			list[i] = nil
		}
		g.states[s] = kept
	}
	g.live = 0
	for _, list := range g.states {
		g.live += len(list)
	}
	// Every holder — buffers, PMs, the resolver (pruned in Advance) — is
	// now at or inside the horizon, so whole chunks behind it can go.
	g.arena.Release(horizon)
}

// expired reports whether the PM can no longer be extended: every future
// event is too far from its earliest element.
func (g *Engine) expired(m *pm) bool {
	return g.watermark-m.minTS > g.pat.Window
}

// getPM returns a pooled (or fresh) zeroed partial match.
func (g *Engine) getPM() *pm {
	if n := len(g.pmFree); n > 0 {
		m := g.pmFree[n-1]
		g.pmFree[n-1] = nil
		g.pmFree = g.pmFree[:n-1]
		return m
	}
	return &pm{evs: make([]*event.Event, len(g.pat.Positions))}
}

// putPM recycles a dead partial match. Safe because PMs never escape the
// engine: completion hands the resolver a copy of the assignment, never
// the PM's own array.
func (g *Engine) putPM(m *pm) {
	clear(m.evs)
	g.pmFree = append(g.pmFree, m)
}

// Process feeds one input event. Events must arrive in non-decreasing
// timestamp order. The event is copied if kept (unless SetExternal is in
// effect); the caller may reuse it.
func (g *Engine) Process(e *event.Event) { g.process(e, 0) }

// ProcessMasked is Process with a precomputed unary predicate mask:
// when mask carries pattern.MaskValid, bit p
// replaces the per-event UnaryOk evaluation for position p. A zero mask
// falls back to per-event evaluation, so callers without masks pass 0.
func (g *Engine) ProcessMasked(e *event.Event, mask uint32) { g.process(e, mask) }

func (g *Engine) process(e *event.Event, mask uint32) {
	if e.TS > g.watermark {
		g.Advance(e.TS)
	}
	var ae *event.Event // arena copy, interned at most once
	for _, p := range g.pat.PositionsOfType(e.Type) {
		k := g.orderIdx[p]
		if k < 0 {
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
		if k < g.prefix {
			continue // fed externally through Seed
		}
		if !g.unaryOk(p, e, mask) {
			continue
		}
		if ae == nil {
			ae = g.intern(e)
		}
		if k == 0 {
			g.create(p, ae)
		} else {
			g.extendState(k, p, ae)
		}
		g.bufs[p].Add(ae)
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

// extendState offers event e (at position p = order[k]) to every PM
// waiting at state k, removing expired PMs on the way.
func (g *Engine) extendState(k, p int, e *event.Event) {
	list := g.states[k]
	for i := 0; i < len(list); {
		m := list[i]
		if g.expired(m) {
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			list = list[:len(list)-1]
			g.live--
			g.putPM(m)
			continue
		}
		if g.canExtend(k, m, e) {
			g.fork(m, p, e)
		}
		i++
	}
	g.states[k] = list
}

// canExtend checks whether event e can fill state k's position of PM m:
// one window check against the PM's timestamp span, then the state's
// compiled check list (temporal relation + oriented predicates against
// each filled position).
func (g *Engine) canExtend(k int, m *pm, e *event.Event) bool {
	if m.maxTS-e.TS > g.pat.Window || e.TS-m.minTS > g.pat.Window {
		return false
	}
	for i := range g.checks[k] {
		c := &g.checks[k][i]
		if !c.pc.Ok(e, m.evs[c.pos], &g.predEvals) {
			return false
		}
	}
	return true
}

// create starts a new PM from an event at the plan's first position.
func (g *Engine) create(p int, e *event.Event) {
	m := g.getPM()
	m.filled = 1
	m.minTS = e.TS
	m.maxTS = e.TS
	m.evs[p] = e
	g.pmCreated++
	g.register(m)
}

// fork copies parent, adds e at position p and registers the child.
func (g *Engine) fork(parent *pm, p int, e *event.Event) {
	m := g.getPM()
	copy(m.evs, parent.evs)
	m.filled = parent.filled + 1
	m.minTS = parent.minTS
	m.maxTS = parent.maxTS
	if e.TS < m.minTS {
		m.minTS = e.TS
	}
	if e.TS > m.maxTS {
		m.maxTS = e.TS
	}
	m.evs[p] = e
	g.pmCreated++
	g.register(m)
}

// register completes the PM if full; otherwise it parks it at its state
// and lazily scans the next position's history for events that already
// arrived.
func (g *Engine) register(m *pm) {
	if m.filled == g.n {
		g.complete(m)
		g.putPM(m)
		return
	}
	s := m.filled
	g.states[s] = append(g.states[s], m)
	g.live++
	if g.live > g.peak {
		g.peak = g.live
	}
	next := g.op.Order[s]
	// Lazy path: events of the next position that arrived before this PM
	// was created. Future events arrive through extendState.
	g.bufs[next].Scan(m.maxTS-g.pat.Window, m.minTS+g.pat.Window, false, false, func(c *event.Event) bool {
		if g.canExtend(s, m, c) {
			g.fork(m, next, c)
		}
		return true
	})
}

// complete applies the migration emit filter and hands the core match to
// the resolver (which copies the assignment; the PM is recycled by the
// caller).
func (g *Engine) complete(m *pm) {
	if g.emitBefore > 0 {
		old := false
		for _, ev := range m.evs {
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
	g.res.OnCoreComplete(m.evs, g.watermark)
}

// Finish force-resolves all parked matches, treating the stream as ended.
func (g *Engine) Finish() { g.res.Flush() }

// LivePMs reports the current number of registered partial matches (the
// shedding layer's load signal).
func (g *Engine) LivePMs() int { return g.live }

// HotTypes marks (in mark, indexed by event type) every type that could
// extend a live partial match right now: for each non-empty NFA state,
// the type of the next position in the plan's order. An event of a hot
// type may be the one that advances — or completes — an in-flight match,
// so the pattern-aware shedding policy protects it.
func (g *Engine) HotTypes(mark []bool) {
	for s := 1; s < g.n; s++ {
		if len(g.states[s]) == 0 {
			continue
		}
		if t := g.pat.Positions[g.op.Order[s]].Type; t < len(mark) {
			mark[t] = true
		}
	}
}

// HotKeys calls add with key(ev) for one representative event of every
// live partial match. For key-connected (partitionable) patterns every
// event of a PM carries the same key value, so one representative
// identifies the PM's entity.
func (g *Engine) HotKeys(key func(*event.Event) uint64, add func(uint64)) {
	for _, list := range g.states {
		for _, m := range list {
			for _, e := range m.evs {
				if e != nil {
					add(key(e))
					break
				}
			}
		}
	}
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

package match

import (
	"acep/internal/event"
	"acep/internal/pattern"
)

// Stats aggregates an engine's work and output counters.
type Stats struct {
	// PMCreated counts partial matches created (a memory/work proxy, the
	// quantity the greedy plan cost models); a tree's tuples count too.
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

// Frame is what both evaluation engines keep around their plan's
// structure: the pattern, the partial-match store and the residual
// resolver, the watermark and its prune clock, the §2.2 emit filter and
// the work counters. nfa.Engine and tree.Engine embed it and add only the
// plan — NFA states with their check lists, tree nodes with their join
// tables — and the per-event step over it.
//
// The exported fields and Complete, UnaryOk and WantsResidual are for the
// embedding engine's step only; its hosts go through the engine's methods.
// Only Advance moves the watermark forward, since Floor, and with it the
// release of event storage, is computed from it; Reset takes it back to
// zero on a retired engine no host reads.
type Frame struct {
	Pat   *pattern.Pattern
	Store *Store    // the partial-match pool and the plan's parking places
	res   *Resolver // negation and Kleene scopes, and emission

	watermark  event.Time
	lastPrune  event.Time
	emitBefore uint64 // when >0, emit only matches with a core Seq < emitBefore

	PMCreated  uint64
	PredEvals  uint64
	suppressed uint64
}

// NewFrame builds the frame of an engine for pat; emit receives every
// surviving match.
func NewFrame(pat *pattern.Pattern, emit func(*Match)) Frame {
	return Frame{Pat: pat, Store: NewStore(pat.NumPositions(), pat.Window), res: NewResolver(pat, emit)}
}

// Reset returns the frame to what NewFrame built, keeping its storage:
// the store and the resolver are emptied for the next plan of the same
// pattern (Store.Reset, Resolver.Reset), and the watermark, the prune
// clock, the emit filter and the counters go to zero. The engine that
// embeds the frame then compiles its next plan over it. The emit callback
// and SetOwnedEmit survive.
func (f *Frame) Reset() {
	f.Store.Reset()
	f.res.Reset()
	f.watermark, f.lastPrune, f.emitBefore = 0, 0, 0
	f.PMCreated, f.PredEvals, f.suppressed = 0, 0, 0
}

// Resolver exposes the residual resolver (for migration seeding).
func (f *Frame) Resolver() *Resolver { return f.res }

// SetOwnedEmit declares that the emit callback consumes each match
// synchronously and retains nothing past its return. The engine then
// recycles its emission structures, making the steady-state emit path
// allocation-free. Must not be combined with callbacks that buffer
// matches (e.g. the shard collector).
func (f *Frame) SetOwnedEmit(owned bool) { f.res.SetOwned(owned) }

// SetEmitOnlyBefore restricts emission to matches containing at least one
// core event with Seq < seq: the old-plan side of the paper's §2.2
// migration protocol. Zero removes the filter.
func (f *Frame) SetEmitOnlyBefore(seq uint64) { f.emitBefore = seq }

// Watermark reports the latest timestamp the engine was advanced to.
func (f *Frame) Watermark() event.Time { return f.watermark }

// Advance moves the watermark forward, resolving parked matches and
// pruning the store once the watermark is half a window past the last
// prune.
func (f *Frame) Advance(ts event.Time) {
	if ts < f.watermark {
		return
	}
	f.watermark = ts
	f.res.Advance(ts)
	if ts-f.lastPrune >= f.Pat.Window/2 {
		f.Store.Prune(ts)
		f.lastPrune = ts
	}
}

// NextPrune reports the earliest timestamp at which feeding the engine
// prunes: the first event later than the watermark and at least half a
// window past the last prune. A host that skips the engine on events it
// cannot use keeps it exactly where an engine fed every event would be by
// calling Advance on the first skipped event at or past NextPrune.
func (f *Frame) NextPrune() event.Time {
	return max(f.lastPrune+f.Pat.Window/2, f.watermark+1)
}

// Floor reports a timestamp no event the engine can still reach lies
// before: pruning runs at most half a window behind the watermark (see
// Advance) and keeps two windows — the residual scopes' reach — so
// histories, partial matches, residual buffers and parked matches all
// hold events at or after it. It moves only when the engine is fed: an
// engine nobody advances keeps what it has. The owner of the events'
// storage may reuse whatever is wholly older.
func (f *Frame) Floor() event.Time {
	return f.watermark - 2*f.Pat.Window - f.Pat.Window/2
}

// UnaryOk reports whether e passes position p's unary predicates: bit p of
// a mask that carries pattern.MaskValid, else their compiled evaluation.
func (f *Frame) UnaryOk(p int, e *event.Event, mask uint32) bool {
	if mask&pattern.MaskValid != 0 {
		return pattern.MaskOk(mask, p)
	}
	return f.Pat.UnaryOk(p, e, &f.PredEvals)
}

// WantsResidual is Resolver.Wants with the mask consulted for the unary
// predicates when present.
func (f *Frame) WantsResidual(p int, e *event.Event, mask uint32) bool {
	if mask&pattern.MaskValid != 0 {
		return f.res.Buffered(p) && pattern.MaskOk(mask, p)
	}
	return f.res.Wants(p, e)
}

// Complete hands a core-complete partial match to the resolver, which
// copies the assignment, unless the emit filter withholds it, and
// recycles the partial.
func (f *Frame) Complete(m *Partial) {
	emit := f.emitBefore == 0
	for i := 0; !emit && i < len(m.Evs); i++ {
		emit = m.Evs[i] != nil && m.Evs[i].Seq < f.emitBefore
	}
	if emit {
		f.res.OnCoreComplete(m.Evs, f.watermark)
	} else {
		f.suppressed++
	}
	f.Store.Put(m)
}

// Finish force-resolves all parked matches, treating the stream as ended.
func (f *Frame) Finish() { f.res.Flush() }

// LivePMs reports the partial matches parked in the store (the shedding
// layer's load signal).
func (f *Frame) LivePMs() int { return f.Store.Live() }

// Stats returns a snapshot of the engine's counters.
func (f *Frame) Stats() Stats {
	return Stats{
		PMCreated:  f.PMCreated,
		PredEvals:  f.PredEvals + f.res.PredEvals,
		Emitted:    f.res.Emitted,
		Dropped:    f.res.Dropped,
		Suppressed: f.suppressed,
		LivePMs:    f.Store.Live(),
		PeakPMs:    f.Store.Peak(),
		Pending:    f.res.PendingCount(),
	}
}

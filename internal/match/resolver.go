package match

import (
	"acep/internal/event"
	"acep/internal/pattern"
)

// Resolver applies the pattern's residual constraints — negated and
// Kleene-closure positions — to core-complete matches and emits the
// surviving matches.
//
// A residual position has a temporal scope derived from the core events:
// for sequences, the open interval between the neighbouring positive
// positions (bounded by the window at the pattern's edges); for
// conjunctions, the interval in which an event is within the window of
// every core event. A negated position invalidates the match if any event
// satisfying its predicates occurs in scope; a Kleene position attaches
// all such events (at least one required).
//
// Scopes can extend past the current watermark (e.g. a negated event that
// is last in the sequence). Such matches are parked and resolved when the
// watermark passes the scope end, which is what makes absence claims and
// maximal Kleene sets safe under timestamp-ordered input.
//
// Core assignments handed to OnCoreComplete are copied into pooled
// slices, and dropped matches recycle theirs; with SetOwned the emission
// path recycles too (the Match struct, its core slice and its Kleene
// sets), making steady-state resolution allocation-free.
type Resolver struct {
	pat *pattern.Pattern
	w   event.Time

	residuals []int          // residual position indices
	bufs      []*Buffer      // per pattern position; non-nil at residuals
	pending   []pendingMatch // FIFO by completion

	emit  func(*Match)
	owned bool // emit retains nothing past its return

	scratch   Match              // reused emission struct (owned mode)
	freeCores [][]*event.Event   // pooled core-assignment slices
	freeSets  [][]*event.Event   // pooled Kleene per-position sets
	freeOut   [][][]*event.Event // pooled Kleene outer arrays

	// Emitted counts matches delivered; Dropped counts core-complete
	// matches discarded by residual constraints; PredEvals counts
	// predicate evaluations performed during residual resolution.
	Emitted   uint64
	Dropped   uint64
	PredEvals uint64
}

type pendingMatch struct {
	core    []*event.Event
	readyAt event.Time
}

// NewResolver builds a resolver for the pattern. The emit callback
// receives every surviving match.
func NewResolver(pat *pattern.Pattern, emit func(*Match)) *Resolver {
	r := &Resolver{
		pat:  pat,
		w:    pat.Window,
		bufs: make([]*Buffer, pat.NumPositions()),
		emit: emit,
	}
	for i, pos := range pat.Positions {
		if pos.Neg || pos.Kleene {
			r.residuals = append(r.residuals, i)
			r.bufs[i] = &Buffer{}
		}
	}
	return r
}

// SetOwned declares that the emit callback consumes each match
// synchronously and retains neither the Match nor any slice or event
// reachable from it past its return. The resolver then reuses the
// emission Match and recycles core and Kleene storage after every emit.
func (r *Resolver) SetOwned(owned bool) { r.owned = owned }

// HasResiduals reports whether the pattern has any negated or Kleene
// positions.
func (r *Resolver) HasResiduals() bool { return len(r.residuals) > 0 }

// Observe offers an input event to the residual buffers. Events are kept
// only for residual positions whose type matches and whose unary
// predicates pass. Engines that dispatch by type and intern the events
// they keep use Wants + AddResidual instead.
func (r *Resolver) Observe(ev *event.Event) {
	for _, p := range r.residuals {
		if r.pat.Positions[p].Type != ev.Type {
			continue
		}
		if r.Wants(p, ev) {
			r.AddResidual(p, ev)
		}
	}
}

// Wants reports whether residual position p would buffer ev: p has a
// residual buffer and its unary predicates accept the event. The type is
// the caller's responsibility (engines dispatch by type). Splitting the
// test from AddResidual lets an engine intern only accepted events.
func (r *Resolver) Wants(p int, ev *event.Event) bool {
	return r.bufs[p] != nil && r.pat.UnaryOk(p, ev, &r.PredEvals)
}

// Buffered reports whether residual position p has a buffer at all — the
// structural half of Wants, for engines that already know the predicate
// verdict from a precomputed unary mask.
func (r *Resolver) Buffered(p int) bool { return r.bufs[p] != nil }

// AddResidual stores ev in residual position p's buffer. The caller has
// checked Wants and guarantees ev stays valid for the resolver's
// retention horizon (the engine's Floor covers it).
func (r *Resolver) AddResidual(p int, ev *event.Event) {
	r.bufs[p].Add(ev)
}

// scope computes the temporal scope of residual position p for the given
// core assignment. Bounds are exclusive on the sequence-neighbour side
// and inclusive on window-derived bounds; ready is the watermark at which
// the scope is guaranteed closed under timestamp-ordered input.
func (r *Resolver) scope(p int, core []*event.Event, minTS, maxTS event.Time) (lo, hi event.Time, loExcl, hiExcl bool, ready event.Time) {
	if r.pat.Op == pattern.Seq {
		lo, loExcl = maxTS-r.w, false
		hi, hiExcl = minTS+r.w, false
		for q := p - 1; q >= 0; q-- {
			if core[q] != nil {
				lo, loExcl = core[q].TS, true
				break
			}
		}
		for q := p + 1; q < len(core); q++ {
			if core[q] != nil {
				hi, hiExcl = core[q].TS, true
				break
			}
		}
	} else {
		// Conjunction: the event must lie within the window of every
		// core event.
		lo, loExcl = maxTS-r.w, false
		hi, hiExcl = minTS+r.w, false
	}
	ready = hi
	if !hiExcl {
		// Events at exactly hi may still arrive while watermark == hi.
		ready = hi + 1
	}
	return lo, hi, loExcl, hiExcl, ready
}

// newCore returns a pooled (or fresh) core-assignment slice holding a
// copy of src.
func (r *Resolver) newCore(src []*event.Event) []*event.Event {
	var cp []*event.Event
	if n := len(r.freeCores); n > 0 {
		cp = r.freeCores[n-1]
		r.freeCores[n-1] = nil
		r.freeCores = r.freeCores[:n-1]
	} else {
		cp = make([]*event.Event, len(src))
	}
	copy(cp, src)
	return cp
}

// putCore recycles a core slice obtained from newCore, cleared so an
// idle pool entry never points into a released block.
func (r *Resolver) putCore(core []*event.Event) {
	clear(core)
	r.freeCores = append(r.freeCores, core)
}

// OnCoreComplete accepts a core-complete assignment (events at every core
// position, nil elsewhere). If every residual scope is already closed at
// the watermark the match resolves immediately; otherwise it is parked.
// The assignment slice is only read during the call.
func (r *Resolver) OnCoreComplete(core []*event.Event, watermark event.Time) {
	if len(r.residuals) == 0 {
		r.Emitted++
		if r.owned {
			// The emit consumes the match synchronously, so the caller's
			// slice can back it directly — no copy, nothing retained.
			r.scratch = Match{Events: core}
			r.emit(&r.scratch)
			r.scratch = Match{}
			return
		}
		r.emit(&Match{Events: append([]*event.Event(nil), core...)})
		return
	}
	minTS, maxTS := coreSpan(core)
	readyAt := watermark
	for _, p := range r.residuals {
		_, _, _, _, ready := r.scope(p, core, minTS, maxTS)
		if ready > readyAt {
			readyAt = ready
		}
	}
	cp := r.newCore(core)
	if readyAt <= watermark {
		r.resolve(cp)
		return
	}
	r.pending = append(r.pending, pendingMatch{core: cp, readyAt: readyAt})
}

func coreSpan(core []*event.Event) (minTS, maxTS event.Time) {
	first := true
	for _, ev := range core {
		if ev == nil {
			continue
		}
		if first || ev.TS < minTS {
			minTS = ev.TS
		}
		if first || ev.TS > maxTS {
			maxTS = ev.TS
		}
		first = false
	}
	return minTS, maxTS
}

// getSet returns a pooled (or fresh) empty Kleene set.
func (r *Resolver) getSet() []*event.Event {
	if n := len(r.freeSets); n > 0 {
		s := r.freeSets[n-1]
		r.freeSets[n-1] = nil
		r.freeSets = r.freeSets[:n-1]
		return s[:0]
	}
	return nil
}

// getOuter returns a pooled (or fresh) nil-filled Kleene outer array of
// length n.
func (r *Resolver) getOuter(n int) [][]*event.Event {
	if k := len(r.freeOut); k > 0 && cap(r.freeOut[k-1]) >= n {
		o := r.freeOut[k-1][:n]
		r.freeOut[k-1] = nil
		r.freeOut = r.freeOut[:k-1]
		clear(o)
		return o
	}
	return make([][]*event.Event, n)
}

// putSet recycles one Kleene set, clearing its event pointers so a
// pooled backing array never points into a released block while it sits
// unused (beyond-len entries are nil by induction: every put clears).
func (r *Resolver) putSet(s []*event.Event) {
	clear(s)
	r.freeSets = append(r.freeSets, s)
}

// recycleKleene returns a match's Kleene storage to the pools.
func (r *Resolver) recycleKleene(kleene [][]*event.Event) {
	if kleene == nil {
		return
	}
	for i, s := range kleene {
		if s != nil {
			r.putSet(s)
			kleene[i] = nil
		}
	}
	r.freeOut = append(r.freeOut, kleene)
}

// resolve evaluates all residual constraints for a core assignment
// (always a pooled slice from newCore) and emits or drops the match.
func (r *Resolver) resolve(core []*event.Event) {
	minTS, maxTS := coreSpan(core)
	var kleene [][]*event.Event
	for _, p := range r.residuals {
		lo, hi, loExcl, hiExcl, _ := r.scope(p, core, minTS, maxTS)
		neg := r.pat.Positions[p].Neg
		var set []*event.Event
		if !neg {
			set = r.getSet()
		}
		ok := true
		r.bufs[p].Scan(lo, hi, loExcl, hiExcl, func(ev *event.Event) bool {
			if !r.residualMatches(p, ev, core) {
				return true
			}
			if neg {
				ok = false // presence of a negated event kills the match
				return false
			}
			set = append(set, ev)
			return true
		})
		if !ok || (!neg && len(set) == 0) {
			// Negated event present, or Kleene with an empty set: the
			// match dies and everything it borrowed is recycled.
			if set != nil {
				r.putSet(set)
			}
			r.recycleKleene(kleene)
			r.putCore(core)
			r.Dropped++
			return
		}
		if neg {
			continue
		}
		if kleene == nil {
			kleene = r.getOuter(len(core))
		}
		kleene[p] = set
	}
	r.Emitted++
	if r.owned {
		r.scratch = Match{Events: core, Kleene: kleene}
		r.emit(&r.scratch)
		r.scratch = Match{}
		r.recycleKleene(kleene)
		r.putCore(core)
		return
	}
	r.emit(&Match{Events: core, Kleene: kleene})
}

// residualMatches checks the binary predicates connecting residual
// position p to the core positions, using the compiled pair tables (the
// residual event is the "new" side; only the predicates apply — the
// temporal scope already encodes the order constraints).
func (r *Resolver) residualMatches(p int, ev *event.Event, core []*event.Event) bool {
	for q, qe := range core {
		if qe == nil {
			continue
		}
		preds := r.pat.Pair(p, q).Preds
		for i := range preds {
			r.PredEvals++
			if !preds[i].Ok(ev, qe) {
				return false
			}
		}
	}
	return true
}

// Advance resolves parked matches whose scopes closed at the new
// watermark and prunes the residual buffers. Call with non-decreasing
// watermarks.
func (r *Resolver) Advance(watermark event.Time) {
	if len(r.pending) > 0 {
		kept := r.pending[:0]
		for _, pm := range r.pending {
			if pm.readyAt <= watermark {
				r.resolve(pm.core)
			} else {
				kept = append(kept, pm)
			}
		}
		// Clear the tail so released cores are collectable.
		for i := len(kept); i < len(r.pending); i++ {
			r.pending[i] = pendingMatch{}
		}
		r.pending = kept
	}
	horizon := watermark - 2*r.w
	for _, p := range r.residuals {
		r.bufs[p].Prune(horizon)
	}
}

// Flush force-resolves every parked match, treating the stream as ended:
// all scopes are considered closed over the events observed so far.
func (r *Resolver) Flush() {
	for _, pm := range r.pending {
		r.resolve(pm.core)
	}
	r.pending = r.pending[:0]
}

// PendingCount reports the number of parked matches.
func (r *Resolver) PendingCount() int { return len(r.pending) }

// Reset empties the resolver for the next plan of its pattern: parked
// matches are dropped into the pools unresolved, the residual buffers
// emptied and the counters zeroed. Its pools and buffer arrays stay, and
// so do the emit callback and SetOwned. A retired engine has already
// resolved every match it could still deliver (its last Advance passed
// their scopes), and its host has read its counters.
func (r *Resolver) Reset() {
	for i := range r.pending {
		r.putCore(r.pending[i].core)
		r.pending[i] = pendingMatch{}
	}
	r.pending = r.pending[:0]
	for _, p := range r.residuals {
		r.bufs[p].reset()
	}
	r.Emitted, r.Dropped, r.PredEvals = 0, 0, 0
}

// SeedFrom copies the residual buffers of another resolver (same
// pattern). Plan migration uses this so a freshly deployed plan can still
// veto matches with pre-migration negated events and build complete
// Kleene sets. Only pointers are copied: both resolvers' engines point
// into the one copy of each event their owner holds, which stays in
// place until the floor of both has passed it.
func (r *Resolver) SeedFrom(src *Resolver) {
	for _, p := range r.residuals {
		if src.bufs[p] != nil {
			src.bufs[p].CopyInto(r.bufs[p])
		}
	}
}

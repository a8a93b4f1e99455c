package match

import "acep/internal/event"

// A Keeper's slab sizes, in elements, and its sharing table's.
const keptEvents, keptAttrs, keptPtrs, keptSets, keptMatches, keptSeen = 256, 1024, 1024, 256, 128, 256

// Keeper is the one way a match leaves reusable storage for a consumer
// that may keep it: copied out of an owner's blocks (Keep) or decoded off
// the wire (Match, Table, Set, Kept, Alloc) into slabs — events,
// attribute values, pointer slices, Kleene tables, Match structs — that
// are never reused or grown: a full slab is replaced by a new one.
//
// Within one step — the matches one processed event emits, or the decoded
// records that share one tag — each source event is copied once, shared
// by every match holding it: delivered events are read-only. A replaced
// slab starts a new step, so a kept match lies in one slab of each kind,
// the most it can pin. One goroutine at a time uses a keeper; what it
// handed out may be read on any.
type Keeper struct {
	evs   []event.Event
	attrs []float64
	ptrs  []*event.Event
	sets  [][]*event.Event
	ms    []Match
	// seen is the step's sharing table, indexed by the source's Seq and
	// valid where gen is the keeper's, so a step empties it by bumping gen.
	seen [keptSeen]struct {
		gen       uint64
		src, kept *event.Event
	}
	gen uint64
	tag uint64 // the decode side's step (StepTo)
}

// Step starts a new step. An owner steps once per processed event: the
// source pointers Keep shares on cannot be recycled within one.
func (k *Keeper) Step() { k.gen++ }

// StepTo starts a new step unless tag is the current one: the decode
// side's step is the run of records that share one tag Seq.
func (k *Keeper) StepTo(tag uint64) {
	if tag != k.tag {
		k.tag = tag
		k.Step()
	}
}

// Keep returns a copy of m in the keeper's slabs, sharing this step's
// copies of the same source pointers (a stream may leave Seq at 0).
func (k *Keeper) Keep(m *Match) *Match {
	evs, attrs, ptrs := 0, 0, len(m.Events)
	count := func(set []*event.Event) {
		for _, ev := range set {
			if ev != nil {
				evs, attrs = evs+1, attrs+len(ev.Attrs)
			}
		}
	}
	count(m.Events)
	for _, set := range m.Kleene {
		count(set)
		ptrs += len(set)
	}
	c := k.Match(len(m.Events), evs, attrs, ptrs)
	k.intern(c.Events, m.Events)
	if len(m.Kleene) > 0 {
		c.Kleene = k.Table(len(m.Kleene))
		for p, set := range m.Kleene {
			if set != nil {
				c.Kleene[p] = k.Set(len(set))
				k.intern(c.Kleene[p], set)
			}
		}
	}
	return c
}

// intern fills dst with this step's copies of src's events.
func (k *Keeper) intern(dst, src []*event.Event) {
	for i, ev := range src {
		if ev == nil {
			continue
		}
		if e := &k.seen[ev.Seq%keptSeen]; e.gen == k.gen && e.src == ev {
			dst[i] = e.kept
			continue
		}
		dst[i] = k.Alloc(ev.Type, ev.TS, ev.Seq, len(ev.Attrs))
		copy(dst[i].Attrs, ev.Attrs)
		k.seen[ev.Seq%keptSeen].src = ev
	}
}

// Match returns a new match with this many positions, all nil, having
// made room for at most this many events, attribute values and pointers
// (Events and Kleene members) to fill it with: a slab that lacks it is
// replaced, and the step with it.
func (k *Keeper) Match(positions, events, attrs, ptrs int) *Match {
	if room(k.evs) < events || room(k.attrs) < attrs || room(k.ptrs) < ptrs {
		renew(&k.evs, events, keptEvents)
		renew(&k.attrs, attrs, keptAttrs)
		renew(&k.ptrs, ptrs, keptPtrs)
		k.Step()
	}
	m := &carve(&k.ms, 1, keptMatches)[0]
	if positions > 0 {
		m.Events = k.Set(positions)
	}
	return m
}

// Table returns a Kleene table of n sets, all nil.
func (k *Keeper) Table(n int) [][]*event.Event { return carve(&k.sets, n, keptSets) }

// Set returns n pointer slots, all nil. An empty set is empty, not nil.
func (k *Keeper) Set(n int) []*event.Event {
	if n == 0 {
		return []*event.Event{}
	}
	return carve(&k.ptrs, n, keptPtrs)
}

// Kept returns this step's copy of an event decoded with sequence number
// seq, nil if none; the caller compares the rest.
func (k *Keeper) Kept(seq uint64) *event.Event {
	if e := &k.seen[seq%keptSeen]; e.gen == k.gen && e.kept != nil && e.kept.Seq == seq {
		return e.kept
	}
	return nil
}

// Alloc stores an event for the caller to fill the attribute values of,
// as this step's copy of seq.
func (k *Keeper) Alloc(typ int, ts event.Time, seq uint64, nattrs int) *event.Event {
	ev := &carve(&k.evs, 1, keptEvents)[0]
	*ev = event.Event{Type: typ, TS: ts, Seq: seq, Attrs: carve(&k.attrs, nattrs, keptAttrs)}
	e := &k.seen[seq%keptSeen]
	e.gen, e.src, e.kept = k.gen, nil, ev
	return ev
}

func room[T any](s []T) int { return cap(s) - len(s) }

// renew replaces a slab without room for n more by a new one.
func renew[T any](s *[]T, n, size int) {
	if room(*s) < n {
		*s = make([]T, 0, max(n, size))
	}
}

// carve hands out the slab's next n elements.
func carve[T any](s *[]T, n, size int) []T {
	renew(s, n, size)
	l := len(*s)
	*s = (*s)[:l+n]
	return (*s)[l : l+n : l+n]
}

package match

import (
	"math"

	"acep/internal/event"
)

// A Keeper's slab sizes, in elements, and its sharing table's.
const keptEvents, keptAttrs, keptPtrs, keptSets, keptMatches, keptSeen = 256, 1024, 1024, 256, 128, 1024

// Keeper is the one way a match leaves reusable storage for a consumer
// that may keep it: copied out of an owner's blocks (Keep) or decoded off
// the wire (Match, Table, Set, Kept, Alloc) into slabs — events,
// attribute values, pointer slices, Kleene tables, Match structs — that
// are never reused or grown: a full slab is replaced by a new one.
//
// One sharing rule holds on both sides: while the event slab holding a
// copy is current, the copy is shared by every match holding an event of
// equal bits — Seq, type, timestamp and attribute bits — since delivered
// events are read-only. Replacing the event or the attribute slab empties
// the sharing table, so a kept match lies in one slab of each kind, the
// most it can pin. One goroutine at a time uses a keeper; what it handed
// out may be read on any.
type Keeper struct {
	evs   []event.Event
	attrs []float64
	ptrs  []*event.Event
	sets  [][]*event.Event
	ms    []Match
	// seen is the sharing table, indexed by Seq and valid where gen is
	// the keeper's, so replacing a slab empties it by bumping gen.
	seen [keptSeen]struct {
		gen  uint64
		kept *event.Event
	}
	gen uint64
}

// Keep returns a copy of m in the keeper's slabs, sharing the copies the
// current slab holds of events with equal bits.
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

// intern fills dst with the current slab's copies of src's events.
func (k *Keeper) intern(dst, src []*event.Event) {
	for i, ev := range src {
		if ev == nil {
			continue
		}
		if c := k.Kept(ev.Seq); c != nil && c.Type == ev.Type && c.TS == ev.TS && sameBits(c.Attrs, ev.Attrs) {
			dst[i] = c
			continue
		}
		dst[i] = k.Alloc(ev.Type, ev.TS, ev.Seq, len(ev.Attrs))
		copy(dst[i].Attrs, ev.Attrs)
	}
}

// sameBits reports whether a and b hold the same attribute bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Match returns a new match with this many positions, all nil, having
// made room for at most this many events, attribute values and pointers
// (Events and Kleene members) to fill it with: a slab that lacks it is
// replaced.
func (k *Keeper) Match(positions, events, attrs, ptrs int) *Match {
	k.reserve(events, attrs)
	renew(&k.ptrs, ptrs, keptPtrs)
	m := &carve(&k.ms, 1, keptMatches)[0]
	if positions > 0 {
		m.Events = k.Set(positions)
	}
	return m
}

// reserve makes room for this many events and attribute values. Replacing
// either slab empties the sharing table: a match shares only copies in
// the slabs its own copies go to.
func (k *Keeper) reserve(events, attrs int) {
	ev, at := renew(&k.evs, events, keptEvents), renew(&k.attrs, attrs, keptAttrs)
	if ev || at {
		k.gen++
	}
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

// Kept returns the current slab's last copy of an event with sequence
// number seq, nil if none. The caller shares it only if the type, the
// timestamp and the attribute bits are equal too.
func (k *Keeper) Kept(seq uint64) *event.Event {
	if e := &k.seen[seq%keptSeen]; e.gen == k.gen && e.kept != nil && e.kept.Seq == seq {
		return e.kept
	}
	return nil
}

// Alloc stores an event for the caller to fill the attribute values of,
// as the current slab's copy of seq.
func (k *Keeper) Alloc(typ int, ts event.Time, seq uint64, nattrs int) *event.Event {
	k.reserve(1, nattrs)
	ev := &carve(&k.evs, 1, keptEvents)[0]
	*ev = event.Event{Type: typ, TS: ts, Seq: seq, Attrs: carve(&k.attrs, nattrs, keptAttrs)}
	e := &k.seen[seq%keptSeen]
	e.gen, e.kept = k.gen, ev
	return ev
}

func room[T any](s []T) int { return cap(s) - len(s) }

// renew replaces a slab without room for n more by a new one, and
// reports whether it did.
func renew[T any](s *[]T, n, size int) bool {
	if room(*s) < n {
		*s = make([]T, 0, max(n, size))
		return true
	}
	return false
}

// carve hands out the slab's next n elements.
func carve[T any](s *[]T, n, size int) []T {
	renew(s, n, size)
	l := len(*s)
	*s = (*s)[:l+n]
	return (*s)[l : l+n : l+n]
}

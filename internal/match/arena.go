package match

import "acep/internal/event"

// arenaChunkEvents is the number of events per arena chunk; attribute
// storage is provisioned at arenaAttrsPerEvent values per slot and a
// chunk seals early if a fat event would overflow it.
const (
	arenaChunkEvents   = 256
	arenaAttrsPerEvent = 8
)

// chunk is one arena block: a fixed-capacity event array plus a flat
// attribute buffer its events' Attrs slices point into. The backing
// arrays never reallocate (interning stops at capacity), so pointers
// into a chunk stay valid for the chunk's whole lifetime.
type chunk struct {
	evs   []event.Event
	attrs []float64
	maxTS event.Time
}

// Arena is chunked copy-in storage for the events an engine retains:
// buffers and partial matches hold pointers into arena chunks instead of
// individually GC-tracked caller objects, and expiry releases whole
// chunks at once instead of dropping events one by one.
//
// Input is timestamp-ordered, so chunks are too: a chunk whose maxTS has
// left the retention horizon can contain no referenced event (every
// holder prunes at or before the same horizon) and is released wholesale
// — returned to a free list when recycling is on (see SetRecycle), or
// dropped for the GC to collect as three objects per 256 events.
type Arena struct {
	chunks  []*chunk
	free    []*chunk
	recycle bool
}

// SetRecycle toggles chunk recycling. Recycling overwrites released
// chunks, so it is only safe while no pointer into the arena escapes the
// engine — the owned-emit contract. Turning it off (the default, and
// forced on migration: see Freeze) drops released chunks to the GC
// instead.
func (a *Arena) SetRecycle(on bool) {
	a.recycle = on
	if !on {
		a.free = nil
	}
}

// Freeze permanently disables recycling and empties the free list:
// existing chunks may now be referenced from outside the engine
// (migration seeds the successor's residual buffers with arena
// pointers), so they must die by GC, never by reuse.
func (a *Arena) Freeze() { a.SetRecycle(false) }

// Intern copies ev into the arena and returns the arena copy, including
// its attribute values. The caller's event is not retained and may be
// reused immediately.
func (a *Arena) Intern(ev *event.Event) *event.Event {
	var c *chunk
	if n := len(a.chunks); n > 0 {
		c = a.chunks[n-1]
	}
	if c == nil || len(c.evs) == cap(c.evs) || len(c.attrs)+len(ev.Attrs) > cap(c.attrs) {
		c = a.grow(len(ev.Attrs))
	}
	ai := len(c.attrs)
	c.attrs = append(c.attrs, ev.Attrs...)
	c.evs = append(c.evs, *ev)
	ne := &c.evs[len(c.evs)-1]
	ne.Attrs = c.attrs[ai:len(c.attrs):len(c.attrs)]
	if ev.TS > c.maxTS {
		c.maxTS = ev.TS
	}
	return ne
}

// Alloc reserves the next arena slot in place and returns it: the event
// is initialized with the given type, timestamp, and sequence number, and
// its Attrs slice is pre-sized to nattrs values backed by the chunk's
// flat attribute buffer, for the caller to fill directly (batch decoders
// write decoded values straight into the returned slice — the event is
// materialized exactly once). Sealing follows Intern: a chunk closes when
// its event array fills or nattrs would overflow its attribute buffer.
func (a *Arena) Alloc(typ int, ts event.Time, seq uint64, nattrs int) *event.Event {
	var c *chunk
	if n := len(a.chunks); n > 0 {
		c = a.chunks[n-1]
	}
	if c == nil || len(c.evs) == cap(c.evs) || len(c.attrs)+nattrs > cap(c.attrs) {
		c = a.grow(nattrs)
	}
	ai := len(c.attrs)
	c.attrs = c.attrs[:ai+nattrs]
	c.evs = append(c.evs, event.Event{Type: typ, TS: ts, Seq: seq})
	ne := &c.evs[len(c.evs)-1]
	ne.Attrs = c.attrs[ai : ai+nattrs : ai+nattrs]
	if ts > c.maxTS {
		c.maxTS = ts
	}
	return ne
}

// grow appends a fresh (or recycled) chunk with room for at least one
// event carrying attrs attribute values.
func (a *Arena) grow(attrs int) *chunk {
	attrCap := arenaChunkEvents * arenaAttrsPerEvent
	if attrs > attrCap {
		attrCap = attrs
	}
	var c *chunk
	if n := len(a.free); n > 0 && cap(a.free[n-1].attrs) >= attrCap {
		c = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		c.evs = c.evs[:0]
		c.attrs = c.attrs[:0]
		c.maxTS = 0
	} else {
		c = &chunk{
			evs:   make([]event.Event, 0, arenaChunkEvents),
			attrs: make([]float64, 0, attrCap),
		}
	}
	a.chunks = append(a.chunks, c)
	return c
}

// Release frees every chunk whose events all precede the horizon
// (maxTS < horizon). Call only when every holder of arena pointers —
// buffers, partial matches, the resolver — has already pruned to at
// least the same horizon.
func (a *Arena) Release(horizon event.Time) {
	n := 0
	for _, c := range a.chunks {
		if c.maxTS < horizon {
			if a.recycle {
				a.free = append(a.free, c)
			}
			continue
		}
		a.chunks[n] = c
		n++
	}
	for i := n; i < len(a.chunks); i++ {
		a.chunks[i] = nil
	}
	a.chunks = a.chunks[:n]
}

// Live reports the number of live chunks (for tests).
func (a *Arena) Live() int { return len(a.chunks) }

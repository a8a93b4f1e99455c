// Package match provides the evaluation machinery shared by both engine
// models: timestamp-ordered event buffers, partial-match bookkeeping, and
// the residual resolver that applies negation and Kleene-closure
// constraints at match emission with watermark-driven delays.
package match

import (
	"sort"

	"acep/internal/event"
)

// Buffer holds the recent events of one pattern position in timestamp
// order. Engines append arriving events (already filtered through the
// position's unary predicates) and scan timestamp ranges during partial-
// match extension; Prune drops events that have left the retention
// horizon.
type Buffer struct {
	evs   []*event.Event
	start int // index of the first live element
}

// Add appends an event. Timestamps must be non-decreasing (the stream
// layer enforces global timestamp order).
func (b *Buffer) Add(ev *event.Event) {
	b.evs = append(b.evs, ev)
}

// Len reports the number of live events.
func (b *Buffer) Len() int { return len(b.evs) - b.start }

// Prune drops all events with TS < horizon by advancing the live-prefix
// index; the dead prefix is released in bulk when compaction runs (the
// events themselves by their owner, a block at a time), never by a
// per-element nil-out walk. Compaction runs once the dead prefix is at
// least as long as the live rest, so a buffer never pins more dead events
// than it holds live ones — which matters when there is one small buffer
// per join key rather than one large one per position — and a buffer
// pruned empty holds no pointer at all.
func (b *Buffer) Prune(horizon event.Time) {
	for b.start < len(b.evs) && b.evs[b.start].TS < horizon {
		b.start++
	}
	if b.start > 0 && b.start*2 >= len(b.evs) {
		n := copy(b.evs, b.evs[b.start:])
		clear(b.evs[n:]) // release the tail for GC in one shot
		b.evs = b.evs[:n]
		b.start = 0
	}
}

// reset empties the buffer, keeping its capacity and no event pointer.
func (b *Buffer) reset() {
	clear(b.evs)
	b.evs, b.start = b.evs[:0], 0
}

// Scan visits live events with lo <= TS <= hi in timestamp order; when
// loExcl/hiExcl are set the corresponding bound is strict. The visit
// function returns false to stop early. Scan returns false if stopped.
func (b *Buffer) Scan(lo, hi event.Time, loExcl, hiExcl bool, visit func(*event.Event) bool) bool {
	live := b.evs[b.start:]
	// Binary search for the first event inside the lower bound.
	i := sort.Search(len(live), func(i int) bool {
		if loExcl {
			return live[i].TS > lo
		}
		return live[i].TS >= lo
	})
	for ; i < len(live); i++ {
		ts := live[i].TS
		if hiExcl {
			if ts >= hi {
				return true
			}
		} else if ts > hi {
			return true
		}
		if !visit(live[i]) {
			return false
		}
	}
	return true
}

// All visits every live event in timestamp order.
func (b *Buffer) All(visit func(*event.Event) bool) bool {
	for _, ev := range b.evs[b.start:] {
		if !visit(ev) {
			return false
		}
	}
	return true
}

// CopyInto appends all live events into dst (used to seed the residual
// buffers of a freshly deployed plan during migration).
func (b *Buffer) CopyInto(dst *Buffer) {
	dst.evs = append(dst.evs, b.evs[b.start:]...)
}

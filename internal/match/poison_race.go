//go:build race

package match

import (
	"math"

	"acep/internal/event"
)

// poison overwrites a block that is going back to its pool with values
// no stream carries — a timestamp before every window, a sequence number
// past every watermark, a type no pattern dispatches on, NaN attributes —
// so that under the race detector a pointer that outlived the block's
// owner fails a byte-identity suite (or panics in type dispatch) instead
// of quietly reading the next cut's events.
func poison(b *Block) {
	for i := range b.evs {
		b.evs[i] = event.Event{Type: -1, TS: math.MinInt64, Seq: ^uint64(0), Attrs: b.evs[i].Attrs}
	}
	for i := range b.attrs {
		b.attrs[i] = math.NaN()
	}
}

// PoisonBytes overwrites a buffer of encoded matches on its way back to
// its owner — a worker's outbox slab, an ingress reader's Matches frame —
// with bytes no match body contains, an endless varint, so that under the
// race detector an Enc slice that outlived its release fails the reader's
// check or a byte-identity suite instead of quietly reading the next
// frame's matches.
func PoisonBytes(b []byte) {
	for i := range b {
		b[i] = 0xff
	}
}

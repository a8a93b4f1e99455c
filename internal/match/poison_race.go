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

//go:build race

package match

import (
	"math"
	"testing"
)

// TestReturnedBlockIsPoisoned: under the race detector a pointer that
// outlives its block's return reads values no stream carries, from the
// moment of the return.
func TestReturnedBlockIsPoisoned(t *testing.T) {
	evs := blockEvents(8)
	p := NewPool(0)
	b := p.Get()
	for i := range evs {
		b.Intern(&evs[i])
	}
	stale := b.At(3)
	p.Put(b)
	if stale.Type != -1 || stale.TS != math.MinInt64 || stale.Seq != ^uint64(0) {
		t.Fatalf("stale event reads %+v after its block was returned", *stale)
	}
	for _, v := range stale.Attrs {
		if v == v {
			t.Fatalf("stale attribute reads %v, want NaN", v)
		}
	}
}

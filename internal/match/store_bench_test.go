package match

import (
	"fmt"
	"testing"

	"acep/internal/event"
)

// placeLoad drives one indexed place the way an NFA state sees a keyed
// stream: each tick an event of key tick%keys is offered, a partial
// holding an event of the same key parks, and every half window the store
// prunes. The events come from a ring longer than the store's retention
// (two windows, plus the half window a prune may lag), so none is
// rewritten while the place can still reach it.
type placeLoad struct {
	st   *Store
	pl   *Place
	ring []event.Event
	keys int
	tick int
}

func newPlaceLoad(tb testing.TB, keys int, history bool) *placeLoad {
	s, st, pl := eqPlace(tb, 0, history)
	ring := make([]event.Event, 8*int(st.window))
	for i := range ring {
		ring[i] = *ev(s, i%2, 0, 0)
	}
	return &placeLoad{st: st, pl: pl, ring: ring, keys: keys}
}

func (l *placeLoad) run(ticks int) {
	for ; ticks > 0; ticks-- {
		l.tick++
		now := event.Time(l.tick)
		k := float64(l.tick % l.keys)
		a, b := &l.ring[2*l.tick%len(l.ring)], &l.ring[(2*l.tick+1)%len(l.ring)]
		a.TS, a.Attrs[0] = now, k
		b.TS, b.Attrs[0] = now, k
		l.pl.Offer(b, now)
		m := l.st.Get()
		m.Evs[0] = a
		m.MinTS, m.MaxTS = now, now
		l.pl.Park(m)
		if l.tick%int(l.st.window/2) == 0 {
			l.st.Prune(now)
		}
	}
}

var placeLoads = []struct {
	keys    int
	history bool
}{{8, false}, {8, true}, {4096, false}, {4096, true}}

// BenchmarkPlace is Offer, Park and the share of Prune per event on an
// indexed place, on a state without history and on one that keeps it.
func BenchmarkPlace(b *testing.B) {
	for _, c := range placeLoads {
		b.Run(fmt.Sprintf("keys=%d/history=%v", c.keys, c.history), func(b *testing.B) {
			l := newPlaceLoad(b, c.keys, c.history)
			l.run(4 * c.keys)
			b.ReportAllocs()
			b.ResetTimer()
			l.run(b.N)
		})
	}
}

// TestPlaceAllocs: once warm, BenchmarkPlace's loads allocate nothing —
// partials, buckets and history buffers all come back through the store.
func TestPlaceAllocs(t *testing.T) {
	for _, c := range placeLoads {
		l := newPlaceLoad(t, c.keys, c.history)
		l.run(4*c.keys + 1000)
		if allocs := testing.AllocsPerRun(10, func() { l.run(1000) }); allocs != 0 {
			t.Fatalf("keys %d history %v: %.2f allocations per 1000 events, want 0", c.keys, c.history, allocs)
		}
	}
}

package match

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"acep/internal/event"
)

// sameEvent reports whether got reads what want holds, attribute bits
// included.
func sameEvent(got, want *event.Event) bool {
	if got.Type != want.Type || got.TS != want.TS || got.Seq != want.Seq || len(got.Attrs) != len(want.Attrs) {
		return false
	}
	for i, v := range want.Attrs {
		if math.Float64bits(got.Attrs[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// TestKeeperCopies: a kept match shares no storage with the match it was
// made from — rewriting every source event leaves it reading the old
// values — and keeps the shape: nil core entries, nil and empty Kleene
// sets, no Kleene table where the source has none.
func TestKeeperCopies(t *testing.T) {
	evs := blockEvents(8)
	var b Block
	for i := range evs {
		b.Intern(&evs[i])
	}
	m := &Match{
		Events: []*event.Event{b.At(0), nil, b.At(3), nil},
		Kleene: [][]*event.Event{nil, {b.At(1), b.At(2), b.At(7)}, nil, {}},
	}
	var k Keeper
	c := k.Keep(m)
	b.Reset()
	for i := range evs {
		b.Alloc(-1, -1, 0, len(evs[i].Attrs)) // same slots, other values
	}
	same := func(got *event.Event, want *event.Event) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && !sameEvent(got, want) {
			t.Fatalf("kept match has %v where its source had %v", got, want)
		}
	}
	if len(c.Events) != 4 || len(c.Kleene) != 4 || c.Kleene[0] != nil || len(c.Kleene[1]) != 3 || c.Kleene[2] != nil ||
		c.Kleene[3] == nil || len(c.Kleene[3]) != 0 {
		t.Fatalf("kept match has another shape than its source: %v / %v", c.Events, c.Kleene)
	}
	same(c.Events[0], &evs[0])
	same(c.Events[1], nil)
	same(c.Events[2], &evs[3])
	for i, src := range []int{1, 2, 7} {
		same(c.Kleene[1][i], &evs[src])
	}
	if plain := k.Keep(&Match{Events: []*event.Event{&evs[5]}}); plain.Kleene != nil {
		t.Fatalf("kept match without Kleene sets grew some: %v", plain.Kleene)
	}
	if empty := k.Keep(&Match{}); empty.Events != nil || empty.Kleene != nil {
		t.Fatalf("kept match without positions grew some: %v / %v", empty.Events, empty.Kleene)
	}
}

// TestKeeperSharesForSlabLife: while its event slab lasts, a keeper points
// every match holding an event of equal bits — Seq, type, timestamp and
// attribute bits — at one copy, at core positions and in Kleene sets
// alike, however many events were processed in between. The key is the
// bits, not the source: an event that a recycled source address holds,
// Seq 0 included, gets a copy of its own, and an equal-bits twin at
// another address shares. A replaced event or attribute slab copies
// afresh.
func TestKeeperSharesForSlabLife(t *testing.T) {
	evs := blockEvents(8)
	var b Block
	for i := range evs {
		b.Intern(&evs[i])
	}
	m1 := &Match{Events: []*event.Event{b.At(0), nil, b.At(4)}, Kleene: [][]*event.Event{nil, {b.At(1), b.At(2)}, nil}}
	m2 := &Match{Events: []*event.Event{b.At(1), nil, b.At(4)}, Kleene: [][]*event.Event{nil, {b.At(2), b.At(3)}, nil}}

	var k Keeper
	c1 := k.Keep(m1)
	for i := 5; i < 8; i++ { // other events kept in between
		k.Keep(&Match{Events: []*event.Event{b.At(i)}})
	}
	c2 := k.Keep(m2)
	for _, p := range [][2]*event.Event{
		{c1.Events[2], c2.Events[2]},       // core and core
		{c1.Kleene[1][1], c2.Kleene[1][0]}, // set and set
		{c1.Kleene[1][0], c2.Events[0]},    // set and core
	} {
		if p[0] != p[1] {
			t.Fatalf("one slab kept two copies of one event: %v and %v", *p[0], *p[1])
		}
	}
	if c1.Events[2] == b.At(4) || !sameEvent(c1.Events[2], &evs[4]) {
		t.Fatalf("the shared copy is %v, want a copy of %v", *c1.Events[2], evs[4])
	}

	twin := evs[4]
	twin.Attrs = slices.Clone(evs[4].Attrs)
	if c := k.Keep(&Match{Events: []*event.Event{&twin}}); c.Events[0] != c1.Events[2] {
		t.Fatalf("an equal-bits twin reads its own copy %v, want the slab's", *c.Events[0])
	}

	p := NewPool(0)
	src := p.Get()
	at := src.Intern(&event.Event{Type: 1, TS: 5, Attrs: []float64{1}})
	first := k.Keep(&Match{Events: []*event.Event{at}}).Events[0]
	for _, refill := range []event.Event{
		{Type: 1, TS: 5, Attrs: []float64{2}}, // other attribute bits
		{Type: 2, TS: 5, Attrs: []float64{1}}, // another type
		{Type: 1, TS: 6, Attrs: []float64{1}}, // another timestamp
	} {
		p.Put(src)
		if src = p.Get(); src.Intern(&refill) != at {
			t.Fatal("the pool refilled another address: the test no longer recycles one")
		}
		c := k.Keep(&Match{Events: []*event.Event{at}}).Events[0]
		if c == first || !sameEvent(c, &refill) {
			t.Fatalf("a recycled address holding %v reads %v", refill, *c)
		}
	}

	k.Match(0, keptEvents, 0, 0) // more events than the slab has room for
	if c := k.Keep(m1); c.Events[2] == c1.Events[2] || !sameEvent(c.Events[2], &evs[4]) {
		t.Fatal("a new event slab shares the last slab's copy")
	}
	c3 := k.Keep(m1)
	k.Match(0, 0, keptAttrs, 0) // more attribute values than the slab has room for
	if c := k.Keep(m1); c.Events[2] == c3.Events[2] || !sameEvent(c.Events[2], &evs[4]) {
		t.Fatal("a new attribute slab shares the last slab's copy")
	}
}

// TestKeeperPinsOneSlab keeps overlapping matches — each sharing two of
// its three events with the one before — across many slabs: every kept
// match's events lie in one event slab and their values in one attribute
// slab, the current ones, so sharing pins no more than copying would.
func TestKeeperPinsOneSlab(t *testing.T) {
	all := blockEvents(3000)
	var b Block
	for i := range all {
		b.Intern(&all[i])
	}
	lies := func(ev *event.Event, k *Keeper) bool {
		return inSlab(ev, k.evs) && (len(ev.Attrs) == 0 || inSlab(&ev.Attrs[0], k.attrs))
	}
	var k Keeper
	evSlabs, attrSlabs := map[*event.Event]bool{}, map[*float64]bool{}
	for i := 0; i+2 < len(all); i++ {
		c := k.Keep(&Match{Events: []*event.Event{b.At(i), nil}, Kleene: [][]*event.Event{nil, {b.At(i + 1), b.At(i + 2)}}})
		for _, ev := range []*event.Event{c.Events[0], c.Kleene[1][0], c.Kleene[1][1]} {
			if !lies(ev, &k) {
				t.Fatalf("kept match %d holds %v outside the keeper's current slabs", i, *ev)
			}
		}
		evSlabs[&k.evs[0]], attrSlabs[&k.attrs[0]] = true, true
	}
	if len(evSlabs) < 10 || len(attrSlabs) < 3 {
		t.Fatalf("%d event and %d attribute slabs: the stream no longer crosses slabs", len(evSlabs), len(attrSlabs))
	}
}

// inSlab reports whether p points at an element of slab.
func inSlab[T any](p *T, slab []T) bool {
	for i := range slab {
		if &slab[i] == p {
			return true
		}
	}
	return false
}

// TestKeeperOutlivesSource keeps matches across many blocks that go back
// to their pool once kept from — poisoned on the way under the race
// detector — and across many of the keeper's own slabs: every kept match
// must read its source events' values at the end.
func TestKeeperOutlivesSource(t *testing.T) {
	const rounds, perBlock = 40, 64
	all := blockEvents(rounds * perBlock)
	p := NewPool(0)
	var k Keeper
	type want struct {
		m   *Match
		src [3]int
	}
	var kept []want
	for r := 0; r < rounds; r++ {
		b := p.Get()
		base := r * perBlock
		for i := base; i < base+perBlock; i++ {
			b.Intern(&all[i])
		}
		for i := 0; i+2 < perBlock; i++ {
			m := &Match{Events: []*event.Event{b.At(i), nil}, Kleene: [][]*event.Event{nil, {b.At(i + 1), b.At(i + 2)}}}
			kept = append(kept, want{k.Keep(m), [3]int{base + i, base + i + 1, base + i + 2}})
		}
		p.Put(b)
	}
	copies := map[*event.Event]bool{}
	for j, w := range kept {
		got := []*event.Event{w.m.Events[0], w.m.Kleene[1][0], w.m.Kleene[1][1]}
		for i, g := range got {
			copies[g] = true
			if !sameEvent(g, &all[w.src[i]]) {
				t.Fatalf("kept match %d reads %v at %d, want %v", j, *g, i, all[w.src[i]])
			}
		}
		if w.m.Events[1] != nil || w.m.Kleene[0] != nil {
			t.Fatalf("kept match %d grew entries: %v / %v", j, w.m.Events, w.m.Kleene)
		}
	}
	if len(copies) < 10*keptEvents {
		t.Fatalf("%d copies fill fewer than ten slabs", len(copies))
	}
}

// TestKeeperAllocs: a keeper allocates per slab, not per match.
// Unshared, every kept match holds three events of new Seq, so each event
// and attribute value is copied: a three-event match costs a few
// hundredths of an object. Shared, one match kept over and over copies its
// events once a slab, leaving match headers and pointers: about one
// hundredth.
func TestKeeperAllocs(t *testing.T) {
	evs := blockEvents(4)[1:] // one, two and three attribute values
	var b Block
	for i := range evs {
		b.Intern(&evs[i])
	}
	m := &Match{Events: []*event.Event{b.At(0), b.At(1), b.At(2)}}
	for _, tc := range []struct {
		shared bool
		want   float64
	}{{false, 0.04}, {true, 0.015}} {
		var k Keeper
		const n = 1000
		var c *Match
		seq := uint64(0)
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < n; i++ {
				if !tc.shared {
					for _, ev := range m.Events {
						seq++
						ev.Seq = seq
					}
				}
				c = k.Keep(m)
			}
		})
		if per := avg / n; per > tc.want {
			t.Errorf("a kept three-event match (shared %v) allocated %.3f objects, want at most %.3f", tc.shared, per, tc.want)
		}
		if !reflect.DeepEqual(c.Events[2].Attrs, evs[2].Attrs) || c.Events[2].Seq != m.Events[2].Seq {
			t.Fatalf("kept match reads %v, want %v", *c.Events[2], *m.Events[2])
		}
	}
}

// BenchmarkKeep keeps the three-event matches of a keyed stream: each
// tick an event of key tick%keys arrives and completes a match with the
// two events of its key before it, so every event lies in three matches
// kept keys ticks apart. The events come from a ring that recycles each
// slot once its event has left every match. It reports what a kept match
// costs in bytes and in event copies: one copy a match where a slab's
// life spans the matches that share an event.
func BenchmarkKeep(b *testing.B) {
	for _, keys := range []int{8, 64} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			ring := make([]event.Event, 3*keys)
			for i := range ring {
				ring[i].Attrs = make([]float64, 2)
			}
			var k Keeper
			m := &Match{Events: make([]*event.Event, 3)}
			tick, copies := 0, 0
			keep := func(n int) {
				for end := tick + n; tick < end; tick++ {
					ev := &ring[tick%len(ring)]
					ev.TS, ev.Seq = event.Time(tick), uint64(tick)
					ev.Attrs[0], ev.Attrs[1] = float64(tick%keys), float64(tick)
					if tick < 2*keys {
						continue
					}
					for p := range m.Events {
						m.Events[p] = &ring[(tick-(2-p)*keys)%len(ring)]
					}
					before := len(k.evs)
					k.Keep(m)
					if n := len(k.evs); n >= before {
						copies += n - before
					} else {
						copies += n // a new slab
					}
				}
			}
			keep(2 * keys)
			b.ReportAllocs()
			b.ResetTimer()
			keep(b.N)
			b.ReportMetric(float64(copies)/float64(b.N), "copies/match")
		})
	}
}

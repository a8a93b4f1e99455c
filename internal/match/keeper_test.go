package match

import (
	"math"
	"reflect"
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

// TestKeeperSharesWithinStep: the matches kept in one step point at one
// copy of each source event — at core positions and in Kleene sets alike —
// and a new step copies afresh. The key is the source pointer: another
// event with the same Seq gets a copy of its own.
func TestKeeperSharesWithinStep(t *testing.T) {
	evs := blockEvents(8)
	var b Block
	for i := range evs {
		b.Intern(&evs[i])
	}
	m1 := &Match{Events: []*event.Event{b.At(0), nil, b.At(4)}, Kleene: [][]*event.Event{nil, {b.At(1), b.At(2)}, nil}}
	m2 := &Match{Events: []*event.Event{b.At(1), nil, b.At(4)}, Kleene: [][]*event.Event{nil, {b.At(2), b.At(3)}, nil}}
	twin := evs[4]
	twin.Attrs = []float64{-1}
	m3 := &Match{Events: []*event.Event{&twin}}

	var k Keeper
	k.Step()
	c1, c2, c3 := k.Keep(m1), k.Keep(m2), k.Keep(m3)
	for _, p := range [][2]*event.Event{
		{c1.Events[2], c2.Events[2]},       // core and core
		{c1.Kleene[1][1], c2.Kleene[1][0]}, // set and set
		{c1.Kleene[1][0], c2.Events[0]},    // set and core
	} {
		if p[0] != p[1] {
			t.Fatalf("one step kept two copies of one event: %v and %v", *p[0], *p[1])
		}
	}
	if c1.Events[2] == b.At(4) || !sameEvent(c1.Events[2], &evs[4]) {
		t.Fatalf("the shared copy is %v, want a copy of %v", *c1.Events[2], evs[4])
	}
	if c3.Events[0] == c1.Events[2] || !sameEvent(c3.Events[0], &twin) {
		t.Fatalf("an event with another's Seq reads %v, want its own copy of %v", *c3.Events[0], twin)
	}
	k.Step()
	if c4 := k.Keep(m1); c4.Events[2] == c1.Events[2] || !sameEvent(c4.Events[2], &evs[4]) {
		t.Fatal("a new step shares the last step's copy")
	}
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
			if i%4 == 0 {
				k.Step() // four matches to a step, sharing two of three events
			}
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

// TestKeeperAllocs: a keeper allocates per slab, not per match — a
// three-event match, each its own step so nothing is shared, costs a few
// hundredths of an object.
func TestKeeperAllocs(t *testing.T) {
	evs := blockEvents(4)[1:] // one, two and three attribute values
	var b Block
	for i := range evs {
		b.Intern(&evs[i])
	}
	m := &Match{Events: []*event.Event{b.At(0), b.At(1), b.At(2)}}
	var k Keeper
	const n = 1000
	var c *Match
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < n; i++ {
			k.Step()
			c = k.Keep(m)
		}
	})
	if per := avg / n; per > 0.04 {
		t.Errorf("a kept three-event match allocated %.3f objects, want at most 0.04", per)
	}
	if !reflect.DeepEqual(c.Events[2].Attrs, evs[2].Attrs) {
		t.Fatalf("kept match reads %v", *c.Events[2])
	}
}

package match

import (
	"reflect"
	"testing"

	"acep/internal/event"
)

// blockEvents builds n events with i%4 attribute values each (so some
// carry none), values distinct across the whole run.
func blockEvents(n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{Type: i % 3, TS: event.Time(10 + i), Seq: uint64(i + 1)}
		for k := 0; k < i%4; k++ {
			evs[i].Attrs = append(evs[i].Attrs, float64(100*i+k))
		}
	}
	return evs
}

func requireBlock(t *testing.T, b *Block, want []event.Event) {
	t.Helper()
	if b.Len() != len(want) {
		t.Fatalf("block holds %d events, want %d", b.Len(), len(want))
	}
	for i := range want {
		got := b.At(i)
		if got.Type != want[i].Type || got.TS != want[i].TS || got.Seq != want[i].Seq ||
			len(got.Attrs) != len(want[i].Attrs) || (len(got.Attrs) > 0 && !reflect.DeepEqual(got.Attrs, want[i].Attrs)) {
			t.Fatalf("event %d reads %+v, want %+v", i, *got, want[i])
		}
	}
}

// TestBlockGrowsInPlace: a block filled one event at a time from empty
// relocates both its arrays several times on the way; every event must
// keep reading its own attribute values through each move, a reserved
// block must hand out pointers that stay good, and a reset block must
// refill without allocating.
func TestBlockGrowsInPlace(t *testing.T) {
	evs := blockEvents(1000)
	var b Block
	for i := range evs {
		b.Intern(&evs[i])
	}
	requireBlock(t, &b, evs)
	if b.MaxTS() != evs[len(evs)-1].TS {
		t.Fatalf("MaxTS %d, want %d", b.MaxTS(), evs[len(evs)-1].TS)
	}

	var r Block
	r.Reserve(len(evs), 0)
	ptrs := make([]*event.Event, len(evs))
	for i := range evs {
		ptrs[i] = r.Intern(&evs[i])
	}
	for i, p := range ptrs {
		if p != r.At(i) {
			t.Fatalf("event %d moved although its room was reserved", i)
		}
	}
	requireBlock(t, &r, evs)

	b.Reset()
	if avg := testing.AllocsPerRun(10, func() {
		for i := range evs {
			b.Intern(&evs[i])
		}
		b.Reset()
	}); avg != 0 {
		t.Fatalf("refilling a reset block allocated %.1f times", avg)
	}
}

// TestBlockDropFront: dropping a prefix moves the rest down, attribute
// values alongside, and later appends continue behind it.
func TestBlockDropFront(t *testing.T) {
	evs := blockEvents(40)
	var b Block
	for i := range evs[:30] {
		b.Intern(&evs[i])
	}
	b.DropFront(0)
	requireBlock(t, &b, evs[:30])
	b.DropFront(13)
	for i := 30; i < 40; i++ {
		b.Intern(&evs[i])
	}
	requireBlock(t, &b, evs[13:])
	b.DropFront(b.Len())
	requireBlock(t, &b, nil)
}

// TestPoolDropsSurplus: a pool lets at most its slack more blocks wait
// than are out and forgets the rest — with everything returned, the slack
// itself; one without slack keeps them all.
func TestPoolDropsSurplus(t *testing.T) {
	for _, tc := range []struct{ limit, want int }{{2, 2}, {0, 5}} {
		p := NewPool(tc.limit)
		var out []*Block
		for i := 0; i < 5; i++ {
			out = append(out, p.Get())
		}
		if p.Live() != 5 {
			t.Fatalf("slack %d: %d blocks live after 5 Gets", tc.limit, p.Live())
		}
		for _, b := range out {
			p.Put(b)
		}
		if p.Live() != tc.want {
			t.Fatalf("slack %d: %d blocks live after all came back, want %d", tc.limit, p.Live(), tc.want)
		}
		for i := 0; i < tc.want; i++ {
			p.Get()
		}
		if p.Live() != tc.want {
			t.Fatalf("slack %d: Get made a block while returned ones waited", tc.limit)
		}
	}
}

// TestArenaChunks: the holder's rules. Interning opens a block every
// arenaBlockEvents events and Full says so beforehand; Release returns
// whole blocks, oldest first, and stops at the first one the horizon has
// not passed, whatever lies behind it; Take lifts the newest block out of
// Release's reach and Hold puts one filled elsewhere under it; and a
// stream of one width never grows a block at all.
func TestArenaChunks(t *testing.T) {
	evs := blockEvents(3 * arenaBlockEvents)
	var a Arena
	a.SetRecycle(true)
	for i := range evs {
		if full := a.Full(); full != (i%arenaBlockEvents == 0) {
			t.Fatalf("Full() = %v before event %d", full, i)
		}
		a.Intern(&evs[i])
	}
	if a.Live() != 3 {
		t.Fatalf("%d blocks for %d events, want 3", a.Live(), len(evs))
	}
	for k := 0; k < 3; k++ {
		requireBlock(t, a.blocks[k], evs[k*arenaBlockEvents:(k+1)*arenaBlockEvents])
	}
	a.Release(evs[arenaBlockEvents].TS) // the first block's events all precede it
	if a.Live() != 2 {
		t.Fatalf("%d blocks after releasing the first, want 2", a.Live())
	}
	taken := a.Take()
	if taken == nil || taken.At(0).Seq != evs[2*arenaBlockEvents].Seq || a.Live() != 1 {
		t.Fatalf("Take did not lift out the newest block")
	}
	a.Release(1 << 40)
	requireBlock(t, taken, evs[2*arenaBlockEvents:])
	if a.Live() != 0 || a.pool.Live() != 3 {
		t.Fatalf("%d blocks held, %d in existence after releasing all but the taken one", a.Live(), a.pool.Live())
	}

	// FIFO: a block the horizon has not passed holds back the ones behind
	// it, even one whose own events are all older (an owner's blocks are in
	// arrival order; out-of-order content only ever waits longer).
	a.Hold(taken)
	old := a.Open()
	old.Intern(&evs[0])
	a.Release(taken.MaxTS()) // passes old, not taken
	if a.Live() != 2 {
		t.Fatalf("Release went past a block its horizon had not passed: %d held", a.Live())
	}
	a.Release(taken.MaxTS() + 1)
	if a.Live() != 0 || a.pool.Live() != 3 {
		t.Fatalf("%d blocks held, %d in existence after releasing everything", a.Live(), a.pool.Live())
	}

	// A stream of one width is provisioned exactly from its first block on.
	var u Arena
	wide := event.Event{Attrs: []float64{1, 2, 3}}
	for i := 0; i < arenaBlockEvents; i++ {
		u.Intern(&wide)
	}
	if got, want := cap(u.blocks[0].attrs), 3*arenaBlockEvents; !u.Full() || got != want {
		t.Fatalf("a block of %d three-attribute events has room for %d values, want %d", arenaBlockEvents, got, want)
	}
}

// TestArenaInternAllocs: an owner's steady state — release behind a
// horizon whenever the open block is full, then intern — allocates
// nothing once the blocks have been round: each has grown to the
// attribute values its events carry, mixed widths included.
func TestArenaInternAllocs(t *testing.T) {
	evs := blockEvents(8 * arenaBlockEvents)
	var a Arena
	a.SetRecycle(true)
	const horizon = 3 * arenaBlockEvents // in ticks: one event a tick
	cycle := func() {
		for i := range evs {
			if a.Full() {
				a.Release(evs[i].TS - horizon)
			}
			a.Intern(&evs[i])
		}
		a.Release(1 << 40) // the stream starts over at tick 10
	}
	cycle()
	made := a.pool.Live()
	if avg := testing.AllocsPerRun(5, cycle); avg != 0 || a.pool.Live() != made || made > 5 {
		t.Fatalf("a warmed arena allocated %.1f times over %d events, %d blocks made then, %d now",
			avg, len(evs), made, a.pool.Live())
	}
}

package wire

import (
	"bytes"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/nfa"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// aliasBatch builds a Batch of n same-shape events of alternating types
// starting at ts, Seq continuing from seq0.
func aliasBatch(n int, ts event.Time, seq0 uint64) Batch {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Type: i % 2,
			TS:   ts + event.Time(i),
			Seq:  seq0 + uint64(i),
			Attrs: []float64{
				float64(seq0) + float64(i),
				100 + float64(i%7),
			},
		}
	}
	return Batch{UpTo: seq0 + uint64(n) - 1, Events: evs}
}

// decodeOne round-trips one Batch through a Reader with the given decode
// arena and returns the view.
func decodeOne(t *testing.T, r *Reader, br *bytes.Reader, b Batch) *BatchView {
	t.Helper()
	br.Reset(Append(nil, b))
	f, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := f.(*BatchView)
	if !ok {
		t.Fatalf("Read returned %T, want *BatchView", f)
	}
	return v
}

// sameEvents fails the test unless every pointer still reads the value
// it was decoded from.
func sameEvents(t *testing.T, label string, got []*event.Event, want []event.Event) {
	t.Helper()
	for i, ev := range got {
		w := &want[i]
		if ev.Type != w.Type || ev.TS != w.TS || ev.Seq != w.Seq {
			t.Fatalf("%s: event %d reads %+v, was decoded from %+v", label, i, *ev, *w)
		}
		for k := range w.Attrs {
			if ev.Attrs[k] != w.Attrs[k] {
				t.Fatalf("%s: event %d attr %d reads %v, was decoded from %v", label, i, k, ev.Attrs[k], w.Attrs[k])
			}
		}
	}
}

// TestDecodeArenaReleaseInFlight pins the decode-side half of the
// ownership contract: a run's block is not reusable while its consumer
// can reach it. The node takes each decoded run out of the arena and
// hands it to a shard worker; from then on neither the arena's Release
// nor the pool can touch it, however far later decodes and horizons run
// ahead, and its storage comes around again only after the worker has
// put it back — at which point the very next decode lands in it.
func TestDecodeArenaReleaseInFlight(t *testing.T) {
	var arena match.Arena
	pool := match.NewPool(4)
	arena.SetPool(pool)
	br := bytes.NewReader(nil)
	r := NewReader(br)
	r.SetDecodeArena(&arena)

	const n = 300
	b1 := aliasBatch(n, 1000, 1)
	v1 := decodeOne(t, r, br, b1)
	// The view's header is Reader scratch: copy the pointers, take the
	// block, as the node does.
	held := append([]*event.Event(nil), v1.Events...)
	inFlight := arena.Take()
	if inFlight == nil || inFlight.Len() != n || inFlight.At(0) != held[0] {
		t.Fatalf("Take did not hand over the block the run was decoded into")
	}

	// Later runs decode, are consumed and returned at once, and the arena
	// releases far past the held run's timestamps.
	for c := 0; c < 8; c++ {
		v := decodeOne(t, r, br, aliasBatch(n, event.Time(5000+1000*c), uint64((c+1)*n+1)))
		if v.Events[0] == held[0] {
			t.Fatalf("decode %d reused a block its consumer has not returned", c)
		}
		pool.Put(arena.Take())
		arena.Release(1 << 40)
	}
	sameEvents(t, "held across 8 later decodes", held, b1.Events)

	// The consumer is done: the block goes back, and the next run gets it.
	pool.Put(inFlight)
	b3 := aliasBatch(n, 20000, 10*n+1)
	v3 := decodeOne(t, r, br, b3)
	if v3.Events[0] != held[0] {
		t.Fatalf("a returned block was not the next one reused")
	}
	sameEvents(t, "reusing decode", v3.Events, b3.Events)
}

// TestDecodeArenaMigrationFreeze runs the §2.2 migration freeze over
// wire-decoded blocks that are recycled the way a shard worker recycles
// them: an evaluator points into each decoded block, the
// block goes back to the pool only once the evaluator's Floor has passed
// its newest event, and SetEmitOnlyBefore freezes the evaluator
// mid-stream (the draining-evaluator transition). The matches — copied
// out as they are emitted, which is all that may leave a worker — must
// equal those of a run over events nothing ever reuses, and blocks
// must actually have come around: the stream is many retentions long.
func TestDecodeArenaMigrationFreeze(t *testing.T) {
	s := event.NewSchema()
	s.MustAddType("A", "x", "y")
	s.MustAddType("B", "x", "y")
	const window, n, cuts = 150, 64, 60
	pb := pattern.NewBuilder(s, pattern.Seq, window)
	pb.Event(0)
	pb.Event(1)
	pat := pb.MustBuild()
	batches := make([]Batch, cuts)
	for c := range batches {
		batches[c] = aliasBatch(n, event.Time(1000+c*n), uint64(c*n+1))
	}
	boundary := uint64(cuts/2*n + 1) // matches wholly after it are the successor's

	render := func(m *match.Match) string {
		return string(AppendMatchBody(nil, m))
	}
	// Reference: a run over the batches' own events with the same emission
	// restriction.
	var want []string
	{
		g := nfa.New(pat, plan.NewOrderPlan([]int{0, 1}), func(m *match.Match) { want = append(want, render(m)) })
		for _, b := range batches {
			for i := range b.Events {
				g.Process(&b.Events[i])
			}
			if b.UpTo+1 == boundary {
				g.SetEmitOnlyBefore(boundary)
			}
		}
		g.Finish()
	}

	var arena match.Arena
	pool := match.NewPool(0)
	arena.SetPool(pool)
	br := bytes.NewReader(nil)
	r := NewReader(br)
	r.SetDecodeArena(&arena)
	var kept []*match.Match
	var keep match.Keeper
	g := nfa.New(pat, plan.NewOrderPlan([]int{0, 1}), func(m *match.Match) { kept = append(kept, keep.Keep(m)) })
	var held []*match.Block
	for _, b := range batches {
		v := decodeOne(t, r, br, b)
		for _, ev := range v.Events {
			g.Process(ev)
		}
		held = append(held, arena.Take())
		if b.UpTo+1 == boundary {
			g.SetEmitOnlyBefore(boundary)
		}
		for len(held) > 0 && held[0].MaxTS() < g.Floor() {
			pool.Put(held[0])
			held = held[1:]
		}
	}
	g.Finish()
	if live := pool.Live(); live >= cuts/2 {
		t.Fatalf("%d blocks for %d runs: nothing was reused, the test is vacuous", live, cuts)
	}
	if len(want) == 0 || len(kept) != len(want) {
		t.Fatalf("recycling run emitted %d matches, reference %d", len(kept), len(want))
	}
	for i, m := range kept {
		if render(m) != want[i] {
			t.Fatalf("match %d diverged from the reference", i)
		}
	}
}

// TestReplayDecodeIntoLiveSession pins the migration-replay contract: a
// shard's journaled history — old timestamps — decodes into a session
// that is already live, out of the same pool, and lands only in blocks
// the pool was given back: never in one a worker still holds, whatever
// the timestamps say. The replayed events are value-identical to the
// journal. (The end-to-end version runs in internal/cluster's migration
// and kill-matrix tests.)
func TestReplayDecodeIntoLiveSession(t *testing.T) {
	const n = 50
	history := []Batch{
		aliasBatch(n, 1000, 1),
		aliasBatch(n, 2000, n+1),
		aliasBatch(n, 3000, 2*n+1),
	}
	var arena match.Arena
	pool := match.NewPool(0)
	arena.SetPool(pool)
	br := bytes.NewReader(nil)
	r := NewReader(br)
	r.SetDecodeArena(&arena)

	// The live session: a newer run a worker still holds, and two it has
	// returned.
	live := aliasBatch(n, 90000, 10*n+1)
	held := append([]*event.Event(nil), decodeOne(t, r, br, live).Events...)
	arena.Take()
	for c := 0; c < 2; c++ {
		decodeOne(t, r, br, aliasBatch(n, event.Time(91000+1000*c), uint64((11+c)*n+1)))
		pool.Put(arena.Take())
	}
	made := pool.Live()

	for c, b := range history {
		v := decodeOne(t, r, br, b)
		sameEvents(t, "replayed run", v.Events, b.Events)
		for i, ev := range v.Events {
			if ev == held[i] || &ev.Attrs[0] == &held[i].Attrs[0] {
				t.Fatalf("replayed run %d event %d sits in a block the live session still holds", c, i)
			}
		}
		pool.Put(arena.Take())
	}
	if pool.Live() != made {
		t.Fatalf("replay made %d new blocks; want the returned ones reused", pool.Live()-made)
	}
	sameEvents(t, "held across the replay", held, live.Events)
}

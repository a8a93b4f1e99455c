package tree

import (
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// ltChain is SEQ(A,B,C) with strictly-increasing-x predicates between
// adjacent positions: x increasing matches densely, x decreasing never.
func ltChain(s *event.Schema, window event.Time, kleeneAt int) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, window)
	for i := 0; i < 3; i++ {
		b.Event(i)
	}
	if kleeneAt >= 0 {
		b.Kleene(kleeneAt)
	}
	for i := 0; i+1 < 3; i++ {
		b.WherePred(pattern.Pred{L: i, R: i + 1, AttrL: 0, AttrR: 0, Op: pattern.LT})
	}
	return b.MustBuild()
}

// feed drives batches of round-robin events to the engine through the
// owner of their storage (matchtest.Owner: one copy of each event, in
// blocks reused behind the engine's Floor — so the pins below also hold
// Floor to its contract), reusing one event struct. Every event carries
// x = ±Seq; matchtest.Intact checks it in what a matching stream delivers.
type feed struct {
	o    *matchtest.Owner
	ev   event.Event
	ts   event.Time
	seq  uint64
	sign float64
}

func newFeed(g *Engine, sign float64) *feed {
	return &feed{o: matchtest.NewOwner(g), ev: event.Event{Attrs: make([]float64, 1)}, sign: sign}
}

func (f *feed) run(events int) {
	for i := 0; i < events; i++ {
		f.ts++
		f.seq++
		f.ev.Type = int(f.seq) % 3
		f.ev.TS = f.ts
		f.ev.Seq = f.seq
		f.ev.Attrs[0] = f.sign * float64(f.seq)
		f.o.Process(&f.ev)
	}
}

// TestProcessZeroAllocsNoMatch: after warm-up, a no-match stream must
// drive the tree hot path — dispatch, leaf tuple creation, sibling
// joins, store pruning — and its owner's interning and block turnover
// with zero heap allocations per event.
func TestProcessZeroAllocsNoMatch(t *testing.T) {
	s := mkSchema(3)
	pat := ltChain(s, 60, -1)
	tp := plan.NewTreePlan(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)))
	g := New(pat, tp, func(*match.Match) {
		t.Fatal("no-match stream produced a match")
	})
	g.SetOwnedEmit(true)
	f := newFeed(g, -1)
	f.run(20000)
	allocs := testing.AllocsPerRun(10, func() { f.run(2000) })
	if allocs != 0 {
		t.Fatalf("steady-state no-match Process allocated %.2f times per 2000-event run; want 0", allocs)
	}
}

// TestProcessBoundedAllocsMatching: a densely matching stream must stay
// within a small constant allocation budget per event in owned-emit
// mode, completions and emissions included.
func TestProcessBoundedAllocsMatching(t *testing.T) {
	s := mkSchema(3)
	pat := ltChain(s, 24, -1)
	tp := plan.NewTreePlan(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)))
	var matches uint64
	g := New(pat, tp, func(m *match.Match) {
		matches++
		matchtest.Intact(t, m)
	})
	g.SetOwnedEmit(true)
	f := newFeed(g, 1)
	f.run(20000)
	if matches == 0 {
		t.Fatal("matching stream produced no matches; the bound would be vacuous")
	}
	const perRun = 2000
	allocs := testing.AllocsPerRun(10, func() { f.run(perRun) })
	if perEvent := allocs / perRun; perEvent > 0.05 {
		t.Fatalf("steady-state matching Process allocated %.4f/event; want <= 0.05", perEvent)
	}
}

// TestProcessBoundedAllocsKleene exercises the residual path through the
// tree engine: parked matches, residual buffer scans and pooled Kleene
// sets.
func TestProcessBoundedAllocsKleene(t *testing.T) {
	s := mkSchema(3)
	pat := ltChain(s, 24, 1)
	tp := plan.NewTreePlan(plan.Join(plan.Leaf(0), plan.Leaf(2)))
	var matches uint64
	g := New(pat, tp, func(m *match.Match) {
		matches++
		matchtest.Intact(t, m)
		if m.Kleene == nil || len(m.Kleene[1]) == 0 {
			t.Fatal("kleene match without a set")
		}
	})
	g.SetOwnedEmit(true)
	f := newFeed(g, 1)
	f.run(20000)
	if matches == 0 {
		t.Fatal("kleene stream produced no matches; the bound would be vacuous")
	}
	const perRun = 2000
	allocs := testing.AllocsPerRun(10, func() { f.run(perRun) })
	if perEvent := allocs / perRun; perEvent > 0.05 {
		t.Fatalf("steady-state kleene Process allocated %.4f/event; want <= 0.05", perEvent)
	}
}

// TestProcessZeroAllocsKeyChurn: the equality index under key churn. The
// pattern joins on a key every node's store is indexed on (and on an x
// ordering the stream never satisfies, so nothing matches); each key
// value lives for three events and never returns — over 100,000 distinct
// keys across the run. Buckets come and go with their keys, so the steady
// state must still allocate nothing, and after a prune each node's table
// must hold no more buckets than there are keys inside the window.
func TestProcessZeroAllocsKeyChurn(t *testing.T) {
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C"} {
		s.MustAddType(name, "x", "k")
	}
	const window = 60
	b := pattern.NewBuilder(s, pattern.Seq, window)
	for i := 0; i < 3; i++ {
		b.Event(i)
	}
	for i := 0; i+1 < 3; i++ {
		b.WherePred(pattern.Pred{L: i, R: i + 1, AttrL: 1, AttrR: 1, Op: pattern.EQ})
		b.WherePred(pattern.Pred{L: i, R: i + 1, AttrL: 0, AttrR: 0, Op: pattern.LT})
	}
	tp := plan.NewTreePlan(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)))
	g := New(b.MustBuild(), tp, func(*match.Match) {
		t.Fatal("no-match stream produced a match")
	})
	g.SetOwnedEmit(true)
	o := matchtest.NewOwner(g)
	ev := event.Event{Attrs: make([]float64, 2)}
	var seq uint64
	run := func(events int) {
		for i := 0; i < events; i++ {
			ev.Type = int(seq % 3)
			ev.Attrs[1] = float64(seq / 3) // the key: one A, B and C each
			seq++
			ev.TS = event.Time(seq)
			ev.Seq = seq
			ev.Attrs[0] = -float64(seq)
			o.Process(&ev)
		}
	}
	run(250000)
	before := g.Stats().PredEvals
	allocs := testing.AllocsPerRun(10, func() { run(5000) })
	if allocs != 0 {
		t.Fatalf("steady-state Process under key churn allocated %.2f times per 5000-event run; want 0", allocs)
	}
	if seq/3 < 100000 {
		t.Fatalf("only %d distinct keys over the run; want 100000", seq/3)
	}
	// A and B meet only each other within their key: two predicate
	// evaluations per three events, where the flat join asked every
	// sibling tuple in the window.
	if per := float64(g.Stats().PredEvals-before) / 55000; per > 1 {
		t.Fatalf("%.2f predicate evaluations per event; the index is not selecting", per)
	}
	g.Store.Prune(g.Watermark())
	liveKeys := window/3 + 2 // keys with a tuple inside the window
	for _, n := range []*node{g.leafByPos[0], g.leafByPos[1], g.leafByPos[2]} {
		if got := n.store.Buckets(); got == 0 || got > liveKeys {
			t.Fatalf("leaf %d holds %d buckets after prune; want 1..%d", n.pos, got, liveKeys)
		}
	}
}

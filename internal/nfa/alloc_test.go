package nfa

import (
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// ltChainPattern is SEQ(A,B,C,...) where each adjacent pair requires a
// strictly increasing x, so one stream shape (x increasing) matches
// densely and its mirror (x decreasing) never matches at all.
func ltChainPattern(s *event.Schema, n int, window event.Time, kleeneAt int) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, window)
	for i := 0; i < n; i++ {
		b.Event(i)
	}
	if kleeneAt >= 0 {
		b.Kleene(kleeneAt)
	}
	for i := 0; i+1 < n; i++ {
		b.WherePred(pattern.Pred{L: i, R: i + 1, AttrL: 0, AttrR: 0, Op: pattern.LT})
	}
	return b.MustBuild()
}

// stepper feeds batches of round-robin-typed events to an engine through
// the owner of their storage (matchtest.Owner: one copy of each event, in
// blocks reused behind the engine's Floor — so the pins below also hold
// Floor to its contract), reusing one event struct. sign picks
// x = Seq, increasing and matching — what matchtest.Intact checks in every
// delivered match — or x = −Seq, decreasing and never matching.
type stepper struct {
	o    *matchtest.Owner
	ev   event.Event
	ts   event.Time
	seq  uint64
	n    int
	sign float64
}

func newStepper(g *Engine, types int, sign float64) *stepper {
	return &stepper{o: matchtest.NewOwner(g), ev: event.Event{Attrs: make([]float64, 1)}, n: types, sign: sign}
}

func (s *stepper) run(events int) {
	for i := 0; i < events; i++ {
		s.ts++
		s.seq++
		s.ev.Type = int(s.seq) % s.n
		s.ev.TS = s.ts
		s.ev.Seq = s.seq
		s.ev.Attrs[0] = s.sign * float64(s.seq)
		s.o.Process(&s.ev)
	}
}

// TestProcessZeroAllocsNoMatch: after warm-up, a no-match stream must
// drive the NFA hot path — dispatch, PM creation, extension attempts,
// buffer appends, pruning — and its owner's interning and block turnover
// with zero heap allocations per event. This is the allocation-regression
// guard for the pooled engine; any new per-event allocation fails it.
func TestProcessZeroAllocsNoMatch(t *testing.T) {
	s := mkSchema(3)
	pat := ltChainPattern(s, 3, 60, -1)
	g := New(pat, plan.NewOrderPlan([]int{0, 1, 2}), func(*match.Match) {
		t.Fatal("no-match stream produced a match")
	})
	g.SetOwnedEmit(true)
	st := newStepper(g, 3, -1)
	st.run(20000) // reach steady state: buffers, states and blocks at capacity
	allocs := testing.AllocsPerRun(10, func() { st.run(2000) })
	if allocs != 0 {
		t.Fatalf("steady-state no-match Process allocated %.2f times per 2000-event run; want 0", allocs)
	}
}

// TestProcessBoundedAllocsMatching: a densely matching stream (every
// in-window combination completes) must stay within a small constant
// allocation budget per event in owned-emit mode — completion, residual
// resolution and emission all run off pools.
func TestProcessBoundedAllocsMatching(t *testing.T) {
	s := mkSchema(3)
	pat := ltChainPattern(s, 3, 24, -1)
	var matches uint64
	g := New(pat, plan.NewOrderPlan([]int{0, 1, 2}), func(m *match.Match) {
		matches++
		matchtest.Intact(t, m)
	})
	g.SetOwnedEmit(true)
	st := newStepper(g, 3, 1)
	st.run(20000)
	if matches == 0 {
		t.Fatal("matching stream produced no matches; the bound would be vacuous")
	}
	const perRun = 2000
	allocs := testing.AllocsPerRun(10, func() { st.run(perRun) })
	if perEvent := allocs / perRun; perEvent > 0.05 {
		t.Fatalf("steady-state matching Process allocated %.4f/event; want <= 0.05", perEvent)
	}
}

// TestProcessBoundedAllocsKleene exercises the residual path: Kleene
// resolution parks matches, scans residual buffers and emits Kleene
// sets, all of which must come from the resolver's pools in owned mode.
func TestProcessBoundedAllocsKleene(t *testing.T) {
	s := mkSchema(3)
	pat := ltChainPattern(s, 3, 24, 1)
	var matches uint64
	g := New(pat, plan.NewOrderPlan([]int{0, 2}), func(m *match.Match) {
		matches++
		matchtest.Intact(t, m)
		if m.Kleene == nil || len(m.Kleene[1]) == 0 {
			t.Fatal("kleene match without a set")
		}
	})
	g.SetOwnedEmit(true)
	st := newStepper(g, 3, 1)
	st.run(20000)
	if matches == 0 {
		t.Fatal("kleene stream produced no matches; the bound would be vacuous")
	}
	const perRun = 2000
	allocs := testing.AllocsPerRun(10, func() { st.run(perRun) })
	if perEvent := allocs / perRun; perEvent > 0.05 {
		t.Fatalf("steady-state kleene Process allocated %.4f/event; want <= 0.05", perEvent)
	}
}

// TestProcessZeroAllocsKeyChurn: the equality index under key churn. The
// pattern joins on a key every state is indexed on (and on an x ordering
// the stream never satisfies, so nothing matches); each key value lives
// for three events and never returns — over 100,000 distinct keys across
// the run. Buckets come and go with their keys, so the steady state must
// still allocate nothing. Under the declaration order every state is
// forward-only and keeps no history: after a prune a state holds a bucket
// exactly for each key with a live PM there. Under the reverse order every
// state keeps history, and a state's table holds no more buckets than
// there are keys inside the retention horizon.
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
	pat := b.MustBuild()
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		history := order[0] != 0
		g := New(pat, plan.NewOrderPlan(order), func(*match.Match) {
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
			t.Fatalf("order %v: steady-state Process under key churn allocated %.2f times per 5000-event run; want 0", order, allocs)
		}
		if seq/3 < 100000 {
			t.Fatalf("order %v: only %d distinct keys over the run; want 100000", order, seq/3)
		}
		// Each B meets the one A-PM of its key (each C-PM the one B of its
		// key's history): two predicate evaluations per three events, where
		// the flat scan asked every PM in the window.
		if per := float64(g.Stats().PredEvals-before) / 55000; per > 1 {
			t.Fatalf("order %v: %.2f predicate evaluations per event; the index is not selecting", order, per)
		}
		g.Store.Prune(g.Watermark())
		liveKeys := 2*window/3 + 2 // keys with an event inside the two-window horizon
		for st := 1; st < g.n; st++ {
			pl := g.states[st]
			if pl.KeepsHistory() != history {
				t.Fatalf("order %v: state %d keeps history %v, want %v", order, st, pl.KeepsHistory(), history)
			}
			if n := pl.Buckets(); history && (n == 0 || n > liveKeys) {
				t.Fatalf("order %v: state %d holds %d buckets after prune; want 1..%d", order, st, n, liveKeys)
			}
			keys := map[uint64]bool{}
			pl.HotKeys(func(e *event.Event) uint64 { return uint64(e.Attrs[1]) }, func(k uint64) { keys[k] = true })
			if n := pl.Buckets(); !history && n != len(keys) {
				t.Fatalf("order %v: state %d holds %d buckets after prune; want %d, one per key with a live PM", order, st, n, len(keys))
			}
		}
		if !history && g.states[1].Buckets() == 0 {
			t.Fatalf("order %v: no bucket at state 1; the bound is vacuous", order)
		}
	}
}

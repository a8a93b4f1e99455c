package engine

import (
	"runtime"
	"testing"

	"acep/internal/core"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// allocWindow spans a block and a half of the one-event-per-tick streams
// below, so an engine's floor trails its watermark by several blocks.
const allocWindow = 400

// ltChain is SEQ(T_first, T_first+1, T_first+2) requiring x to increase
// along the chain: a stream whose x only falls never matches.
func ltChain(s *event.Schema, first int) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, allocWindow)
	for i := 0; i < 3; i++ {
		b.Event(first + i)
	}
	for i := 0; i+1 < 3; i++ {
		b.WherePred(pattern.Pred{L: i, R: i + 1, AttrL: 0, AttrR: 0, Op: pattern.LT})
	}
	return b.MustBuild()
}

// fallingFeed feeds an engine round-robin-typed events, one per tick, x
// falling, through one reused event: the caller's side of the contract.
type fallingFeed struct {
	e     *Engine
	ev    event.Event
	types int
	seq   uint64
}

func newFallingFeed(e *Engine, types int) *fallingFeed {
	return &fallingFeed{e: e, ev: event.Event{Attrs: make([]float64, 2)}, types: types}
}

func (f *fallingFeed) run(events int) {
	for i := 0; i < events; i++ {
		f.seq++
		f.ev.Type = int(f.seq) % f.types
		f.ev.TS = event.Time(f.seq)
		f.ev.Seq = f.seq
		f.ev.Attrs[0] = -float64(f.seq)
		f.e.Process(&f.ev)
	}
}

// otherPlan returns a plan for a three-position pattern that differs from
// the one in effect.
func otherPlan(cur plan.Plan) plan.Plan {
	switch cur.(type) {
	case *plan.OrderPlan:
		for _, order := range [][]int{{2, 1, 0}, {0, 1, 2}} {
			if p := plan.NewOrderPlan(order); !p.Equal(cur) {
				return p
			}
		}
	case *plan.TreePlan:
		for _, root := range []*plan.TreeNode{
			plan.Join(plan.Leaf(0), plan.Join(plan.Leaf(1), plan.Leaf(2))),
			plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)),
		} {
			if p := plan.NewTreePlan(root); !p.Equal(cur) {
				return p
			}
		}
	}
	panic("no other plan")
}

// allocEngine builds an engine whose adaptation checks never come due (a
// check's stats.NewSnapshot is the loop's cost, not storage's) over a
// stream that never matches.
func allocEngine(t *testing.T, pat *pattern.Pattern, model Model) *Engine {
	t.Helper()
	e, err := New(pat, Config{
		Model: model, CheckEvery: 1 << 30,
		NewPolicy: func() core.Policy { return core.Static{} },
		OnMatch:   func(*match.Match) { t.Fatal("the falling stream matched") },
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mallocs counts the heap allocations f makes, on one P as AllocsPerRun
// counts them, but of a single run: f need not be repeatable.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEngineProcessAllocs: the single-process engine's steady state
// allocates nothing — every admitted event is copied into a block that
// came back from behind the engine's own Floor — and replacing the plan
// makes no block either: the draining evaluator and its successor point
// into the same copies, so the blocks in existence before the replacement
// are the blocks in existence after its whole drain window. Once an
// evaluator has retired, a replacement and its drain window allocate
// nothing at all.
func TestEngineProcessAllocs(t *testing.T) {
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C"} {
		s.MustAddType(name, "x", "y")
	}
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		t.Run(model.String(), func(t *testing.T) {
			e := allocEngine(t, ltChain(s, 0), model)
			f := newFallingFeed(e, 3)
			f.run(20 * allocWindow)
			if avg := testing.AllocsPerRun(20, func() { f.run(256) }); avg != 0 {
				t.Fatalf("steady-state Process allocated %.2f times per 256 events; want 0", avg)
			}
			// Replacements come a whole number of cycles apart — of the prune
			// clock, half a window, and of the stream's three types — so a
			// plan deployed again sees the stream the evaluator it re-plans
			// saw, and its pool needs no partial that evaluator did not make.
			const cycle = 3 * allocWindow / 2
			f.run(cycle - int(f.seq%cycle))
			before := e.arena.Pool().Live()
			r := e.runners[0]
			r.migrate(otherPlan(r.curPlan))
			if len(r.draining) != 1 {
				t.Fatalf("%d draining evaluators after a replacement", len(r.draining))
			}
			f.run(4 * cycle)
			if len(r.draining) != 0 {
				t.Fatalf("the drain window did not close")
			}
			if after := e.arena.Pool().Live(); after != before || before < 3 {
				t.Fatalf("%d blocks in existence before the plan replacement, %d after its drain", before, after)
			}
			// Every later replacement re-plans the evaluator that retired
			// when the last drain closed, in place: no table, no history
			// array, no partial is made, and nothing per event of the
			// window. On the NFA the third is the first whose plan keeps
			// history.
			for i := 2; i <= 5; i++ {
				next := otherPlan(r.curPlan)
				if n := mallocs(func() {
					r.migrate(next)
					f.run(4 * cycle)
				}); n != 0 {
					t.Fatalf("replacement %d and its drain window allocated %d times; want 0", i, n)
				}
			}
		})
	}
}

// TestInternedOnce: an OR of three disjuncts, each with a draining
// evaluator beside its current one — six evaluators that all want every
// event — holds each event in exactly one block: what the engine holds
// never exceeds the events its floor spans, in blocks, plus the open
// block and the one the floor is crossing.
func TestInternedOnce(t *testing.T) {
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		s.MustAddType(name, "x", "y")
	}
	or3, err := pattern.NewOr(ltChain(s, 0), ltChain(s, 1), ltChain(s, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		t.Run(model.String(), func(t *testing.T) {
			e := allocEngine(t, or3, model)
			f := newFallingFeed(e, 5)
			f.run(10 * allocWindow)
			for _, r := range e.runners {
				r.migrate(otherPlan(r.curPlan))
			}
			// One event a tick: 2.5 windows of events lie at or after the floor.
			bound := (2*allocWindow+allocWindow/2)/256 + 2
			for i := 0; i < allocWindow; i++ {
				f.run(1)
				if live := e.arena.Live(); live > bound {
					t.Fatalf("%d blocks held %d events into the drain, want <= %d", live, i, bound)
				}
			}
			for _, r := range e.runners {
				if len(r.draining) != 1 {
					t.Fatalf("%d draining evaluators mid-drain", len(r.draining))
				}
			}
		})
	}
}

// BenchmarkEngineProcess is the single-process engine's per-event cost
// with the caller reusing one event: B/op is what storing an event costs
// once the blocks have come round.
func BenchmarkEngineProcess(b *testing.B) {
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C"} {
		s.MustAddType(name, "x", "y")
	}
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		b.Run(model.String(), func(b *testing.B) {
			e, err := New(ltChain(s, 0), Config{Model: model, OnMatch: func(*match.Match) {}})
			if err != nil {
				b.Fatal(err)
			}
			f := newFallingFeed(e, 3)
			b.ReportAllocs()
			b.ResetTimer()
			f.run(b.N)
		})
	}
}

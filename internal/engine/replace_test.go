package engine

import (
	"testing"

	"acep/internal/core"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// replaceWindow keeps the matching stream below cheap to evaluate.
const replaceWindow = 40

// skewedFeed feeds SEQ(A, B, C) with a.x < b.x < c.x types at rates
// 1:2:6 and x drawn from 0..9, so the plans' costs differ: which of them
// is cheapest depends on the rates, and every pair passes often enough to
// match.
type skewedFeed struct {
	e   *Engine
	ev  event.Event
	seq uint64
	rnd uint64
}

func newSkewedFeed(e *Engine) *skewedFeed {
	return &skewedFeed{e: e, ev: event.Event{Attrs: make([]float64, 2)}, rnd: 1}
}

func (f *skewedFeed) run(events int) {
	for i := 0; i < events; i++ {
		f.seq++
		f.rnd = f.rnd*6364136223846793005 + 1442695040888963407
		switch r := f.rnd >> 33; {
		case r%9 == 0:
			f.ev.Type = 0
		case r%9 < 3:
			f.ev.Type = 1
		default:
			f.ev.Type = 2
		}
		f.ev.TS = event.Time(f.seq)
		f.ev.Seq = f.seq
		f.ev.Attrs[0] = float64(f.rnd >> 60 % 10)
		f.e.Process(&f.ev)
	}
}

// replaceEngine builds an engine whose checks come only when a test calls
// one, under core.Unconditional, over ltChain's shape at replaceWindow.
func replaceEngine(t testing.TB, model Model) *Engine {
	t.Helper()
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C"} {
		s.MustAddType(name, "x", "y")
	}
	b := pattern.NewBuilder(s, pattern.Seq, replaceWindow)
	for i := 0; i < 3; i++ {
		b.Event(i)
	}
	for i := 0; i+1 < 3; i++ {
		b.WherePred(pattern.Pred{L: i, R: i + 1, Op: pattern.LT})
	}
	e, err := New(b.MustBuild(), Config{
		Model: model, CheckEvery: 1 << 30, OwnedEmit: true,
		NewPolicy: func() core.Policy { return core.Unconditional{} },
		OnMatch:   func(*match.Match) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// worstPlan returns the plan of the runner's model that costs most under
// its last snapshot: every order, or both tree shapes over every order.
func worstPlan(r *runner) plan.Plan {
	var cands []plan.Plan
	for _, o := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		if _, ok := r.curPlan.(*plan.OrderPlan); ok {
			cands = append(cands, plan.NewOrderPlan(o))
			continue
		}
		l := func(i int) *plan.TreeNode { return plan.Leaf(o[i]) }
		cands = append(cands,
			plan.NewTreePlan(plan.Join(plan.Join(l(0), l(1)), l(2))),
			plan.NewTreePlan(plan.Join(l(0), plan.Join(l(1), l(2)))))
	}
	worst := cands[0]
	for _, p := range cands[1:] {
		if p.Cost(r.lastSnap) > worst.Cost(r.lastSnap) {
			worst = p
		}
	}
	return worst
}

// retireOne deploys the runner's costliest plan and feeds the stream until
// the evaluator it replaced has retired: the runner then has a spare and
// a plan A will replace.
func retireOne(t testing.TB, r *runner, f *skewedFeed) {
	t.Helper()
	r.migrate(worstPlan(r))
	f.run(3 * replaceWindow)
	if r.spare == nil || len(r.draining) != 0 {
		t.Fatalf("%d evaluators draining and spare %v two windows after a replacement", len(r.draining), r.spare != nil)
	}
}

// TestReplacementAllocs: on a warm runner with a spare, an adaptation
// check that replaces the plan allocates nothing — the statistics, D and
// A as in TestAdaptationCheckAllocs, and the deployment: the evaluator
// that retired last is re-planned in place, plan, tables, places and
// pooled partials alike, its residual buffers seeded and its clock
// advanced. Only the first replacement of a run, which finds no spare,
// builds an evaluator.
func TestReplacementAllocs(t *testing.T) {
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		t.Run(model.String(), func(t *testing.T) {
			e := replaceEngine(t, model)
			f := newSkewedFeed(e)
			f.run(20 * replaceWindow)
			r := e.runners[0]
			r.adaptationCheck() // deploys the stream's plan, if it is not in effect
			for i := 0; i < 6; i++ {
				retireOne(t, r, f)
				reopts := r.metrics.Reoptimizations
				allocs := mallocs(r.adaptationCheck)
				if r.metrics.Reoptimizations != reopts+1 {
					t.Fatalf("check %d replaced no plan: A kept %v", i, r.curPlan)
				}
				if i >= 2 && allocs != 0 {
					t.Fatalf("check %d replaced the plan with %d allocations; want 0", i, allocs)
				}
			}
			m := e.Metrics()
			if m.MigrateTime <= 0 || m.DrainEvents == 0 || m.Suppressed == 0 {
				t.Fatalf("replacements unpriced: %v migrating, %d drain events, %d suppressed", m.MigrateTime, m.DrainEvents, m.Suppressed)
			}
		})
	}
}

// BenchmarkReplace is one plan replacement on a warm runner that has a
// spare: re-planning it, seeding its residual buffers and advancing it
// (Metrics.MigrateTime's span). The drain that makes the next spare runs
// with the timer stopped.
func BenchmarkReplace(b *testing.B) {
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		b.Run(model.String(), func(b *testing.B) {
			e := replaceEngine(b, model)
			f := newSkewedFeed(e)
			f.run(20 * replaceWindow)
			r := e.runners[0]
			r.adaptationCheck()
			plans := [2]plan.Plan{worstPlan(r), r.curPlan.Clone()}
			for range 4 {
				retireOne(b, r, f)
				r.migrate(plans[1])
				f.run(3 * replaceWindow)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				r.migrate(plans[i%2])
				b.StopTimer()
				f.run(3 * replaceWindow)
				b.StartTimer()
			}
		})
	}
}

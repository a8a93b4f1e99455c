package engine

import (
	"time"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/nfa"
	"acep/internal/plan"
	"acep/internal/tree"
)

// runner is the detection-adaptation loop of one (non-OR) pattern: the
// decision loop it embeds and the evaluators that carry out its
// decisions.
type runner struct {
	loop

	cur      evaluator
	draining []drainingEngine
	// spare is the evaluator that retired last, its counters folded in:
	// the next replacement re-plans it in place, plan included, and only
	// a replacement that finds none builds an evaluator.
	spare evaluator
}

// drainingEngine is a pre-migration evaluator still serving matches that
// contain events from its era.
type drainingEngine struct {
	eval evaluator
	// retireAt is the watermark past which no match owned by this
	// evaluator can still complete (migration time + window).
	retireAt event.Time
}

// buildEvaluator builds an evaluator for p, which it keeps.
func (r *runner) buildEvaluator(p plan.Plan) evaluator {
	emit := func(m *match.Match) {
		r.metrics.Matches++
		if r.cfg.OnMatch != nil {
			r.cfg.OnMatch(m)
		}
	}
	var ev evaluator
	switch pl := p.(type) {
	case *plan.OrderPlan:
		ev = nfa.New(r.pat, pl, emit)
	case *plan.TreePlan:
		ev = tree.New(r.pat, pl, emit)
	default:
		panic("engine: unknown plan type")
	}
	ev.SetOwnedEmit(r.cfg.OwnedEmit) // as New settled it
	return ev
}

func (r *runner) process(ev *event.Event, mask uint32) {
	if !r.observe(ev) {
		return
	}

	// Drain pre-migration evaluators; retire those whose era has closed.
	if len(r.draining) > 0 {
		kept := r.draining[:0]
		for _, d := range r.draining {
			if r.watermark > d.retireAt {
				d.eval.Advance(r.watermark) // final flush of parked matches
				r.metrics.fold(d.eval)
				r.spare = d.eval
				continue
			}
			r.metrics.DrainEvents++
			d.eval.ProcessMasked(ev, mask)
			kept = append(kept, d)
		}
		for i := len(kept); i < len(r.draining); i++ {
			r.draining[i] = drainingEngine{}
		}
		r.draining = kept
	}

	r.cur.ProcessMasked(ev, mask)

	if r.due() {
		r.adaptationCheck()
	}
}

// adaptationCheck runs the loop's check and deploys the plan it returns.
func (r *runner) adaptationCheck() {
	if p, _ := r.check(); p != nil {
		r.migrate(p)
	}
}

// migrate deploys a copy of p using the §2.2 protocol. The current
// evaluator keeps running restricted to matches containing at least one
// pre-migration event; the new evaluator starts with empty core state
// (all its matches are post-migration by construction) but inherits the
// residual buffers so negation and Kleene scopes spanning the migration
// point stay correct. The new evaluator is the one that retired last,
// re-planned in place — p copied into its plan's arrays, its tables,
// places and pooled partials reused — or, when none has retired yet, a
// new one.
func (r *runner) migrate(p plan.Plan) {
	t0 := time.Now()
	boundary := r.lastSeq + 1
	r.cur.SetEmitOnlyBefore(boundary)
	r.draining = append(r.draining, drainingEngine{
		eval:     r.cur,
		retireAt: r.watermark + r.pat.Window,
	})
	next := r.spare
	if next == nil {
		next = r.buildEvaluator(p.Clone())
	} else {
		r.spare = nil
		next.Replan(p.CopyTo(next.Plan()))
	}
	next.Resolver().SeedFrom(r.cur.Resolver())
	next.Advance(r.watermark)
	r.cur = next
	r.curPlan = next.Plan()
	r.metrics.MigrateTime += time.Since(t0)
}

// fold adds an evaluator's counters to m: a retired one's to the loop's
// metrics, the live ones' to a copy of those.
func (m *Metrics) fold(ev evaluator) {
	s := ev.Stats()
	m.PMCreated += s.PMCreated
	m.PredEvals += s.PredEvals
	m.Suppressed += s.Suppressed
	m.PeakPMs = max(m.PeakPMs, s.PeakPMs)
}

func (r *runner) finish() {
	for _, d := range r.draining {
		d.eval.Finish()
		r.metrics.fold(d.eval)
	}
	r.draining, r.spare = nil, nil
	r.cur.Finish()
}

// snapshotMetrics combines loop metrics with evaluator counters.
func (r *runner) snapshotMetrics() Metrics {
	m := r.metrics
	m.fold(r.cur)
	for _, d := range r.draining {
		m.fold(d.eval)
	}
	return m
}

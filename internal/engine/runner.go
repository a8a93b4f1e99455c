package engine

import (
	"time"

	"acep/internal/core"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/nfa"
	"acep/internal/pattern"
	"acep/internal/plan"
	"acep/internal/planner"
	"acep/internal/stats"
	"acep/internal/tree"
)

// runner is the detection-adaptation loop of one (non-OR) pattern.
type runner struct {
	pat    *pattern.Pattern
	cfg    Config
	alg    planner.Algorithm // builds into scratch
	policy core.Policy
	est    *stats.Estimator
	// scratch holds what alg's last run returned: the trace, valid until
	// the next run, so the policy installs it at once; and the plan, which
	// is copied out before it is deployed.
	scratch planner.Scratch

	cur      evaluator
	curPlan  plan.Plan
	draining []drainingEngine
	// spare is the evaluator that retired last, its counters folded in:
	// the next replacement re-plans it in place, plan included, and only
	// a replacement that finds none builds an evaluator.
	spare evaluator

	watermark  event.Time
	lastSeq    uint64
	sinceCheck int
	// lastSnap is the most recent adaptation-check snapshot, the
	// estimator's: unchanged until the check after the next one.
	lastSnap *stats.Snapshot
	// unread: nothing reads the statistics — the policy is core.Static,
	// which decides without them, and no shedder asks for LastSnapshots —
	// so the loop neither gathers nor refreshes them.
	unread bool

	metrics Metrics
	retired match.Stats // counters accumulated from retired evaluators
}

// drainingEngine is a pre-migration evaluator still serving matches that
// contain events from its era.
type drainingEngine struct {
	eval evaluator
	// retireAt is the watermark past which no match owned by this
	// evaluator can still complete (migration time + window).
	retireAt event.Time
}

// newRunner builds the loop of one pattern; newAlg makes its plan
// generator over the runner's scratch.
func newRunner(pat *pattern.Pattern, cfg Config, newAlg func(*planner.Scratch) planner.Algorithm, policy core.Policy) (*runner, error) {
	est, err := stats.NewEstimator(pat, cfg.Stats)
	if err != nil {
		return nil, err
	}
	r := &runner{pat: pat, cfg: cfg, policy: policy, est: est}
	r.alg = newAlg(&r.scratch)
	// The initial snapshot may be shared with other engines: the loop only
	// reads it.
	var initial *stats.Snapshot
	if cfg.InitialStats != nil {
		initial = cfg.InitialStats(pat)
	}
	if initial == nil {
		initial = stats.NewSnapshot(pat.NumPositions())
	}
	res := r.alg.Generate(pat, initial)
	r.metrics.PlanGenerations++
	r.cur = r.buildEvaluator(res.Plan.Clone())
	r.curPlan = r.cur.Plan()
	r.policy.Install(res.Trace, initial)
	return r, nil
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
	r.metrics.Events++
	if ev.TS < r.watermark {
		// The evaluation structures index their buffers by timestamp
		// order; a late event cannot be inserted consistently. Drop it
		// and account for it — callers that need late tolerance should
		// reorder with the stream package first.
		r.metrics.LateDropped++
		return
	}
	r.lastSeq = ev.Seq
	r.watermark = ev.TS
	if !r.unread {
		r.est.Observe(ev)
	}

	// Drain pre-migration evaluators; retire those whose era has closed.
	if len(r.draining) > 0 {
		kept := r.draining[:0]
		for _, d := range r.draining {
			if r.watermark > d.retireAt {
				d.eval.Advance(r.watermark) // final flush of parked matches
				r.accumulate(d.eval)
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

	r.sinceCheck++
	if r.sinceCheck >= r.cfg.CheckEvery {
		r.sinceCheck = 0
		r.adaptationCheck()
	}
}

// adaptationCheck is one iteration of the optimizer side of Algorithm 1:
// refresh statistics, consult D, possibly run A and deploy.
func (r *runner) adaptationCheck() {
	var snap *stats.Snapshot
	if !r.unread {
		t0 := time.Now()
		snap = r.est.Snapshot(r.watermark)
		r.lastSnap = snap
		r.metrics.StatTime += time.Since(t0)
	}

	t1 := time.Now()
	should := r.policy.ShouldReoptimize(snap)
	r.metrics.DecisionTime += time.Since(t1)
	r.metrics.DecisionCalls++
	if !should {
		return
	}

	t2 := time.Now()
	res := r.alg.Generate(r.pat, snap)
	curCost := r.curPlan.Cost(snap)
	newCost := res.Plan.Cost(snap)
	better := !res.Plan.Equal(r.curPlan) && newCost < curCost
	r.metrics.PlanTime += time.Since(t2)
	r.metrics.PlanGenerations++

	// Meta-adaptive policies (§3.4(3)) learn from the attempt's outcome.
	if obs, ok := r.policy.(core.OutcomeObserver); ok {
		gain := 0.0
		if better && curCost > 0 {
			gain = (curCost - newCost) / curCost
		}
		obs.ObserveOutcome(gain)
	}

	// Whether or not the plan is deployed, the policy re-anchors on the
	// fresh trace and statistics (paper §3.2: a violation invalidates the
	// current invariants; the threshold baseline likewise resets after a
	// reoptimization attempt). It does so now: the trace lives in the
	// scratch the next run refills.
	r.policy.Install(res.Trace, snap)
	if !better {
		return
	}
	r.migrate(res.Plan)
	r.metrics.Reoptimizations++
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

// accumulate folds a retired evaluator's counters into the runner.
func (r *runner) accumulate(ev evaluator) {
	st := ev.Stats()
	r.retired.PMCreated += st.PMCreated
	r.retired.PredEvals += st.PredEvals
	r.retired.Suppressed += st.Suppressed
	if st.PeakPMs > r.retired.PeakPMs {
		r.retired.PeakPMs = st.PeakPMs
	}
}

func (r *runner) finish() {
	for _, d := range r.draining {
		d.eval.Finish()
		r.accumulate(d.eval)
	}
	r.draining, r.spare = nil, nil
	r.cur.Finish()
}

// snapshotMetrics combines loop metrics with evaluator counters.
func (r *runner) snapshotMetrics() Metrics {
	m := r.metrics
	m.PMCreated = r.retired.PMCreated
	m.PredEvals = r.retired.PredEvals
	m.Suppressed = r.retired.Suppressed
	m.PeakPMs = r.retired.PeakPMs
	add := func(st match.Stats) {
		m.PMCreated += st.PMCreated
		m.PredEvals += st.PredEvals
		m.Suppressed += st.Suppressed
		if st.PeakPMs > m.PeakPMs {
			m.PeakPMs = st.PeakPMs
		}
	}
	add(r.cur.Stats())
	for _, d := range r.draining {
		add(d.eval.Stats())
	}
	return m
}

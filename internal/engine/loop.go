package engine

import (
	"fmt"
	"time"

	"acep/internal/core"
	"acep/internal/event"
	"acep/internal/pattern"
	"acep/internal/plan"
	"acep/internal/planner"
	"acep/internal/stats"
)

// loop is the decision half of one (non-OR) pattern's adaptation loop
// (paper Figure 2, Algorithm 1): the statistics, the decision function D,
// the plan generator A and the deployed plan. It reads the events, never
// what an evaluator makes of them, so a runner, which embeds it, and
// Decisions, which runs it alone, make the same decisions.
type loop struct {
	pat    *pattern.Pattern
	cfg    Config
	alg    planner.Algorithm // builds into scratch
	policy core.Policy
	est    *stats.Estimator
	// scratch holds what alg's last run returned: the trace, valid until
	// the next run, so the policy installs it at once; and the plan, which
	// is copied out before it is deployed.
	scratch planner.Scratch
	curPlan plan.Plan // the deployed plan

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
}

// settle fills in cfg's defaults: what New and Decisions build loops from.
func (cfg *Config) settle() {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 500
	}
	if cfg.NewPolicy == nil {
		cfg.NewPolicy = func() core.Policy { return &core.Invariant{} }
	}
}

// disjuncts lists the patterns that get a loop each: an OR pattern's
// disjuncts, or the pattern itself.
func disjuncts(pat *pattern.Pattern) []*pattern.Pattern {
	if pat.Op == pattern.Or {
		return pat.Subs
	}
	return []*pattern.Pattern{pat}
}

// init builds the loop of pat in place, A over the loop's own scratch,
// and makes A's plan for the initial statistics the deployed one.
func (l *loop) init(pat *pattern.Pattern, cfg Config, policy core.Policy) error {
	est, err := stats.NewEstimator(pat, cfg.stats)
	if err != nil {
		return err
	}
	l.pat, l.cfg, l.policy, l.est = pat, cfg, policy, est
	// A, the plan generation algorithm, is the model's (paper §4.1, §4.2).
	sc := &l.scratch
	switch cfg.Model {
	case GreedyNFA:
		l.alg = planner.Greedy{Scratch: sc}
	case ZStreamTree:
		l.alg = planner.ZStream{Scratch: sc}
	default:
		return fmt.Errorf("engine: unknown model %v", cfg.Model)
	}
	_, static := policy.(core.Static)
	l.unread = static && cfg.Shedding.Policy == nil
	// The initial snapshot may be shared with other engines: the loop only
	// reads it.
	var initial *stats.Snapshot
	if cfg.InitialStats != nil {
		initial = cfg.InitialStats(pat)
	}
	if initial == nil {
		initial = stats.NewSnapshot(pat.NumPositions())
	}
	res := l.alg.Generate(pat, initial)
	l.metrics.PlanGenerations++
	l.curPlan = res.Plan.Clone()
	l.policy.Install(res.Trace, initial)
	return nil
}

// observe takes ev into the statistics and reports whether it is the
// loop's. A late event is dropped and counted: the evaluators index their
// buffers by timestamp order (a caller reorders with package stream).
func (l *loop) observe(ev *event.Event) bool {
	l.metrics.Events++
	if ev.TS < l.watermark {
		l.metrics.LateDropped++
		return false
	}
	l.lastSeq = ev.Seq
	l.watermark = ev.TS
	if !l.unread {
		l.est.Observe(ev)
	}
	return true
}

// due counts an observed event on the check clock and reports whether an
// adaptation check is due.
func (l *loop) due() bool {
	l.sinceCheck++
	if l.sinceCheck < l.cfg.CheckEvery {
		return false
	}
	l.sinceCheck = 0
	return true
}

// check is one iteration of the optimizer side of Algorithm 1: refresh
// the statistics, consult D and, when it fires, run A. It returns A's
// trace when A ran, and A's plan when that differs from and costs less
// than the deployed one: the plan to deploy, in the scratch A's next run
// refills, so the caller copies it out at once.
func (l *loop) check() (deploy plan.Plan, trace *core.Trace) {
	var snap *stats.Snapshot
	if !l.unread {
		t0 := time.Now()
		snap = l.est.Snapshot(l.watermark)
		l.lastSnap = snap
		l.metrics.StatTime += time.Since(t0)
	}

	t1 := time.Now()
	should := l.policy.ShouldReoptimize(snap)
	l.metrics.DecisionTime += time.Since(t1)
	l.metrics.DecisionCalls++
	if !should {
		return nil, nil
	}

	t2 := time.Now()
	res := l.alg.Generate(l.pat, snap)
	curCost := l.curPlan.Cost(snap)
	newCost := res.Plan.Cost(snap)
	better := !res.Plan.Equal(l.curPlan) && newCost < curCost
	l.metrics.PlanTime += time.Since(t2)
	l.metrics.PlanGenerations++

	// Meta-adaptive policies (§3.4(3)) learn from the attempt's outcome.
	if obs, ok := l.policy.(core.OutcomeObserver); ok {
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
	l.policy.Install(res.Trace, snap)
	if !better {
		return nil, res.Trace
	}
	l.metrics.Reoptimizations++
	return res.Plan, res.Trace
}

// Check is one adaptation check of a Decisions run, valid only during the
// callback that receives it: the statistics D read (nil under
// core.Static, which reads none) and, when A ran, A's trace.
type Check struct {
	Snapshot *stats.Snapshot
	Trace    *core.Trace
}

// Decisions makes the decisions of the engine New builds for pat and cfg
// over events — the same loops, with no evaluator — and hands each check
// to each, when non-nil. Its Metrics are the engine's less what the
// evaluators count. A shedding configuration is refused: the shedder
// admits events by what the evaluators hold.
func Decisions(pat *pattern.Pattern, cfg Config, events []event.Event, each func(*Check)) (Metrics, error) {
	if cfg.Shedding.Policy != nil {
		return Metrics{}, fmt.Errorf("engine: Decisions cannot shed: the shedder admits events by what the evaluators hold")
	}
	cfg.settle()
	subs := disjuncts(pat)
	loops := make([]loop, len(subs))
	for i, sub := range subs {
		if err := loops[i].init(sub, cfg, cfg.NewPolicy()); err != nil {
			return Metrics{}, err
		}
	}
	var c Check
	for i := range events {
		for j := range loops {
			l := &loops[j]
			if !l.observe(&events[i]) || !l.due() {
				continue
			}
			p, trace := l.check()
			if p != nil {
				// No evaluator runs the plan it replaces.
				l.curPlan = p.CopyTo(l.curPlan)
			}
			if each != nil {
				c = Check{Snapshot: l.lastSnap, Trace: trace}
				each(&c)
			}
		}
	}
	m := Metrics{EventsArrived: uint64(len(events))}
	for i := range loops {
		m.Merge(loops[i].metrics)
	}
	return m, nil
}

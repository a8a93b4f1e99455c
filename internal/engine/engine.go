// Package engine implements the detection-adaptation loop of an adaptive
// CEP system (paper Figure 2 and Algorithm 1): events flow through the
// evaluation engine built from the current plan while an estimator keeps
// the statistics fresh; every CheckEvery events the reoptimizing decision
// function D inspects the statistics, and when it fires the plan
// generation algorithm A runs. If A's plan improves on the current one it
// is deployed through the §2.2 migration protocol — the old evaluation
// structure keeps serving partial matches that contain pre-migration
// events while the new structure owns all-new matches, and the old
// structure is retired once the window closes over the migration point.
//
// OR patterns are handled as independent sub-loops, one per disjunct,
// each with its own plan, statistics and invariants (the paper's
// multi-pattern "no sharing" setting applied within one composite
// pattern).
package engine

import (
	"fmt"
	"math"
	"time"

	"acep/internal/core"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/plan"
	"acep/internal/shed"
	"acep/internal/stats"
)

// Model selects the evaluation structure and its default plan generation
// algorithm.
type Model int

const (
	// GreedyNFA evaluates order-based plans on the lazy NFA, generated by
	// the greedy algorithm (paper §4.1).
	GreedyNFA Model = iota
	// ZStreamTree evaluates tree-based plans on the ZStream engine,
	// generated by the dynamic-programming algorithm (paper §4.2).
	ZStreamTree
)

// String names the model.
func (m Model) String() string {
	switch m {
	case GreedyNFA:
		return "greedy-nfa"
	case ZStreamTree:
		return "zstream-tree"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ModelFromString parses a model by its command-line name: greedy
// (GreedyNFA) or zstream (ZStreamTree).
func ModelFromString(s string) (Model, error) {
	switch s {
	case "greedy":
		return GreedyNFA, nil
	case "zstream":
		return ZStreamTree, nil
	}
	return 0, fmt.Errorf("engine: unknown model %q (want greedy or zstream)", s)
}

// Config assembles an adaptive engine.
type Config struct {
	// Model picks the evaluation structure (default GreedyNFA).
	Model Model
	// NewPolicy supplies the reoptimizing decision function D. It is called
	// once per adaptation loop — per disjunct of an OR pattern, and per
	// shard above this package — so no two loops share a policy's state.
	// Nil defaults to the invariant-based method with K=1, d=0.
	NewPolicy func() core.Policy
	// stats (tests) tunes the statistics estimator.
	stats stats.Config
	// CheckEvery is the adaptation check interval in events per
	// sub-pattern (default 500). A shard engine's clock counts the events
	// offered to its shard: the router offers none of a type no hosted
	// pattern reads.
	CheckEvery int
	// InitialStats supplies a-priori statistics for the initial plan of a
	// (sub-)pattern before any input is seen; nil (or a nil result) uses
	// an empty snapshot (the paper's "default, empty Stat").
	InitialStats func(*pattern.Pattern) *stats.Snapshot
	// OnMatch receives every detected match: the callback's to keep unless
	// OwnedEmit says otherwise, its events read-only (the matches kept in
	// one slab share their events: match.Keeper).
	OnMatch func(*match.Match)
	// ExternalEvents declares that the caller owns the events' storage:
	// every event pointer handed to Process stays valid, unchanged, until
	// the engine's Floor has passed the event (a shard worker's blocks, or
	// a stream that outlives the engine). The engine then keeps the
	// caller's pointers — no copy going in, and none coming out: a
	// delivered match points at the caller's events. Without it the engine
	// owns the storage: Process copies each event once, into blocks reused
	// behind Floor, and the caller's event is its own again on return.
	ExternalEvents bool
	// OwnedEmit declares that OnMatch reads each match synchronously and
	// retains neither the match nor anything reachable from it (encode or
	// copy inside the callback). The emission structures are then reused,
	// and an engine that owns its events' storage hands out its working
	// match instead of a copy, so the steady-state emit path allocates
	// nothing.
	OwnedEmit bool
	// Shedding configures the overload-control layer (see internal/shed):
	// with a policy and a budget set, events may be dropped before
	// detection while the engine is over budget. The zero value disables
	// shedding entirely.
	Shedding shed.Config
}

// Metrics aggregates the loop's counters. Times cover the adaptation
// machinery only; wall-clock throughput is measured by the caller.
type Metrics struct {
	Events          uint64
	Matches         uint64
	LateDropped     uint64        // out-of-order events discarded
	EventsArrived   uint64        // events offered to the engine, pre-shedding (counted once, not per disjunct runner)
	EventsShed      uint64        // events dropped by the shedding policy
	QueueDropped    uint64        // events dropped on ingestion-queue overflow
	DecisionCalls   uint64        // invocations of D
	PlanGenerations uint64        // invocations of A
	Reoptimizations uint64        // actual plan replacements
	DecisionTime    time.Duration // time spent in D
	PlanTime        time.Duration // time spent in A (and plan comparison)
	StatTime        time.Duration // time spent refreshing snapshots
	// What the replacements cost beyond A: MigrateTime is the time spent
	// deploying them (re-planning the retired evaluator or building one,
	// seeding its residual buffers, advancing it), DrainEvents the events
	// handed to draining evaluators, and Suppressed the completions those
	// withheld, every one of them work the new plan repeats.
	MigrateTime time.Duration
	DrainEvents uint64
	Suppressed  uint64
	PMCreated   uint64
	PredEvals   uint64
	PeakPMs     int
	// Latency percentiles (the groundwork latency-aware shedding needs),
	// in wall-clock nanoseconds, sampled by the shard layer (the
	// single-process engine has no ingestion queue and leaves both empty).
	// QueueWait is seal-to-dequeue: how long a cut sat in its shard's
	// queue, from the moment it was sealed to the moment the worker took
	// it, charged once to every event of the cut — time an event spent in
	// the open cut before the seal (a slow feed) is not queueing and is not
	// counted. DetectTime is the time inside the evaluator, per sampled
	// event. Read with e.g. QueueWait.Quantile(0.99).
	QueueWait  stats.Quantile
	DetectTime stats.Quantile
}

// ShedRate is the fraction of arriving events dropped by overload control
// (policy shedding plus queue overflow). The denominator is the true
// arrival count: EventsArrived (counted once per event at the engine
// boundary, unlike Events, which OR patterns count once per disjunct
// runner) plus the queue-dropped events that never reached an engine.
func (m Metrics) ShedRate() float64 {
	total := m.EventsArrived + m.QueueDropped
	if total == 0 {
		return 0
	}
	return float64(m.EventsShed+m.QueueDropped) / float64(total)
}

// RecallEstimate crudely estimates match recall under shedding as
// (1-ShedRate)^size: a match needs size events, each independently
// surviving the shedder. Uniform random shedding tracks this closely;
// the pattern-aware policy is designed to beat it (its drops are
// anti-correlated with live partial matches), so treat the estimate as a
// lower bound there.
func (m Metrics) RecallEstimate(size int) float64 {
	r := 1.0
	keep := 1 - m.ShedRate()
	for i := 0; i < size; i++ {
		r *= keep
	}
	return r
}

// Overhead returns the fraction of total elapsed time spent in D and A —
// the paper's "computational overhead" metric.
func (m Metrics) Overhead(total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(m.DecisionTime+m.PlanTime) / float64(total)
}

// StatShare returns the fraction of total elapsed time spent refreshing
// the statistics D and A read, which Overhead leaves out.
func (m Metrics) StatShare(total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(m.StatTime) / float64(total)
}

// Merge folds another engine's metrics into m: counters add, peaks take
// the maximum. The shard layer uses it to aggregate per-shard engines
// into one stream-wide view, and an engine its runners'.
func (m *Metrics) Merge(o Metrics) {
	m.Events += o.Events
	m.Matches += o.Matches
	m.LateDropped += o.LateDropped
	m.EventsArrived += o.EventsArrived
	m.EventsShed += o.EventsShed
	m.QueueDropped += o.QueueDropped
	m.DecisionCalls += o.DecisionCalls
	m.PlanGenerations += o.PlanGenerations
	m.Reoptimizations += o.Reoptimizations
	m.DecisionTime += o.DecisionTime
	m.PlanTime += o.PlanTime
	m.StatTime += o.StatTime
	m.MigrateTime += o.MigrateTime
	m.DrainEvents += o.DrainEvents
	m.Suppressed += o.Suppressed
	m.PMCreated += o.PMCreated
	m.PredEvals += o.PredEvals
	if o.PeakPMs > m.PeakPMs {
		m.PeakPMs = o.PeakPMs
	}
	m.QueueWait.Merge(&o.QueueWait)
	m.DetectTime.Merge(&o.DetectTime)
}

// evaluator is the common surface of the two evaluation engines.
type evaluator interface {
	Process(*event.Event)
	ProcessMasked(*event.Event, uint32)
	SetOwnedEmit(bool)
	Advance(event.Time)
	Floor() event.Time
	Finish()
	SetEmitOnlyBefore(uint64)
	Resolver() *match.Resolver
	Plan() plan.Plan
	// Replan makes a retired evaluator the one New would build for the
	// same pattern and p, in the storage it has (nfa.Engine.Replan).
	Replan(p plan.Plan)
	Stats() match.Stats
	// Shedding introspection (see internal/shed.Probe).
	LivePMs() int
	HotTypes(mark []bool)
	HotKeys(key func(*event.Event) uint64, add func(uint64))
}

// Engine is the public adaptive engine: one runner per (sub-)pattern.
type Engine struct {
	runners []*runner
	shedder *shed.Shedder
	metrics Metrics // engine-level counters (shedding)
	// split is set for OR patterns, whose runners evaluate per-disjunct
	// sub-patterns: a mask computed against the top-level pattern indexes
	// the wrong positions there, so ProcessMasked strips it.
	split bool
	// arena holds the one copy of each admitted event that every runner's
	// evaluators — current and draining, all disjuncts — point into; nil
	// under Config.ExternalEvents, where the caller holds the events.
	arena *match.Arena
	keep  *match.Keeper // what a match leaves the arena in, unless OwnedEmit
}

// New builds an adaptive engine for the pattern.
func New(pat *pattern.Pattern, cfg Config) (*Engine, error) {
	cfg.settle()
	e := &Engine{split: pat.Op == pattern.Or}
	if !cfg.ExternalEvents {
		// The engine owns the events' storage: it interns once, releases on
		// its own Floor, and keeps what leaves — a match the evaluators
		// emit points into blocks that will be overwritten.
		e.arena = &match.Arena{}
		e.arena.SetRecycle(true)
		if deliver := cfg.OnMatch; deliver != nil && !cfg.OwnedEmit {
			e.keep = &match.Keeper{}
			cfg.OnMatch = func(m *match.Match) { deliver(e.keep.Keep(m)) }
		}
		cfg.OwnedEmit = true
	}
	for _, sub := range disjuncts(pat) {
		r := &runner{}
		if err := r.init(sub, cfg, cfg.NewPolicy()); err != nil {
			return nil, err
		}
		r.cur = r.buildEvaluator(r.curPlan)
		e.runners = append(e.runners, r)
	}
	sh, err := shed.New(cfg.Shedding, pat, e)
	if err != nil {
		return nil, err
	}
	e.shedder = sh
	return e, nil
}

// Process feeds one event; events must arrive in non-decreasing timestamp
// order with unique, increasing Seq numbers. With shedding configured the
// event may be dropped before detection; the drop is counted in
// Metrics().EventsShed.
func (e *Engine) Process(ev *event.Event) { e.ProcessMasked(ev, 0) }

// ProcessMasked is Process with a precomputed unary predicate mask for
// the event (see pattern.MaskValid); a zero mask means "none" and
// predicates are evaluated per event as usual.
func (e *Engine) ProcessMasked(ev *event.Event, mask uint32) {
	if e.split {
		mask = 0 // per-disjunct runners can't use top-level position bits
	}
	e.metrics.EventsArrived++
	if e.shedder != nil && !e.shedder.Admit(ev) {
		e.metrics.EventsShed++
		return
	}
	if e.arena != nil {
		if e.arena.Full() {
			e.arena.Release(e.Floor())
		}
		ev = e.arena.Intern(ev)
	}
	for _, r := range e.runners {
		r.process(ev, mask)
	}
}

// Floor reports a timestamp no event the engine can still reach lies
// before — the least over every runner's current and draining evaluators
// (see match.Frame.Floor) — or the largest Time while no event has reached
// a runner, which then holds nothing. A shed event advances nothing, so
// an engine that sheds keeps its floor where its last admitted event
// left it: that holds the storage back — the engine's own, or under
// ExternalEvents the caller's — never the detection.
func (e *Engine) Floor() event.Time {
	floor := event.Time(math.MaxInt64)
	e.evaluators(func(r *runner, ev evaluator) {
		if r.metrics.Events > 0 {
			floor = min(floor, ev.Floor())
		}
	})
	return floor
}

// evaluators calls f on every runner's current and draining evaluators.
func (e *Engine) evaluators(f func(*runner, evaluator)) {
	for _, r := range e.runners {
		f(r, r.cur)
		for _, d := range r.draining {
			f(r, d.eval)
		}
	}
}

// Finish flushes parked matches at end of stream.
func (e *Engine) Finish() {
	for _, r := range e.runners {
		r.finish()
	}
}

// Metrics aggregates over all runners plus the engine-level shedding
// counters.
func (e *Engine) Metrics() Metrics {
	m := e.metrics
	for _, r := range e.runners {
		m.Merge(r.snapshotMetrics())
	}
	return m
}

// SetLatencyProbe attaches a queue-wait p99 source (nanoseconds) to the
// shedding monitor, activating the Budget.QueueWait latency dimension
// (the shard layer points it at the worker's queue-wait estimator). A
// no-op without shedding configured.
func (e *Engine) SetLatencyProbe(f func() float64) {
	if e.shedder != nil {
		e.shedder.SetLatencyProbe(f)
	}
}

// LivePMs implements shed.Probe: the live partial matches across every
// runner's current and draining evaluators.
func (e *Engine) LivePMs() (n int) {
	e.evaluators(func(_ *runner, ev evaluator) { n += ev.LivePMs() })
	return n
}

// HotTypes implements shed.Probe, aggregating over every runner's current
// and draining evaluators (a draining evaluator's partial matches can
// still complete, so their extensions stay protected through migration).
func (e *Engine) HotTypes(mark []bool) {
	e.evaluators(func(_ *runner, ev evaluator) { ev.HotTypes(mark) })
}

// HotKeys implements shed.Probe; see HotTypes for the aggregation scope.
func (e *Engine) HotKeys(key func(*event.Event) uint64, add func(uint64)) {
	e.evaluators(func(_ *runner, ev evaluator) { ev.HotKeys(key, add) })
}

// LastSnapshots implements shed.Probe: the most recent statistics
// snapshot of every (sub-)pattern's adaptation loop, aligned with the
// pattern's disjuncts; entries are nil before that loop's first check,
// and always under core.Static without a shedder, where no loop gathers
// statistics. Each is its estimator's storage, unchanged until the check
// after the next one (stats.Estimator.Snapshot).
func (e *Engine) LastSnapshots() []*stats.Snapshot {
	out := make([]*stats.Snapshot, len(e.runners))
	for i, r := range e.runners {
		out[i] = r.lastSnap
	}
	return out
}

// CurrentPlans reports a copy of the plan in effect for each
// (sub-)pattern: the caller's to keep, since a replacement re-plans a
// retired evaluator, plan and all, in place.
func (e *Engine) CurrentPlans() []plan.Plan {
	var out []plan.Plan
	for _, r := range e.runners {
		out = append(out, r.curPlan.Clone())
	}
	return out
}

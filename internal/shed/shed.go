// Package shed is the overload-control layer: when the input rate exceeds
// what the current evaluation plan can absorb, it drops events *before*
// they reach the detection engines, trading match recall for bounded
// resource usage. Adaptation (re-planning) keeps detection cheap when the
// data distribution moves; shedding keeps the system alive when even the
// best plan cannot keep up.
//
// The layer has three parts:
//
//   - a load monitor that compares the live partial-match count, the
//     logical arrival rate and the p99 ingestion-queue wait against
//     configurable budgets and reduces them to one utilization figure
//     (>= 1 means overloaded);
//   - pluggable shedding policies (None, Random, RateUtility,
//     PatternAware) that decide, per event, whether to drop it while the
//     system is overloaded;
//   - a Shedder that drives both: it samples the engine through the Probe
//     introspection interface, refreshes the policy's decision state at a
//     fixed event cadence, and accounts every decision.
//
// Shedding preserves precision and sacrifices recall: events of negated
// pattern positions are never dropped (dropping one could surface a match
// the full stream forbids), so every match emitted under shedding is a
// true match of the shedded stream and a subset of the full match set for
// negation-free patterns. Kleene matches may carry fewer closure events
// than the full stream would produce.
//
// All decisions are deterministic functions of the event sequence and the
// configuration: the per-event random draw is a hash of the event's
// sequence number, and the load monitor measures logical (timestamp)
// rather than wall-clock rate. Two runs over the same stream shed the
// same events.
package shed

import (
	"fmt"
	"time"

	"acep/internal/event"
	"acep/internal/pattern"
	"acep/internal/stats"
)

// Budget sets the capacity targets the load monitor measures against.
// Zero-valued dimensions are unbudgeted (never contribute to load). With
// no dimension set the shedder never activates.
type Budget struct {
	// LivePMs is the target number of live partial matches across the
	// engine (the memory/work proxy the paper's cost models minimize).
	LivePMs int
	// EventsPerSec is the target arrival rate in events per logical
	// second, measured over consecutive stream seconds.
	EventsPerSec float64
	// QueueWait is the target p99 ingestion-queue wait: the latency
	// budget. Meaningful only when a latency probe is attached — the
	// shard layer wires it to each worker's queue-wait estimator
	// (Metrics.QueueWait: seal-to-dequeue, the time a sealed cut waits for
	// its worker) — so the monitor activates when events wait too long,
	// even while the rate looks healthy (e.g. a slow shard behind a
	// generous queue). A slow feed is not a backlog and does not count.
	QueueWait time.Duration
}

// unset reports whether no budget dimension is configured.
func (b Budget) unset() bool {
	return b.LivePMs <= 0 && b.EventsPerSec <= 0 && b.QueueWait <= 0
}

// Probe is the engine-side introspection surface the shedder samples at
// every refresh. The detection engines expose their live partial-match
// state through it; see engine.Engine.
type Probe interface {
	// LivePMs reports the current number of live partial matches.
	LivePMs() int
	// HotTypes marks (in the given slice, indexed by event type) every
	// type that could extend a live partial match right now.
	HotTypes(mark []bool)
	// HotKeys calls add with key(ev) for one representative event of
	// every live partial match; key extracts the partition-key value.
	HotKeys(key func(*event.Event) uint64, add func(uint64))
	// LastSnapshots returns the most recent statistics snapshot of every
	// (sub-)pattern's adaptation loop, aligned with the pattern's
	// disjuncts (one entry for a non-OR pattern); entries are nil before
	// that loop's first check.
	LastSnapshots() []*stats.Snapshot
}

// Config assembles a Shedder. The zero value disables shedding (nil
// Policy). Config is a pure value: the engine layers copy it per shard,
// and each copy builds its own Shedder; Policy implementations are
// stateless and safely shared (their decision state lives in the View).
type Config struct {
	// Policy decides which events to drop while overloaded; nil disables
	// the layer entirely.
	Policy Policy
	// Budget sets the load targets. Shedding activates when any budgeted
	// dimension reaches utilization 1.
	Budget Budget
	// Key extracts the partition-key value PatternAware protects; nil
	// disables key-level protection (type-level hotness still applies).
	// The sharded layer defaults it to the shard key.
	Key func(*event.Event) uint64
}

// refreshEvery is the event cadence of load sampling, hot-set rebuilds
// and policy refreshes. Smaller values would track live state more
// closely at higher introspection cost.
const refreshEvery = 128

// View is the decision state a Shedder maintains for its Policy: the
// current load, the most recent hot sets and statistics, and the per-type
// drop probabilities the policy computed at its last Refresh. One View
// belongs to one Shedder (one engine); policies must keep all mutable
// state here so that a single Policy value can serve many shards.
type View struct {
	// Load is the current utilization; >= 1 means overloaded. Policies
	// are only consulted while overloaded.
	Load float64
	// Patterns lists the detected (sub-)patterns — every disjunct of an
	// OR pattern, or the pattern alone — and Snapshots the matching
	// statistics snapshots (entries nil before that loop's first check).
	// A snapshot is its loop's storage, refilled two checks on: a policy
	// reads Snapshots during Refresh only, and Clones what it keeps.
	Patterns  []*pattern.Pattern
	Snapshots []*stats.Snapshot
	// HotType[t] reports whether an event of type t could extend a live
	// partial match; sized by the largest type the pattern references.
	HotType []bool
	// HotKeys holds the partition-key values of live partial matches
	// (nil when no Key extractor is configured).
	HotKeys map[uint64]struct{}
	// Key extracts an event's partition-key value (nil if unset).
	Key func(*event.Event) uint64
	// Shares[t] is the observed arrival share of type t since the last
	// refresh (decayed); types beyond the slice have share 0.
	Shares []float64
	// DropProb[t] is the policy-computed drop probability for type t;
	// DefaultProb applies to types beyond the slice.
	DropProb    []float64
	DefaultProb float64
	// SeenTotal/SeenHot are rolling decision counts PatternAware uses to
	// compensate its drop rate for the protected fraction.
	SeenTotal, SeenHot float64
}

// Hot reports whether the event is protected by liveness: its type can
// extend a live partial match and — when a Key extractor is configured —
// its key occurs in one. The conjunction keeps the protected set sharp on
// keyed workloads: an event extends a live PM only if both its type is
// awaited and its entity has detection in flight; either test alone
// over-protects (every event of a frequent type, or every event of an
// active entity) and starves the shedder of droppable mass.
func (v *View) Hot(ev *event.Event) bool {
	if int(ev.Type) >= len(v.HotType) || !v.HotType[ev.Type] {
		return false
	}
	if v.Key == nil {
		return true
	}
	_, ok := v.HotKeys[v.Key(ev)]
	return ok
}

// Policy is a shedding decision function. Implementations must be
// stateless value types (all mutable state lives in the View) so that one
// Policy can be shared across shard engines.
type Policy interface {
	// Name identifies the policy in metrics and benchmark output.
	Name() string
	// Refresh recomputes the policy's decision state (typically
	// View.DropProb) from the freshly sampled view. Called every 128
	// events while overloaded.
	Refresh(v *View)
	// Drop decides one event; rnd is a deterministic uniform draw in
	// [0,1). Only consulted while overloaded, and never for events of
	// negated pattern positions.
	Drop(ev *event.Event, v *View, rnd float64) bool
}

// Shedder fronts one engine's Process path: Admit decides every event,
// refreshing load and hot-set state at the configured cadence. Not safe
// for concurrent use; each engine drives its own.
type Shedder struct {
	cfg   Config
	probe Probe
	view  View

	protected []bool // types at negated positions: never dropped
	rate      rateMeter
	latency   func() float64 // optional p99 queue-wait in nanos, set by the shard layer

	counts       []uint64 // per-type arrivals since last refresh
	total        uint64
	sinceRefresh int
	primed       bool

	shed, kept uint64
}

// New builds a shedder for the pattern, sampling the given probe. A nil
// policy yields a nil shedder (callers treat nil as "no shedding").
func New(cfg Config, pat *pattern.Pattern, probe Probe) (*Shedder, error) {
	if cfg.Policy == nil {
		return nil, nil
	}
	if pat == nil {
		return nil, fmt.Errorf("shed: nil pattern")
	}
	if probe == nil {
		return nil, fmt.Errorf("shed: nil probe")
	}
	if cfg.Budget.unset() {
		return nil, fmt.Errorf("shed: policy %q configured without any budget; set Budget.LivePMs, EventsPerSec or QueueWait", cfg.Policy.Name())
	}
	subs := []*pattern.Pattern{pat}
	if pat.Op == pattern.Or {
		subs = pat.Subs
	}
	maxType := 0
	for _, sub := range subs {
		for _, pos := range sub.Positions {
			if pos.Type > maxType {
				maxType = pos.Type
			}
		}
	}
	s := &Shedder{
		cfg:       cfg,
		probe:     probe,
		protected: make([]bool, maxType+1),
		counts:    make([]uint64, maxType+1),
	}
	for _, sub := range subs {
		for _, pos := range sub.Positions {
			if pos.Neg {
				s.protected[pos.Type] = true
			}
		}
	}
	s.view = View{
		Patterns: subs,
		HotType:  make([]bool, maxType+1),
		Key:      cfg.Key,
		Shares:   make([]float64, maxType+1),
		DropProb: make([]float64, maxType+1),
	}
	return s, nil
}

// SetLatencyProbe attaches the queue-wait p99 source in nanoseconds (the
// shard layer's per-worker estimator). Must be set before the first
// Admit.
func (s *Shedder) SetLatencyProbe(f func() float64) { s.latency = f }

// Policy returns the configured policy.
func (s *Shedder) Policy() Policy { return s.cfg.Policy }

// grow extends the type-indexed state to cover types beyond the
// pattern's (streams routinely carry types no position references, and
// those are exactly the mass the utility policies shed first).
func (s *Shedder) grow(n int) {
	for len(s.counts) < n {
		s.counts = append(s.counts, 0)
	}
	v := &s.view
	for len(v.Shares) < n {
		v.Shares = append(v.Shares, 0)
	}
	for len(v.DropProb) < n {
		v.DropProb = append(v.DropProb, v.DefaultProb)
	}
	for len(v.HotType) < n {
		v.HotType = append(v.HotType, false)
	}
}

// Admit decides one event: true to process it, false to shed it. The
// caller must invoke Admit exactly once per arriving event, in stream
// order.
func (s *Shedder) Admit(ev *event.Event) bool {
	s.rate.observe(ev.TS)
	if int(ev.Type) >= len(s.counts) {
		s.grow(int(ev.Type) + 1)
	}
	s.counts[ev.Type]++
	s.total++
	s.sinceRefresh++
	if !s.primed || s.sinceRefresh >= refreshEvery {
		s.refresh()
	}
	if s.view.Load < 1 {
		s.kept++
		return true
	}
	if int(ev.Type) < len(s.protected) && s.protected[ev.Type] {
		s.kept++
		return true
	}
	if s.cfg.Policy.Drop(ev, &s.view, uniform(ev.Seq)) {
		s.shed++
		return false
	}
	s.kept++
	return true
}

// refresh samples load and, when overloaded, rebuilds the hot sets and
// lets the policy recompute its decision state.
func (s *Shedder) refresh() {
	s.primed = true
	s.sinceRefresh = 0
	s.view.Load = s.load()
	// Fold the arrival counts into decayed shares so RateUtility sees
	// every type's mass (the statistics snapshot only covers pattern
	// positions).
	if s.total > 0 {
		for t := range s.view.Shares {
			obs := float64(s.counts[t]) / float64(s.total)
			s.view.Shares[t] = 0.5*obs + 0.5*s.view.Shares[t]
			s.counts[t] = 0
		}
		s.total = 0
	}
	if s.view.Load < 1 {
		return
	}
	s.view.Snapshots = s.probe.LastSnapshots()
	for t := range s.view.HotType {
		s.view.HotType[t] = false
	}
	s.probe.HotTypes(s.view.HotType)
	if s.view.Key != nil {
		s.view.HotKeys = make(map[uint64]struct{})
		s.probe.HotKeys(s.view.Key, func(k uint64) {
			s.view.HotKeys[k] = struct{}{}
		})
	}
	s.cfg.Policy.Refresh(&s.view)
}

// load reduces the budgeted dimensions to one utilization figure: the
// maximum of the per-dimension utilizations.
func (s *Shedder) load() float64 {
	u := 0.0
	if s.cfg.Budget.LivePMs > 0 {
		if v := float64(s.probe.LivePMs()) / float64(s.cfg.Budget.LivePMs); v > u {
			u = v
		}
	}
	if s.cfg.Budget.EventsPerSec > 0 {
		if v := s.rate.rate / s.cfg.Budget.EventsPerSec; v > u {
			u = v
		}
	}
	if s.cfg.Budget.QueueWait > 0 && s.latency != nil {
		if v := s.latency() / float64(s.cfg.Budget.QueueWait); v > u {
			u = v
		}
	}
	return u
}

// Shed reports the number of events dropped so far.
func (s *Shedder) Shed() uint64 { return s.shed }

// Kept reports the number of events admitted so far.
func (s *Shedder) Kept() uint64 { return s.kept }

// Load reports the utilization measured at the last refresh.
func (s *Shedder) Load() float64 { return s.view.Load }

// rateMeter measures the logical arrival rate (events per stream second)
// over consecutive buckets of one stream second.
type rateMeter struct {
	start   event.Time
	count   int
	started bool
	rate    float64 // last completed bucket
}

func (r *rateMeter) observe(ts event.Time) {
	if !r.started {
		r.started = true
		r.start = ts
	}
	if ts-r.start >= event.Second {
		r.rate = float64(r.count) * float64(event.Second) / float64(ts-r.start)
		r.start = ts
		r.count = 0
	}
	r.count++
}

// uniform derives a deterministic uniform draw in [0,1) from an event's
// sequence number (splitmix64 finalizer over seq).
func uniform(seq uint64) float64 {
	x := seq
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

package multi

import (
	"fmt"
	"math"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/nfa"
	"acep/internal/pattern"
	"acep/internal/plan"
	"acep/internal/shed"
)

// Options assembles an Evaluator.
type Options struct {
	// OnMatch receives every match, tagged with the emitting pattern's
	// id. Required. Unless OwnedEmit says otherwise the match is the
	// callback's to keep.
	OnMatch func(id uint32, m *match.Match)
	// OwnedEmit declares that OnMatch reads each match synchronously and
	// retains nothing of it (encode or copy inside): see
	// engine.Config.OwnedEmit.
	OwnedEmit bool
	// StableInput declares that the caller owns the events' storage: every
	// event pointer handed to Process stays valid, unchanged, until Floor
	// has passed the event, and a delivered match points at the caller's
	// events (see engine.Config.ExternalEvents). Without it the evaluator
	// owns the storage: Process copies each event once for the whole set,
	// into blocks reused behind Floor.
	StableInput bool
	// Budgets installs per-tenant token buckets; tenants absent from
	// the map are unbudgeted. See shed.TenantGate.
	Budgets map[uint32]shed.TenantBudget
}

// PatternMetrics is one pattern's engine counters, tagged for the wire.
type PatternMetrics struct {
	ID     uint32
	Tenant uint32
	M      engine.Metrics
}

// sink is one registered pattern's evaluation state: either a full
// adaptive engine (independent patterns) or a fixed-plan NFA resuming
// from shared-prefix seeds (group members).
type sink struct {
	spec   Spec
	eng    *engine.Engine // independent path
	seeded *nfa.Engine    // shared-prefix path
	recipe [][]posRecipe  // per event type: mask composition, nil if unscannable
	tslot  int            // tenant slot index

	arrived uint64 // events offered, pre-gate
	gated   uint64 // events shed by the tenant gate
	late    uint64 // out-of-order events dropped at the evaluator
	events  uint64 // events reaching the seeded NFA (independent path counts its own)
}

// posRecipe composes one position's mask bit from global verdicts.
type posRecipe struct {
	bit   uint32
	preds []int
}

// runnerState is one shared-prefix runner and its subscribers.
type runnerState struct {
	eng    *nfa.Engine
	recipe [][]posRecipe
	subs   []*sink
	tenant uint32
	tslot  int
	group  PrefixGroup
}

// Evaluator drives a pattern set over one event stream, evaluating
// shared work once. Not safe for concurrent use; the shard layer runs
// one evaluator per worker.
type Evaluator struct {
	opt    Options
	schema *event.Schema

	sinks   []*sink
	byID    map[uint32]*sink
	runners []*runnerState

	// Shared unary verdict table: one entry per distinct predicate,
	// memoized per event via epoch stamps.
	preds   []globalPred
	predID  map[predKey]int
	verdict []bool
	stamp   []uint64
	epoch   uint64

	// Tenant gating: slot-indexed per-event admission memo.
	gate     *shed.TenantGate
	tenants  []uint32
	tslotOf  map[uint32]int
	admit    []bool
	fed      []bool // per slot: the gate has admitted an event
	maxTypes int

	// Ingestion-queue probes for the hosted engines' shedders (see
	// SetProbes); nil outside the shard layer.
	queueProbe   func() (depth, capacity int)
	latencyProbe func() float64

	// arena holds the one copy of each event every hosted engine points
	// into; nil with StableInput, where the caller holds the events.
	arena *match.Arena

	watermark event.Time
	started   bool
	predEvals uint64 // shared-table evaluations (for diagnostics)
}

// NewEvaluator builds the evaluation state for an analyzed set.
func NewEvaluator(set *Set, opt Options) (*Evaluator, error) {
	if opt.OnMatch == nil {
		return nil, fmt.Errorf("multi: Options.OnMatch is required")
	}
	v := &Evaluator{
		opt:     opt,
		schema:  set.schema,
		byID:    make(map[uint32]*sink),
		preds:   append([]globalPred(nil), set.preds...),
		predID:  make(map[predKey]int, len(set.predID)),
		gate:    shed.NewTenantGate(opt.Budgets),
		tslotOf: make(map[uint32]int),
	}
	for k, id := range set.predID {
		v.predID[k] = id
	}
	v.verdict = make([]bool, len(v.preds))
	v.stamp = make([]uint64, len(v.preds))
	if !opt.StableInput {
		// The evaluator owns the events' storage: it interns once, releases
		// on its own Floor, and copies what leaves.
		v.arena = &match.Arena{}
		v.arena.SetRecycle(true)
		if deliver := opt.OnMatch; !opt.OwnedEmit {
			v.opt.OnMatch = func(id uint32, m *match.Match) { deliver(id, m.Clone()) }
		}
		v.opt.OwnedEmit = true
	}

	for gi := range set.Groups {
		g := set.Groups[gi]
		r := &runnerState{tenant: g.Tenant, tslot: v.tenantSlot(g.Tenant), group: g}
		// The emit closure reads r.subs at call time, so runtime
		// subscribe/unsubscribe takes effect without rebinding.
		run := nfa.New(g.Prefix, plan.NewOrderPlan(g.Prefix.Core()), func(m *match.Match) {
			for _, s := range r.subs {
				s.seeded.Seed(m.Events)
			}
		})
		run.SetOwnedEmit(true)
		r.eng = run
		r.recipe = v.buildRecipe(g.Prefix)
		v.runners = append(v.runners, r)
	}
	for i := range set.Specs {
		s, err := v.buildSink(set.Specs[i], set.GroupOf(i))
		if err != nil {
			return nil, err
		}
		v.sinks = append(v.sinks, s)
		v.byID[s.spec.ID] = s
	}
	return v, nil
}

func (v *Evaluator) buildSink(sp Spec, group int) (*sink, error) {
	if _, dup := v.byID[sp.ID]; dup {
		return nil, fmt.Errorf("multi: duplicate pattern id %d", sp.ID)
	}
	s := &sink{spec: sp, tslot: v.tenantSlot(sp.Tenant)}
	s.recipe = v.buildRecipe(sp.Pattern)
	v.growTypes(sp.Pattern)
	if group >= 0 {
		r := v.runners[group]
		e := nfa.New(sp.Pattern, plan.NewOrderPlan(sp.Pattern.Core()), func(m *match.Match) {
			v.opt.OnMatch(sp.ID, m)
		})
		if err := e.SetSharedPrefix(r.group.Len); err != nil {
			return nil, err
		}
		e.SetOwnedEmit(v.opt.OwnedEmit)
		s.seeded = e
		r.subs = append(r.subs, s)
		return s, nil
	}
	cfg := sp.Config
	cfg.OnMatch = func(m *match.Match) { v.opt.OnMatch(sp.ID, m) }
	cfg.ExternalEvents = true
	cfg.OwnedEmit = v.opt.OwnedEmit
	eng, err := engine.New(sp.Pattern, cfg)
	if err != nil {
		return nil, fmt.Errorf("multi: pattern %d: %w", sp.ID, err)
	}
	eng.SetQueueProbe(v.queueProbe)
	eng.SetLatencyProbe(v.latencyProbe)
	s.eng = eng
	return s, nil
}

// SetProbes attaches an ingestion-queue depth source and a queue-wait p99
// source (nanoseconds) to the shedding monitor of every hosted engine,
// present and future — the shard layer points them at the worker's
// channel and queue-wait estimator; see engine.Engine.SetQueueProbe and
// SetLatencyProbe. Engines without shedding ignore them.
func (v *Evaluator) SetProbes(queue func() (depth, capacity int), latency func() float64) {
	v.queueProbe, v.latencyProbe = queue, latency
	for _, s := range v.sinks {
		if s.eng != nil {
			s.eng.SetQueueProbe(queue)
			s.eng.SetLatencyProbe(latency)
		}
	}
}

// tenantSlot interns a tenant id into the per-event admission memo.
func (v *Evaluator) tenantSlot(t uint32) int {
	if slot, ok := v.tslotOf[t]; ok {
		return slot
	}
	slot := len(v.tenants)
	v.tenants = append(v.tenants, t)
	v.tslotOf[t] = slot
	v.admit = append(v.admit, true)
	v.fed = append(v.fed, false)
	return slot
}

// growTypes tracks the widest type universe.
func (v *Evaluator) growTypes(p *pattern.Pattern) {
	if p.Op == pattern.Or {
		for _, sub := range p.Subs {
			v.growTypes(sub)
		}
		return
	}
	for _, pos := range p.Positions {
		if pos.Type+1 > v.maxTypes {
			v.maxTypes = pos.Type + 1
		}
	}
}

// buildRecipe precomputes, per event type, how to compose the pattern's
// unary position mask from the shared verdict table. Nil for patterns
// the engines cannot consume masks for (OR, 32+ positions).
func (v *Evaluator) buildRecipe(p *pattern.Pattern) [][]posRecipe {
	if p.Op == pattern.Or || !p.MaskScannable() {
		return nil
	}
	maxType := 0
	for _, pos := range p.Positions {
		if pos.Type > maxType {
			maxType = pos.Type
		}
	}
	rec := make([][]posRecipe, maxType+1)
	for t := 0; t <= maxType; t++ {
		for _, pos := range p.PositionsOfType(t) {
			pr := posRecipe{bit: 1 << uint(pos)}
			for _, cu := range p.Unary(pos) {
				pr.preds = append(pr.preds, v.internPred(t, cu))
			}
			rec[t] = append(rec[t], pr)
		}
	}
	return rec
}

func (v *Evaluator) internPred(typ int, cu pattern.CUnary) int {
	k := predKey{typ: typ, attr: cu.Attr, op: cu.Op, c: math.Float64bits(cu.C)}
	if id, ok := v.predID[k]; ok {
		return id
	}
	id := len(v.preds)
	v.preds = append(v.preds, globalPred{typ: typ, cu: cu})
	v.predID[k] = id
	v.verdict = append(v.verdict, false)
	v.stamp = append(v.stamp, 0)
	return id
}

// verdictOf evaluates global predicate id against e at most once per
// event (epoch memo).
func (v *Evaluator) verdictOf(id int, e *event.Event) bool {
	if v.stamp[id] == v.epoch {
		return v.verdict[id]
	}
	v.stamp[id] = v.epoch
	v.predEvals++
	ok := v.preds[id].cu.Ok(e)
	v.verdict[id] = ok
	return ok
}

// maskFor composes the pattern's position mask for e from shared
// verdicts; 0 (not MaskValid) when the pattern has no recipe.
func (v *Evaluator) maskFor(recipe [][]posRecipe, e *event.Event) uint32 {
	t := int(e.Type)
	if recipe == nil || t >= len(recipe) {
		if recipe == nil {
			return 0
		}
		return pattern.MaskValid
	}
	m := pattern.MaskValid
	for i := range recipe[t] {
		pr := &recipe[t][i]
		ok := true
		for _, id := range pr.preds {
			if !v.verdictOf(id, e) {
				ok = false
				break
			}
		}
		if ok {
			m |= pr.bit
		}
	}
	return m
}

// Process feeds one event through the whole set: tenant gates decide
// once per tenant, shared unary verdicts are memoized across patterns,
// prefix runners run first so their seeds reach subscribers before the
// subscribers see the event (the ordering the seeding contract
// requires), then every pattern advances.
func (v *Evaluator) Process(e *event.Event) {
	if v.started && e.TS < v.watermark {
		for _, s := range v.sinks {
			s.arrived++
			s.late++
		}
		return
	}
	v.started = true
	v.watermark = e.TS
	v.epoch++
	if v.arena != nil {
		if v.arena.Full() {
			v.arena.Release(v.Floor())
		}
		e = v.arena.Intern(e)
	}
	for slot, t := range v.tenants {
		v.admit[slot] = v.gate.Admit(t, e.TS)
		v.fed[slot] = v.fed[slot] || v.admit[slot]
	}
	for _, r := range v.runners {
		if v.admit[r.tslot] {
			r.eng.ProcessMasked(e, v.maskFor(r.recipe, e))
		}
	}
	for _, s := range v.sinks {
		s.arrived++
		if !v.admit[s.tslot] {
			s.gated++
			continue
		}
		mask := v.maskFor(s.recipe, e)
		if s.seeded != nil {
			s.events++
			s.seeded.ProcessMasked(e, mask)
		} else {
			s.eng.ProcessMasked(e, mask)
		}
	}
}

// Floor is the release floor of the events' storage: no hosted engine can
// still reach an event older than it, so the storage's owner — the
// evaluator, or under StableInput the caller — may reuse whatever lies
// wholly before — buffers, partial matches, residuals, parked
// matches and prefix-runner seeds all sit at or after it. It is the least
// engine floor (see engine.Engine.Floor, nfa.Engine.Floor) over the
// engines that have been fed. An engine the evaluator steps over — its
// tenant gated, its shedder dropping — is not advanced on the events it
// skips (advancing would resolve its parked matches at an event it never
// saw); it holds the floor back instead, so storage waits for it for as
// long as it lags and the matches it delivers do not depend on the lag.
func (v *Evaluator) Floor() event.Time {
	floor := event.Time(math.MaxInt64)
	for _, r := range v.runners {
		if v.fed[r.tslot] {
			floor = min(floor, r.eng.Floor())
		}
	}
	for _, s := range v.sinks {
		switch {
		case s.eng != nil:
			floor = min(floor, s.eng.Floor())
		case v.fed[s.tslot]:
			floor = min(floor, s.seeded.Floor())
		}
	}
	return floor
}

// Finish flushes every pattern at end of stream (runners first — their
// final seeds must land before subscribers flush).
func (v *Evaluator) Finish() {
	for _, r := range v.runners {
		r.eng.Finish()
	}
	for _, s := range v.sinks {
		if s.seeded != nil {
			s.seeded.Finish()
		} else {
			s.eng.Finish()
		}
	}
}

// Add registers a pattern at runtime. It joins the shared unary table
// immediately; prefix groups are not re-analyzed (the pattern evaluates
// independently), so existing patterns' output is undisturbed.
func (v *Evaluator) Add(sp Spec) error {
	s, err := v.buildSink(sp, -1)
	if err != nil {
		return err
	}
	v.sinks = append(v.sinks, s)
	v.byID[sp.ID] = s
	return nil
}

// Remove retires a pattern at runtime. A group member is unsubscribed
// from its runner; the runner keeps serving remaining subscribers (and
// is dropped once the last one leaves).
func (v *Evaluator) Remove(id uint32) error {
	s, ok := v.byID[id]
	if !ok {
		return fmt.Errorf("multi: unknown pattern id %d", id)
	}
	delete(v.byID, id)
	for i, t := range v.sinks {
		if t == s {
			v.sinks = append(v.sinks[:i], v.sinks[i+1:]...)
			break
		}
	}
	if s.seeded == nil {
		return nil
	}
	for _, r := range v.runners {
		for i, sub := range r.subs {
			if sub == s {
				r.subs = append(r.subs[:i], r.subs[i+1:]...)
				break
			}
		}
	}
	for i, r := range v.runners {
		if len(r.subs) == 0 {
			v.runners = append(v.runners[:i], v.runners[i+1:]...)
			break
		}
	}
	return nil
}

// Patterns lists the registered pattern ids in evaluation order.
func (v *Evaluator) Patterns() []uint32 {
	out := make([]uint32, len(v.sinks))
	for i, s := range v.sinks {
		out[i] = s.spec.ID
	}
	return out
}

// Plans reports the plan in effect for every pattern (one per disjunct
// of an OR pattern), in evaluation order. Group members report the fixed
// order plan of their suffix automaton.
func (v *Evaluator) Plans() []plan.Plan {
	var out []plan.Plan
	for _, s := range v.sinks {
		if s.seeded != nil {
			out = append(out, s.seeded.Plan())
		} else {
			out = append(out, s.eng.CurrentPlans()...)
		}
	}
	return out
}

// SetBudget installs or replaces a tenant budget at runtime.
func (v *Evaluator) SetBudget(tenant uint32, b shed.TenantBudget) {
	v.tenantSlot(tenant)
	v.gate.SetBudget(tenant, b)
}

// TenantStats reports per-tenant admission accounting.
func (v *Evaluator) TenantStats() []shed.TenantStat { return v.gate.Stats() }

// Metrics reports per-pattern engine counters in evaluation order. For
// group members (fixed-plan NFAs) the adaptive-loop counters are zero
// and the evaluation counters are synthesized from nfa.Stats.
func (v *Evaluator) Metrics() []PatternMetrics {
	out := make([]PatternMetrics, 0, len(v.sinks))
	for _, s := range v.sinks {
		var m engine.Metrics
		if s.eng != nil {
			m = s.eng.Metrics()
		} else {
			st := s.seeded.Stats()
			m = engine.Metrics{
				Events:    s.events,
				Matches:   st.Emitted,
				PMCreated: st.PMCreated,
				PredEvals: st.PredEvals,
				PeakPMs:   st.PeakPMs,
			}
		}
		m.EventsArrived = s.arrived
		m.EventsShed += s.gated
		m.LateDropped += s.late
		out = append(out, PatternMetrics{ID: s.spec.ID, Tenant: s.spec.Tenant, M: m})
	}
	return out
}

// LivePMs sums live partial matches across every pattern and runner
// (shedding introspection for the shard layer).
func (v *Evaluator) LivePMs() int {
	n := 0
	for _, r := range v.runners {
		n += r.eng.LivePMs()
	}
	for _, s := range v.sinks {
		if s.seeded != nil {
			n += s.seeded.LivePMs()
		} else {
			n += s.eng.LivePMs()
		}
	}
	return n
}

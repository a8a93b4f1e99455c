package multi

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	// id. Required. The match is the callback's to keep unless OwnedEmit
	// says otherwise, its events read-only (the matches kept in one slab
	// share their events: match.Keeper).
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

// target is one engine the evaluator drives: a fixed-plan NFA (a prefix
// runner or a group member's suffix automaton) or a full adaptive engine
// (an independent pattern).
type target struct {
	fixed  *nfa.Engine
	eng    *engine.Engine
	recipe [][]posRecipe // per event type: mask composition, nil if unscannable
	tslot  int           // tenant slot index
	// types lists the event types a fixed-plan NFA consumes, when it is
	// handed only those; nil when the engine is handed every event.
	types  []int
	member *sink // set on a suffix-class member: step runs it
}

// sink is one registered pattern's evaluation state.
type sink struct {
	target
	spec    Spec
	base    tally        // the set's counters when the pattern joined
	cls     *suffixClass // the suffix class it is a member of, if any
	matches uint64       // delivered to a suffix-class member
}

// suffixClass is the suffix automaton its members share as their fixed.
// The first member feeds it the OR of their masks; each step (a seed or
// an event) leaves its completions in done for every member to replay.
type suffixClass struct {
	members []*sink
	recipe  [][]posRecipe
	done    []*event.Event
	scratch match.Match
}

// tally is the evaluator's event accounting: events offered, dropped out
// of order, and (per tenant) shed by the tenant gate.
type tally struct{ arrived, late, gated uint64 }

// posRecipe composes one position's mask bit from global verdicts. A
// suffix class's recipe may hold several for one bit: any sets it.
type posRecipe struct {
	bit   uint32
	preds []int
}

// runnerState is one shared-prefix runner and its subscribers.
type runnerState struct {
	target
	subs  []*sink
	group PrefixGroup
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

	// Dispatch (see reroute): targets is every engine, runners first;
	// route[t] the ones an event of type t reaches, in that order, and
	// always the ones every event reaches; skippers the fixed-plan NFAs
	// handed only their own types, and due the earliest NextPrune of them.
	targets  []*target
	route    [][]*target
	always   []*target
	skippers []*target
	due      event.Time

	// Shared unary verdict table: one entry per distinct predicate,
	// memoized per event via epoch stamps.
	preds   []globalPred
	predID  map[predKey]int
	verdict []bool
	stamp   []uint64
	epoch   uint64

	// Tenant gating: slot-indexed per-event admission memo.
	gate    *shed.TenantGate
	tenants []uint32
	tslotOf map[uint32]int
	admit   []bool
	fed     []bool       // per slot: the gate has admitted an event
	last    []event.Time // per slot: the timestamp of the last admitted event
	gated   []uint64     // per slot: events shed by the gate
	arrived uint64       // events offered
	late    uint64       // events dropped out of order

	// The queue-wait p99 source for the hosted engines' shedders (see
	// SetLatencyProbe); nil outside the shard layer.
	latencyProbe func() float64

	// arena holds the one copy of each event every hosted engine points
	// into; nil with StableInput, where the caller holds the events.
	arena *match.Arena
	keep  *match.Keeper // what a match leaves the arena in, unless OwnedEmit

	watermark event.Time
	started   bool
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
		// on its own Floor, and keeps what leaves.
		v.arena = &match.Arena{}
		v.arena.SetRecycle(true)
		if deliver := opt.OnMatch; !opt.OwnedEmit {
			v.keep = &match.Keeper{}
			v.opt.OnMatch = func(id uint32, m *match.Match) { deliver(id, v.keep.Keep(m)) }
		}
		v.opt.OwnedEmit = true
	}

	for gi := range set.Groups {
		g := set.Groups[gi]
		r := &runnerState{group: g}
		// The emit closure reads r.subs at call time, so runtime
		// subscribe/unsubscribe takes effect without rebinding.
		run := nfa.New(g.Prefix, plan.NewOrderPlan(g.Prefix.Core()), func(m *match.Match) {
			for _, s := range r.subs {
				if s.cls != nil {
					v.step(s, nil, m.Events)
				} else {
					s.fixed.Seed(m.Events)
				}
			}
		})
		run.SetOwnedEmit(true)
		r.target = target{fixed: run, recipe: v.buildRecipe(g.Prefix), tslot: v.tenantSlot(g.Tenant),
			types: typesOf(g.Prefix, g.Prefix.Core())}
		v.runners = append(v.runners, r)
	}
	classOf := make(map[int]*suffixClass)
	for _, g := range set.Groups {
		for _, members := range g.Classes {
			c := &suffixClass{}
			for _, i := range members {
				classOf[i] = c
			}
		}
	}
	for i := range set.Specs {
		s, err := v.buildSink(set.Specs[i], set.GroupOf(i), classOf[i])
		if err != nil {
			return nil, err
		}
		v.sinks = append(v.sinks, s)
		v.byID[s.spec.ID] = s
	}
	v.reroute()
	return v, nil
}

// buildSink registers sp, in prefix group group and suffix class c if set.
func (v *Evaluator) buildSink(sp Spec, group int, c *suffixClass) (*sink, error) {
	if _, dup := v.byID[sp.ID]; dup {
		return nil, fmt.Errorf("multi: duplicate pattern id %d", sp.ID)
	}
	s := &sink{spec: sp}
	s.tslot = v.tenantSlot(sp.Tenant)
	s.recipe = v.buildRecipe(sp.Pattern)
	s.base = tally{arrived: v.arrived, late: v.late, gated: v.gated[s.tslot]}
	if group >= 0 {
		r := v.runners[group]
		if c != nil && len(c.members) > 0 {
			s.fixed, s.types = c.members[0].fixed, c.members[0].types
		} else {
			emit := func(m *match.Match) { v.opt.OnMatch(sp.ID, m) }
			if c != nil {
				emit = func(m *match.Match) { c.done = append(c.done, m.Events...) }
			}
			e := nfa.New(sp.Pattern, plan.NewOrderPlan(sp.Pattern.Core()), emit)
			if err := e.SetSharedPrefix(r.group.Len); err != nil {
				return nil, err
			}
			e.SetOwnedEmit(v.opt.OwnedEmit || c != nil)
			s.fixed = e
			if !e.Resolver().HasResiduals() {
				// Parked matches resolve on the watermark: an automaton with
				// negated or Kleene positions sees every event.
				s.types = typesOf(sp.Pattern, sp.Pattern.Core()[r.group.Len:])
			}
		}
		if c != nil {
			s.cls, s.member = c, s
			c.members = append(c.members, s)
			c.recipe = classRecipe(c)
		}
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
	eng.SetLatencyProbe(v.latencyProbe)
	s.eng = eng
	return s, nil
}

// SetLatencyProbe attaches a queue-wait p99 source (nanoseconds) to the
// shedding monitor of every hosted engine, present and future — the shard
// layer points it at the worker's queue-wait estimator; see
// engine.Engine.SetLatencyProbe. Engines without shedding ignore it.
func (v *Evaluator) SetLatencyProbe(latency func() float64) {
	v.latencyProbe = latency
	for _, s := range v.sinks {
		if s.eng != nil {
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
	v.last = append(v.last, 0)
	v.gated = append(v.gated, 0)
	return slot
}

// typesOf lists, once each, the event types of p's given positions.
func typesOf(p *pattern.Pattern, positions []int) []int {
	ts := make([]int, 0, len(positions))
	for _, pos := range positions {
		if t := p.Positions[pos].Type; !slices.Contains(ts, t) {
			ts = append(ts, t)
		}
	}
	return ts
}

// reroute rebuilds the dispatch tables after the set changed. An event
// reaches the engines that consume its type: a runner its prefix types, a
// group member the types of its suffix core positions, every other engine
// every type — runners first, then patterns in evaluation order, so seeds
// land before their subscribers run and matches are delivered in the
// order of an evaluator that hands every event to every engine. Every
// suffix-class member is routed; targets holds the class automaton once.
func (v *Evaluator) reroute() {
	var places []*target
	for _, r := range v.runners {
		places = append(places, &r.target)
	}
	for _, s := range v.sinks {
		places = append(places, &s.target)
	}
	v.targets, v.always, v.skippers = nil, nil, nil
	width := 0
	for _, d := range places {
		for _, t := range d.types {
			width = max(width, t+1)
		}
	}
	v.route = make([][]*target, width)
	v.due = math.MaxInt64
	for _, d := range places {
		if d.member == nil || d.member.cls.members[0] == d.member {
			v.targets = append(v.targets, d)
			if d.types != nil {
				v.skippers = append(v.skippers, d)
				v.due = min(v.due, d.fixed.NextPrune())
			}
		}
		if d.types == nil {
			v.always = append(v.always, d)
			for t := range v.route {
				v.route[t] = append(v.route[t], d)
			}
			continue
		}
		for _, t := range d.types {
			v.route[t] = append(v.route[t], d)
		}
	}
}

// classRecipe composes the OR of c's members' masks: their entries once
// each, those without a predicate first (maskFor skips a bit already set).
func classRecipe(c *suffixClass) [][]posRecipe {
	var rec [][]posRecipe
	for _, s := range c.members {
		for t, prs := range s.recipe {
			rec = append(rec, make([][]posRecipe, max(0, t+1-len(rec)))...)
			rec[t] = append(rec[t], prs...)
		}
	}
	for t, prs := range rec {
		slices.SortFunc(prs, func(a, b posRecipe) int {
			return cmp.Or(len(a.preds)-len(b.preds), cmp.Compare(a.bit, b.bit), slices.Compare(a.preds, b.preds))
		})
		rec[t] = slices.CompactFunc(prs, func(a, b posRecipe) bool { return a.bit == b.bit && slices.Equal(a.preds, b.preds) })
	}
	return rec
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
		if m&pr.bit != 0 {
			continue
		}
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
// and the event reaches the engines of its type (see reroute), prefix
// runners first so their seeds reach subscribers before the subscribers
// see the event (the ordering the seeding contract requires). A skipped
// fixed-plan NFA is advanced only on the event at which it would have
// pruned, which keeps its store where feeding it every event would.
func (v *Evaluator) Process(e *event.Event) {
	v.arrived++
	if v.started && e.TS < v.watermark {
		v.late++
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
		if v.admit[slot] = v.gate.Admit(t, e.TS); v.admit[slot] {
			v.fed[slot], v.last[slot] = true, e.TS
		} else {
			v.gated[slot]++
		}
	}
	route := v.always
	if t := e.Type; t >= 0 && t < len(v.route) {
		route = v.route[t]
	}
	for _, d := range route {
		if !v.admit[d.tslot] {
			continue
		}
		if d.member != nil {
			v.step(d.member, e, nil)
			continue
		}
		if mask := v.maskFor(d.recipe, e); d.fixed != nil {
			d.fixed.ProcessMasked(e, mask)
		} else {
			d.eng.ProcessMasked(e, mask)
		}
	}
	if e.TS >= v.due {
		v.prune(e.TS)
	}
}

// step runs suffix-class member s: the first feeds the class automaton e
// or seed, and each replays the completions its own predicates pass.
func (v *Evaluator) step(s *sink, e *event.Event, seed []*event.Event) {
	c := s.cls
	if c.members[0] == s {
		c.done = c.done[:0]
		if seed != nil {
			s.fixed.Seed(seed)
		} else {
			s.fixed.ProcessMasked(e, v.maskFor(c.recipe, e))
		}
	}
	for evs := range slices.Chunk(c.done, s.spec.Pattern.NumPositions()) {
		if !v.passes(s.recipe, evs) {
			continue
		}
		s.matches++
		if v.opt.OwnedEmit {
			c.scratch.Events = evs
			v.opt.OnMatch(s.spec.ID, &c.scratch)
		} else {
			v.opt.OnMatch(s.spec.ID, &match.Match{Events: slices.Clone(evs)})
		}
	}
}

// passes reports whether a completion's events pass the recipe's predicates.
func (v *Evaluator) passes(recipe [][]posRecipe, evs []*event.Event) bool {
	for _, prs := range recipe {
		for _, pr := range prs {
			for _, id := range pr.preds {
				if !v.preds[id].cu.Ok(evs[bits.TrailingZeros32(pr.bit)]) {
					return false
				}
			}
		}
	}
	return true
}

// prune advances the skipped fixed-plan NFAs whose prune falls due at ts
// and finds the next due time. An engine of a gated tenant stays due
// until its tenant admits an event, as it would stay unfed.
func (v *Evaluator) prune(ts event.Time) {
	v.due = math.MaxInt64
	for _, d := range v.skippers {
		if v.admit[d.tslot] && ts >= d.fixed.NextPrune() {
			d.fixed.Advance(ts)
		}
		v.due = min(v.due, d.fixed.NextPrune())
	}
}

// catchUp brings every skipped fixed-plan NFA's watermark up to its
// tenant's last admitted event, where feeding it every event would have
// left it. It prunes nothing: Process advanced every engine that was due.
func (v *Evaluator) catchUp() {
	for _, d := range v.skippers {
		if v.fed[d.tslot] {
			d.fixed.Advance(v.last[d.tslot])
		}
	}
}

// Floor is the release floor of the events' storage: no hosted engine can
// still reach an event older than it, so the storage's owner — the
// evaluator, or under StableInput the caller — may reuse whatever lies
// wholly before — buffers, partial matches, residuals, parked
// matches and prefix-runner seeds all sit at or after it. It is the least
// engine floor (see engine.Engine.Floor, match.Frame.Floor) over the
// engines that have been fed, each first brought up to its tenant's last
// admitted event. An engine its tenant's gate or its shedder steps over
// is not advanced on the events it skips (advancing would resolve its
// parked matches at an event it never saw); it holds the floor back
// instead, so storage waits for it for as long as it lags and the matches
// it delivers do not depend on the lag.
func (v *Evaluator) Floor() event.Time {
	v.catchUp()
	floor := event.Time(math.MaxInt64)
	for _, d := range v.targets {
		switch {
		case d.eng != nil:
			floor = min(floor, d.eng.Floor())
		case v.fed[d.tslot]:
			floor = min(floor, d.fixed.Floor())
		}
	}
	return floor
}

// Finish flushes every pattern at end of stream (runners first — their
// final seeds must land before subscribers flush).
func (v *Evaluator) Finish() {
	v.catchUp()
	for _, d := range v.targets {
		if d.fixed != nil {
			d.fixed.Finish()
		} else {
			d.eng.Finish()
		}
	}
}

// Add registers a pattern at runtime. It joins the shared unary table
// immediately; prefix groups are not re-analyzed (the pattern evaluates
// independently), so existing patterns' output is undisturbed.
func (v *Evaluator) Add(sp Spec) error {
	s, err := v.buildSink(sp, -1, nil)
	if err != nil {
		return err
	}
	v.sinks = append(v.sinks, s)
	v.byID[sp.ID] = s
	v.reroute()
	return nil
}

// Remove retires a pattern at runtime. A group member is unsubscribed
// from its runner; the runner keeps serving remaining subscribers (and
// is dropped once the last one leaves); a suffix class's next member
// then feeds the class automaton.
func (v *Evaluator) Remove(id uint32) error {
	s, ok := v.byID[id]
	if !ok {
		return fmt.Errorf("multi: unknown pattern id %d", id)
	}
	delete(v.byID, id)
	v.sinks = slices.DeleteFunc(v.sinks, func(t *sink) bool { return t == s })
	for _, r := range v.runners {
		r.subs = slices.DeleteFunc(r.subs, func(t *sink) bool { return t == s })
	}
	if c := s.cls; c != nil {
		c.members = slices.DeleteFunc(c.members, func(t *sink) bool { return t == s })
		c.recipe = classRecipe(c)
	}
	v.runners = slices.DeleteFunc(v.runners, func(r *runnerState) bool { return len(r.subs) == 0 })
	v.reroute()
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
		if s.fixed != nil {
			out = append(out, s.fixed.Plan())
		} else {
			out = append(out, s.eng.CurrentPlans()...)
		}
	}
	return out
}

// TenantStats reports per-tenant admission accounting.
func (v *Evaluator) TenantStats() []shed.TenantStat { return v.gate.Stats() }

// Arrived reports the events handed to the evaluator: each once, however
// many patterns it hosts.
func (v *Evaluator) Arrived() uint64 { return v.arrived }

// Metrics reports per-pattern engine counters in evaluation order. For
// group members (fixed-plan NFAs) the adaptive-loop counters are zero
// and the evaluation counters are synthesized from match.Stats (a
// suffix-class member's are its class automaton's, but for Matches). The
// event counts are the set's since the pattern joined: every event arrives
// at every pattern, and its tenant's gate sheds it for all of them.
func (v *Evaluator) Metrics() []PatternMetrics {
	v.catchUp()
	out := make([]PatternMetrics, 0, len(v.sinks))
	for _, s := range v.sinks {
		arrived, late, gated := v.arrived-s.base.arrived, v.late-s.base.late, v.gated[s.tslot]-s.base.gated
		var m engine.Metrics
		if s.eng != nil {
			m = s.eng.Metrics()
		} else {
			st := s.fixed.Stats()
			if s.cls != nil {
				st.Emitted = s.matches
			}
			m = engine.Metrics{
				Events:    arrived - late - gated,
				Matches:   st.Emitted,
				PMCreated: st.PMCreated,
				PredEvals: st.PredEvals,
				PeakPMs:   st.PeakPMs,
			}
		}
		m.EventsArrived = arrived
		m.EventsShed += gated
		m.LateDropped += late
		out = append(out, PatternMetrics{ID: s.spec.ID, Tenant: s.spec.Tenant, M: m})
	}
	return out
}

// LivePMs sums live partial matches across every pattern and runner
// (shedding introspection for the shard layer).
func (v *Evaluator) LivePMs() int {
	v.catchUp()
	n := 0
	for _, d := range v.targets {
		if d.fixed != nil {
			n += d.fixed.LivePMs()
		} else {
			n += d.eng.LivePMs()
		}
	}
	return n
}

package nfa

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// model is the order-based engine as the shared table
// (internal/match/matchtest) drives it: every ordering of the core
// positions is a plan, and a state is a place.
var model = matchtest.Model{
	Tests: map[string][]string{
		"TestNFAPaperExample":                 {"paper-example"},
		"TestNFAWindowExpiry":                 {"window"},
		"TestNFAAllOrdersAgreeWithOracle":     {"chain3", "chain4"},
		"TestNFAConjunction":                  {"and3"},
		"TestNFANegationAgainstOracle":        {"negation"},
		"TestNFAKleeneAgainstOracle":          {"kleene"},
		"TestNFADuplicateTypeAcrossPositions": {"identity"},
		"TestNFAEmitFilter":                   {"emit-filter"},
		"TestNFAStatsAndExpiry":               {"expiry"},
		"TestNFAPlanOrderAffectsWork":         {"work"},
		"TestNFASinglePosition":               {"single-position"},
		"TestIntrospection":                   {"introspection"},
		"TestIntrospectionStaleBound":         {"stale-bound"},
		"TestKeyedIndexDifferential":          {"keyed"},
		"TestKeyedIndexNeedsAdjacentEquality": {"index-needs-equality"},
		"TestProcessZeroAllocsNoMatch":        {"allocs/no-match"},
		"TestProcessBoundedAllocsMatching":    {"allocs/matching"},
		"TestProcessBoundedAllocsKleene":      {"allocs/kleene"},
		"TestProcessZeroAllocsKeyChurn":       {"allocs/key-churn"},
	},
	New: func(pat *pattern.Pattern, p plan.Plan, emit func(*match.Match), indexed bool) matchtest.Engine {
		if indexed {
			return New(pat, p.(*plan.OrderPlan), emit)
		}
		return newEngine(pat, p.(*plan.OrderPlan), emit, false)
	},
	Shapes: func(order []int) []plan.Plan { return []plan.Plan{plan.NewOrderPlan(order)} },
	Chain:  func(order []int) plan.Plan { return plan.NewOrderPlan(order) },
	Indexed: func(e matchtest.Engine) []bool {
		g := e.(*Engine)
		var on []bool
		for s := 1; s < g.n; s++ {
			on = append(on, match.EqKeyOf(g.checks[s]).Indexed)
		}
		return on
	},
	// Under the declaration order every state is forward-only and keeps
	// no history: after a prune a state holds a bucket exactly for each
	// key with a live PM there. Under the reverse order every state keeps
	// history, and holds no more buckets than there are keys inside the
	// retention horizon.
	Churn: func(t testing.TB, e matchtest.Engine, order []int, window event.Time) {
		g := e.(*Engine)
		history := order[0] != 0
		g.Store.Prune(g.Watermark())
		liveKeys := 2*int(window)/3 + 2 // keys with an event inside the two-window horizon
		for st := 1; st < g.n; st++ {
			pl := g.states[st]
			if pl.KeepsHistory() != history {
				t.Fatalf("order %v: state %d keeps history %v, want %v", order, st, pl.KeepsHistory(), history)
			}
			keys := map[uint64]bool{}
			pl.HotKeys(func(e *event.Event) uint64 { return uint64(e.Attrs[1]) }, func(k uint64) { keys[k] = true })
			if n := pl.Buckets(); history && (n == 0 || n > liveKeys) || !history && n != len(keys) {
				t.Fatalf("order %v: state %d holds %d buckets after prune; want 1..%d with history, else one per key with a live PM (%d)", order, st, n, liveKeys, len(keys))
			}
		}
		if !history && g.states[1].Buckets() == 0 {
			t.Fatalf("order %v: no bucket at state 1; the bound is vacuous", order)
		}
	},
	Expect: matchtest.Expect{
		// An A makes B hot and its key live; its A+B fork waits for C at
		// state 2 while the A-PM still waits at state 1.
		Intro: [3]matchtest.Look{
			{},
			{Live: 1, Hot: []int{1}, Keys: []uint64{7}},
			{Live: 2, Hot: []int{1, 2}, Keys: []uint64{7}},
		},
		ExpiredLive: 0,
		Indexed:     []bool{false, true}, // C offered to A: nothing to key on; B offered to A, C: b.k
		HotKeysAll:  true,
	},
}

// Each test runs the table groups model.Tests names for it.
func TestNFAPaperExample(t *testing.T)                 { model.Run(t) }
func TestNFAWindowExpiry(t *testing.T)                 { model.Run(t) }
func TestNFAAllOrdersAgreeWithOracle(t *testing.T)     { model.Run(t) }
func TestNFAConjunction(t *testing.T)                  { model.Run(t) }
func TestNFANegationAgainstOracle(t *testing.T)        { model.Run(t) }
func TestNFAKleeneAgainstOracle(t *testing.T)          { model.Run(t) }
func TestNFADuplicateTypeAcrossPositions(t *testing.T) { model.Run(t) }
func TestNFAEmitFilter(t *testing.T)                   { model.Run(t) }
func TestNFAStatsAndExpiry(t *testing.T)               { model.Run(t) }
func TestNFAPlanOrderAffectsWork(t *testing.T)         { model.Run(t) }
func TestNFASinglePosition(t *testing.T)               { model.Run(t) }
func TestIntrospection(t *testing.T)                   { model.Run(t) }
func TestIntrospectionStaleBound(t *testing.T)         { model.Run(t) }
func TestKeyedIndexDifferential(t *testing.T)          { model.Run(t) }
func TestKeyedIndexNeedsAdjacentEquality(t *testing.T) { model.Run(t) }
func TestProcessZeroAllocsNoMatch(t *testing.T)        { model.Run(t) }
func TestProcessBoundedAllocsMatching(t *testing.T)    { model.Run(t) }
func TestProcessBoundedAllocsKleene(t *testing.T)      { model.Run(t) }
func TestProcessZeroAllocsKeyChurn(t *testing.T)       { model.Run(t) }

func BenchmarkProcess(b *testing.B) { model.BenchProcess(b) }
func BenchmarkKeyed(b *testing.B)   { model.BenchKeyed(b) }

// BenchmarkExtend isolates the partial-match extension path.
func BenchmarkExtend(b *testing.B) {
	s := matchtest.SchemaX(2)
	pat := matchtest.EqChain(s, 2, 1000)
	evs := matchtest.Weighted(rand.New(rand.NewSource(2)), s, []int{1, 1}, 20000, 2, 2)
	b.ReportAllocs()
	for range b.N {
		g := New(pat, plan.NewOrderPlan([]int{0, 1}), func(*match.Match) {})
		for j := range evs {
			g.Process(&evs[j])
		}
		g.Finish()
	}
}

// What follows is the NFA's alone: the order its lazy scan delivers in, a
// suffix automaton seeded by a prefix runner, and the history and offer
// rules.

// TestEmissionOrderPinned pins the order in which the engine delivers its
// matches, not just their multiset, for three plan orders of a keyed and
// an unkeyed SEQ-of-4: the lazy scan, the forks and the emissions happen
// in an order a host sees. The digest is FNV-64a over the matches' keys
// in delivery order; partial matches created are pinned alongside.
func TestEmissionOrderPinned(t *testing.T) {
	type row struct {
		order     []int
		matches   int
		digest    uint64
		pmCreated uint64
	}
	cases := []struct {
		name   string
		keys   int
		window event.Time
		rows   []row
	}{
		{name: "unkeyed", window: 200, rows: []row{
			{order: []int{0, 1, 2, 3}, matches: 184, digest: 0xff12d7f02e47d54c, pmCreated: 38287},
			{order: []int{3, 2, 1, 0}, matches: 184, digest: 0x68bc61e930d92e12, pmCreated: 16942},
			{order: []int{1, 3, 0, 2}, matches: 184, digest: 0xd89872eaaf8509be, pmCreated: 13000},
		}},
		{name: "keyed", keys: 4, window: 800, rows: []row{
			{order: []int{0, 1, 2, 3}, matches: 164, digest: 0xe5e04740502d6fbc, pmCreated: 38157},
			{order: []int{3, 2, 1, 0}, matches: 164, digest: 0x75c2f275071abf2, pmCreated: 16570},
			{order: []int{1, 3, 0, 2}, matches: 164, digest: 0x7a51ef7b4a4058c4, pmCreated: 39529},
		}},
	}
	for _, c := range cases {
		w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 20000, Seed: 5, Shifts: 1, Keys: c.keys})
		pat, err := w.Pattern(gen.Sequence, 4, c.window)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.rows {
			h := fnv.New64a()
			n := 0
			g := New(pat, plan.NewOrderPlan(r.order), func(m *match.Match) {
				n++
				h.Write([]byte(m.Key()))
				h.Write([]byte{';'})
			})
			for i := range w.Events {
				g.Process(&w.Events[i])
			}
			g.Finish()
			got := row{order: r.order, matches: n, digest: h.Sum64(), pmCreated: g.Stats().PMCreated}
			if n == 0 {
				t.Fatalf("%s order %v: no matches; the case is vacuous", c.name, r.order)
			}
			if got.matches != r.matches || got.digest != r.digest || got.pmCreated != r.pmCreated {
				t.Errorf("%s order %v: %d matches, digest %#x, %d PMs created; recorded %d, %#x, %d",
					c.name, r.order, got.matches, got.digest, got.pmCreated, r.matches, r.digest, r.pmCreated)
			}
		}
	}
}

// delivery is what a host sees of a run: the matches in delivery order
// and the engine's counters.
type delivery struct {
	keys  []string
	stats match.Stats
}

func deliver(out *delivery) func(*match.Match) {
	return func(m *match.Match) { out.keys = append(out.keys, matchtest.Keys([]*match.Match{m})[0]) }
}

// work is the delivery as matchtest.RequireSameWork compares it.
func (d delivery) work(indexed int) matchtest.Work {
	return matchtest.WorkOf(slices.Sorted(slices.Values(d.keys)), d.stats, indexed)
}

// seeded drives the subscriber sub builds over evs with its first
// positions fed, through Seed, by a runner over runnerPat — the shape a
// shared prefix runner detects — which sees each event first, as
// internal/multi's evaluator runs them.
func seeded(t *testing.T, runnerPat *pattern.Pattern, evs []event.Event, sub func(emit func(*match.Match)) *Engine) delivery {
	var out delivery
	g := sub(deliver(&out))
	if err := g.SetSharedPrefix(runnerPat.NumPositions()); err != nil {
		t.Fatal(err)
	}
	runner := New(runnerPat, plan.NewOrderPlan(runnerPat.Core()), func(m *match.Match) { g.Seed(m.Events) })
	runner.SetOwnedEmit(true)
	for i := range evs {
		runner.Process(&evs[i])
		g.Process(&evs[i])
	}
	runner.Finish()
	g.Finish()
	out.stats = g.Stats()
	return out
}

// TestSeededPrefixEquivalence drives the seeding contract directly: a
// runner over the 2-position prefix pattern feeds Seed on a subscriber
// whose first two order positions are disabled, and the subscriber's
// match set must equal a plain engine's on every stream. The runner's
// window is deliberately wider than the subscriber's: Seed must filter
// over-span assignments itself.
func TestSeededPrefixEquivalence(t *testing.T) {
	s := matchtest.SchemaX(4)
	for trial := range 20 {
		r := rand.New(rand.NewSource(int64(300 + trial)))
		window := event.Time(40 + 30*(trial%3))
		pat := matchtest.EqChain(s, 4, window)
		evs := matchtest.Weighted(r, s, []int{3, 2, 2, 3}, 600, 3, 4)
		var want []*match.Match
		plain := New(pat, plan.NewOrderPlan(pat.Core()), func(m *match.Match) { want = append(want, m) })
		for i := range evs {
			plain.Process(&evs[i])
		}
		plain.Finish()
		got := seeded(t, matchtest.EqChain(s, 2, 2*window), evs, func(emit func(*match.Match)) *Engine {
			return New(pat, plan.NewOrderPlan(pat.Core()), emit)
		}).work(0)
		if wk := matchtest.Keys(want); !reflect.DeepEqual(got.Keys, wk) {
			t.Fatalf("trial %d: seeded subscriber found %d matches, a plain engine %d", trial, len(got.Keys), len(wk))
		}
	}
}

// TestSeededPrefixRejectsBadK pins the SetSharedPrefix bounds.
func TestSeededPrefixRejectsBadK(t *testing.T) {
	pat := matchtest.EqChain(matchtest.SchemaX(3), 3, 100)
	g := New(pat, plan.NewOrderPlan(pat.Core()), nil)
	for _, k := range []int{0, -1, 3, 4} {
		if err := g.SetSharedPrefix(k); err == nil {
			t.Fatalf("SetSharedPrefix(%d) accepted", k)
		}
	}
	if err := g.SetSharedPrefix(2); err != nil {
		t.Fatalf("SetSharedPrefix(2): %v", err)
	}
}

// TestKeyedIndexSeededAndMigrating covers the way partial matches bypass
// the plain path: prefix assignments injected by Seed, into a subscriber
// whose remaining states both hold an adjacent equality, indexed and over
// one bucket per state. (Migration's emit filter runs on every keyed case
// of the table.)
func TestKeyedIndexSeededAndMigrating(t *testing.T) {
	s := matchtest.Schema(4)
	const window = 40
	pat := matchtest.EqChain(s, 4, window)
	evs := matchtest.Stream(41, s, 600, []float64{0, 1, 2})
	want := matchtest.Keys(oracle.Matches(pat, evs))
	run := func(indexed bool) delivery {
		return seeded(t, matchtest.EqChain(s, 2, 2*window), evs, func(emit func(*match.Match)) *Engine {
			return newEngine(pat, plan.NewOrderPlan(pat.Core()), emit, indexed)
		})
	}
	ref, got := run(false).work(0), run(true).work(2)
	if len(want) == 0 || !reflect.DeepEqual(ref.Keys, want) {
		t.Fatalf("seeded single-bucket subscriber found %d matches, oracle %d", len(ref.Keys), len(want))
	}
	matchtest.RequireSameWork(t, "seeded prefix", got, ref)
}

// keepAllHistory rebuilds g's states as places keyed as before that keep
// a history: the engine without the history rule, its reference.
func keepAllHistory(g *Engine, indexed bool) {
	for s := 1; s < g.n; s++ {
		var key match.EqKey
		if indexed {
			key = match.EqKeyOf(g.checks[s])
		}
		g.states[s] = g.Store.NewPlace(key, true)
	}
}

// bothPaths is keepAllHistory that also offers every arriving event at
// every state: the engine without the history and offer rules, the offer
// rule's reference.
func bothPaths(g *Engine, indexed bool) {
	keepAllHistory(g, indexed)
	for s := 1; s < g.n; s++ {
		g.rules[s] = unordered
	}
}

// tiedStream draws count events over the schema's types with timestamp
// gaps of 0..2, so a third of the events share their timestamp with the
// one before; k comes from keys and v from {0,1,2}.
func tiedStream(seed int64, s *event.Schema, count int, keys []float64) []event.Event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]event.Event, 0, count)
	var ts event.Time
	for i := range count {
		ts += event.Time(r.Intn(3))
		e := s.MustNew(r.Intn(s.NumTypes()), ts, keys[r.Intn(len(keys))], float64(r.Intn(3)))
		e.Seq = uint64(i + 1)
		evs = append(evs, e)
	}
	return evs
}

// historyCases are matchtest.KeyedCases plus an unkeyed SEQ and an AND
// over streams with tied timestamps: a forward-only state's history then
// holds events at the timestamp of the PM's latest event, which only the
// scan's strict lower bound keeps out.
func historyCases() []matchtest.Case {
	s := matchtest.Schema(3)
	build := func(op pattern.Op, window event.Time) *pattern.Pattern {
		b := pattern.NewBuilder(s, op, window)
		for i := range 3 {
			b.Event(i)
		}
		b.WherePred(pattern.Pred{L: 0, R: 1, AttrL: 1, AttrR: 1, Op: pattern.LE})
		b.WherePred(pattern.Pred{L: 2, R: 1, AttrL: 1, AttrR: 1, Op: pattern.GE})
		// In declaration order C meets this check before its order check
		// against B, so a scan that visited a C tied with B would count
		// an evaluation.
		b.WherePred(pattern.Pred{L: 2, R: 0, AttrL: 1, AttrR: 1, Op: pattern.NE})
		return b.MustBuild()
	}
	return append(matchtest.KeyedCases(),
		matchtest.Case{Name: "seq/unkeyed/tied", Pat: build(pattern.Seq, 12), Events: tiedStream(51, s, 500, []float64{0})},
		matchtest.Case{Name: "and/unkeyed/tied", Pat: build(pattern.And, 6), Events: tiedStream(52, s, 400, []float64{0})})
}

// requireRules holds the states of g to the rules: a state keeps history
// exactly when one of its checks is RelBefore or RelNone, so every state of
// a declaration-order SEQ is without, and is offered no arriving event
// exactly when one is RelBefore. It reports the number of states without
// history.
func requireRules(t *testing.T, label string, g *Engine, order []int) int {
	t.Helper()
	free := 0
	for s := 1; s < g.n; s++ {
		has := func(rel int8) bool {
			return slices.ContainsFunc(g.checks[s], func(c match.Check) bool { return c.PC.Rel == rel })
		}
		looksBack := has(pattern.RelBefore) || has(pattern.RelNone)
		if g.states[s].KeepsHistory() != looksBack {
			t.Fatalf("%s order %v: state %d keeps history %v; its checks look back: %v", label, order, s, g.states[s].KeepsHistory(), looksBack)
		}
		if skips, before := g.rules[s] == lookBack, has(pattern.RelBefore); skips != before {
			t.Fatalf("%s order %v: state %d offers arriving events to none: %v; a check needs one before a held event: %v", label, order, s, skips, before)
		}
		if g.Pat.Op == pattern.Seq && slices.IsSorted(order) && g.states[s].KeepsHistory() {
			t.Fatalf("%s order %v: state %d of a declaration-order SEQ keeps history", label, order, s)
		}
		if !looksBack {
			free++
		}
	}
	return free
}

// differential runs every plan order of every history case with the
// history and offer rules and against the reference rebuild makes of the
// same engine, once over one bucket per state (newEngine(…, false)) and
// once indexed: matches in delivery order and every counter but PredEvals
// must be identical, PredEvals identical too when exact and otherwise no
// higher, and the match multiset the oracle's. It reports the matches of
// runs with a state without history, and the runs that evaluated fewer
// predicates than their reference.
func differential(t *testing.T, rebuild func(*Engine, bool), exact bool) (freeMatches, fewer int) {
	for _, c := range historyCases() {
		want := matchtest.Keys(oracle.Matches(c.Pat, c.Events))
		if len(want) == 0 {
			t.Fatalf("%s: oracle found no matches; the case is vacuous", c.Name)
		}
		for _, order := range matchtest.Permutations(c.Pat.Core()) {
			for _, indexed := range []bool{false, true} {
				var got, ref delivery
				g := newEngine(c.Pat, plan.NewOrderPlan(order), deliver(&got), indexed)
				r := newEngine(c.Pat, plan.NewOrderPlan(order), deliver(&ref), indexed)
				rebuild(r, indexed)
				for i := range c.Events {
					g.Process(&c.Events[i])
					r.Process(&c.Events[i])
				}
				g.Finish()
				r.Finish()
				got.stats, ref.stats = g.Stats(), r.Stats()
				free := requireRules(t, c.Name, g, order)
				evals := got.stats.PredEvals
				if !exact {
					got.stats.PredEvals = ref.stats.PredEvals
				}
				if !reflect.DeepEqual(got, ref) || evals > ref.stats.PredEvals {
					t.Fatalf("%s order %v indexed %v: with the rules %d matches, %+v, %d predicate evaluations; reference %d, %+v",
						c.Name, order, indexed, len(got.keys), got.stats, evals, len(ref.keys), ref.stats)
				}
				if sorted := got.work(0).Keys; !reflect.DeepEqual(sorted, want) {
					t.Fatalf("%s order %v indexed %v: %d matches, oracle %d", c.Name, order, indexed, len(sorted), len(want))
				}
				if evals < ref.stats.PredEvals {
					fewer++
				}
				if free > 0 {
					freeMatches += len(got.keys)
				}
			}
		}
	}
	return freeMatches, fewer
}

// TestHistoryRuleDifferential holds the engine to the same engine with a
// history on every state (differential, exact): the scans the history
// rule spares visit nothing, not even an event tied with the PM's latest.
func TestHistoryRuleDifferential(t *testing.T) {
	if free, _ := differential(t, keepAllHistory, true); free == 0 {
		t.Fatal("no run had a state without history and a match; the rule was not exercised")
	}
}

// TestOfferRuleDifferential holds the engine to the same engine with a
// history on every state that offers every arriving event at every state
// (differential): the offers the offer rule spares extend nothing, and
// some would have evaluated a predicate.
func TestOfferRuleDifferential(t *testing.T) {
	if _, fewer := differential(t, bothPaths, false); fewer == 0 {
		t.Fatal("no run evaluated fewer predicates than its reference; the rule was not exercised")
	}
}

// TestHistoryRuleSeeded: a suffix automaton seeded by a prefix runner is
// forward-only in declaration order, over tied timestamps too — a seed
// arrives while the event that completed the prefix is processed, before
// the automaton sees it — and delivers exactly what its reference does.
func TestHistoryRuleSeeded(t *testing.T) {
	s := matchtest.Schema(4)
	const window = 30
	pat := matchtest.EqChain(s, 4, window)
	evs := tiedStream(53, s, 800, []float64{0, 1})
	want := matchtest.Keys(oracle.Matches(pat, evs))
	run := func(all bool) delivery {
		return seeded(t, matchtest.EqChain(s, 2, 2*window), evs, func(emit func(*match.Match)) *Engine {
			g := New(pat, plan.NewOrderPlan(pat.Core()), emit)
			if all {
				keepAllHistory(g, true)
			} else {
				requireRules(t, "seeded", g, pat.Core())
			}
			return g
		})
	}
	got, ref := run(false), run(true)
	if len(want) == 0 || !reflect.DeepEqual(got.work(0).Keys, want) {
		t.Fatalf("seeded subscriber found %d matches, oracle %d", len(got.keys), len(want))
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("seeded: with the history rule %+v, reference %+v", got.stats, ref.stats)
	}
}

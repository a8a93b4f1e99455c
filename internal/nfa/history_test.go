package nfa

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// keepAllHistory rebuilds g's states as places keyed as before that keep
// a history: the store without the history rule, its reference.
func keepAllHistory(g *Engine, indexed bool) {
	for s := 1; s < g.n; s++ {
		var key match.EqKey
		if indexed {
			key = match.EqKeyOf(g.checks[s])
		}
		g.states[s] = g.Store.NewPlace(key, true)
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

// tiedStream draws count events over the schema's types with timestamp
// gaps of 0..2, so a third of the events share their timestamp with the
// one before; k comes from keys and v from {0,1,2}.
func tiedStream(seed int64, s *event.Schema, count int, keys []float64) []event.Event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]event.Event, 0, count)
	var ts event.Time
	for i := 0; i < count; i++ {
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
		for i := 0; i < 3; i++ {
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

// requireHistoryRule holds the states of g to the rule: a state keeps
// history exactly when one of its checks is RelBefore or RelNone, so every
// state of a declaration-order SEQ is without. It reports the number of
// states without history.
func requireHistoryRule(t *testing.T, label string, g *Engine, pat *pattern.Pattern, order []int) int {
	t.Helper()
	free := 0
	for s := 1; s < g.n; s++ {
		looksBack := slices.ContainsFunc(g.checks[s], func(c match.Check) bool { return c.PC.Rel != pattern.RelAfter })
		if g.states[s].KeepsHistory() != looksBack {
			t.Fatalf("%s order %v: state %d keeps history %v; its checks look back: %v", label, order, s, g.states[s].KeepsHistory(), looksBack)
		}
		if pat.Op == pattern.Seq && slices.IsSorted(order) && g.states[s].KeepsHistory() {
			t.Fatalf("%s order %v: state %d of a declaration-order SEQ keeps history", label, order, s)
		}
		if !looksBack {
			free++
		}
	}
	return free
}

// TestHistoryRuleDifferential runs every plan order of every case with
// the history rule and against its reference — the same engine with a
// history on every state — once over one bucket per state
// (newEngine(…, false)) and once indexed: matches in delivery order,
// PMCreated and PredEvals must be identical, and the match multiset the
// oracle's.
func TestHistoryRuleDifferential(t *testing.T) {
	freeStates, freeMatches := 0, 0
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
				keepAllHistory(r, indexed)
				for i := range c.Events {
					g.Process(&c.Events[i])
					r.Process(&c.Events[i])
				}
				g.Finish()
				r.Finish()
				got.stats, ref.stats = g.Stats(), r.Stats()
				free := requireHistoryRule(t, c.Name, g, c.Pat, order)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s order %v indexed %v: with the history rule %d matches, %+v; reference %d, %+v",
						c.Name, order, indexed, len(got.keys), got.stats, len(ref.keys), ref.stats)
				}
				if sorted := slices.Sorted(slices.Values(got.keys)); !reflect.DeepEqual(sorted, want) {
					t.Fatalf("%s order %v indexed %v: %d matches, oracle %d", c.Name, order, indexed, len(sorted), len(want))
				}
				if free > 0 {
					freeStates += free
					freeMatches += len(got.keys)
				}
			}
		}
	}
	if freeStates == 0 || freeMatches == 0 {
		t.Fatal("no run had a state without history and a match; the rule was not exercised")
	}
}

// TestHistoryRuleSeeded: a suffix automaton seeded by a prefix runner is
// forward-only in declaration order, over tied timestamps too — a seed
// arrives while the event that completed the prefix is processed, before
// the automaton sees it — and delivers exactly what its reference does.
func TestHistoryRuleSeeded(t *testing.T) {
	s := matchtest.Schema(4)
	const window = 30
	chain := func(n int, w event.Time) *pattern.Pattern {
		b := pattern.NewBuilder(s, pattern.Seq, w)
		for i := 0; i < n; i++ {
			b.Event(i)
		}
		for i := 0; i+1 < n; i++ {
			b.WherePred(pattern.Pred{L: i, R: i + 1, Op: pattern.EQ})
		}
		return b.MustBuild()
	}
	pat, runnerPat := chain(4, window), chain(2, 2*window)
	evs := tiedStream(53, s, 800, []float64{0, 1})
	want := matchtest.Keys(oracle.Matches(pat, evs))
	seeded := func(all bool) delivery {
		var out delivery
		sub := New(pat, plan.NewOrderPlan(pat.Core()), deliver(&out))
		if err := sub.SetSharedPrefix(2); err != nil {
			t.Fatal(err)
		}
		if all {
			keepAllHistory(sub, true)
		} else {
			requireHistoryRule(t, "seeded", sub, pat, pat.Core())
		}
		runner := New(runnerPat, plan.NewOrderPlan(runnerPat.Core()), func(m *match.Match) { sub.Seed(m.Events) })
		runner.SetOwnedEmit(true)
		for i := range evs {
			runner.Process(&evs[i])
			sub.Process(&evs[i])
		}
		runner.Finish()
		sub.Finish()
		out.stats = sub.Stats()
		return out
	}
	got, ref := seeded(false), seeded(true)
	if len(want) == 0 || !reflect.DeepEqual(slices.Sorted(slices.Values(got.keys)), want) {
		t.Fatalf("seeded subscriber found %d matches, oracle %d", len(got.keys), len(want))
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("seeded: with the history rule %+v, reference %+v", got.stats, ref.stats)
	}
}

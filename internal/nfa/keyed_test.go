package nfa

import (
	"reflect"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// asRun packages a finished engine's output for matchtest.RequireSameWork.
func asRun(out []*match.Match, st match.Stats, indexed int) matchtest.Run {
	return matchtest.Run{
		Keys: matchtest.Keys(out), PMCreated: st.PMCreated, PredEvals: st.PredEvals,
		Emitted: st.Emitted, Dropped: st.Dropped, Suppressed: st.Suppressed, Indexed: indexed,
	}
}

// runKeyed drives one engine configuration over the stream. setup, when
// set, configures the engine before the first event.
func runKeyed(pat *pattern.Pattern, order []int, evs []event.Event, indexed bool, setup func(*Engine)) matchtest.Run {
	var out []*match.Match
	g := newEngine(pat, plan.NewOrderPlan(order), func(m *match.Match) { out = append(out, m) }, indexed)
	if setup != nil {
		setup(g)
	}
	for i := range evs {
		g.Process(&evs[i])
	}
	g.Finish()
	states := 0 // states parked on an equality key
	for s := 1; s < g.n; s++ {
		if indexed && match.EqKeyOf(g.checks[s]).Indexed {
			states++
		}
	}
	return asRun(out, g.Stats(), states)
}

// TestKeyedIndexDifferential runs every shared keyed case under every
// order plan through the indexed engine, the flat reference and the
// oracle.
func TestKeyedIndexDifferential(t *testing.T) {
	for _, c := range matchtest.KeyedCases() {
		want := matchtest.Keys(oracle.Matches(c.Pat, c.Events))
		if len(want) == 0 {
			t.Fatalf("%s: oracle found no matches; the case is vacuous", c.Name)
		}
		engaged := false
		for _, order := range matchtest.Permutations(c.Pat.Core()) {
			ref := runKeyed(c.Pat, order, c.Events, false, nil)
			got := runKeyed(c.Pat, order, c.Events, true, nil)
			if !reflect.DeepEqual(ref.Keys, want) {
				t.Fatalf("%s order %v: flat engine found %d matches, oracle %d", c.Name, order, len(ref.Keys), len(want))
			}
			matchtest.RequireSameWork(t, c.Name, got, ref)
			engaged = engaged || got.Indexed > 0
		}
		if !engaged {
			t.Fatalf("%s: no order plan engaged the index", c.Name)
		}
	}
}

// TestKeyedIndexNeedsAdjacentEquality: the index engages only where the
// state's own check list holds the equality. SEQ(A,B,C) with a.k=b.k and
// b.k=c.k implies a.k=c.k, but under order A,C,B the state that offers C
// to an A-PM has no predicate to key on and stays flat.
func TestKeyedIndexNeedsAdjacentEquality(t *testing.T) {
	c := matchtest.KeyedCases()[0]
	g := New(c.Pat, plan.NewOrderPlan([]int{0, 2, 1}), func(*match.Match) {})
	if k := match.EqKeyOf(g.checks[1]); k.Indexed {
		t.Fatalf("state 1 (C offered to A) is indexed on %+v; no predicate connects the two", k)
	}
	if k := match.EqKeyOf(g.checks[2]); !k.Indexed {
		t.Fatal("state 2 (B offered to A,C) is not indexed")
	}
}

// TestKeyedIndexSeededAndMigrating covers the two ways partial matches
// and emissions bypass the plain path: prefix assignments injected by
// Seed, and the migration emit filter.
func TestKeyedIndexSeededAndMigrating(t *testing.T) {
	for _, c := range matchtest.KeyedCases() {
		core := c.Pat.Core()
		ref := runKeyed(c.Pat, core, c.Events, false, func(g *Engine) { g.SetEmitOnlyBefore(150) })
		got := runKeyed(c.Pat, core, c.Events, true, func(g *Engine) { g.SetEmitOnlyBefore(150) })
		if ref.Suppressed == 0 {
			t.Fatalf("%s: emit filter suppressed nothing", c.Name)
		}
		matchtest.RequireSameWork(t, c.Name+"/emit-before", got, ref)
	}

	// A runner over the two-position prefix seeds subscribers whose first
	// two order positions are disabled.
	s := matchtest.Schema(4)
	const window = 40
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
	evs := matchtest.Stream(41, s, 600, []float64{0, 1, 2})
	want := matchtest.Keys(oracle.Matches(pat, evs))
	seeded := func(indexed bool) matchtest.Run {
		var out []*match.Match
		sub := newEngine(pat, plan.NewOrderPlan(pat.Core()), func(m *match.Match) { out = append(out, m) }, indexed)
		if err := sub.SetSharedPrefix(2); err != nil {
			t.Fatal(err)
		}
		runner := New(runnerPat, plan.NewOrderPlan(runnerPat.Core()), func(m *match.Match) { sub.Seed(m.Events) })
		runner.SetOwnedEmit(true)
		for i := range evs {
			runner.Process(&evs[i])
			sub.Process(&evs[i])
		}
		runner.Finish()
		sub.Finish()
		states := 0
		if indexed {
			states = 2 // states 2 and 3 both hold an adjacent equality
		}
		return asRun(out, sub.Stats(), states)
	}
	ref, got := seeded(false), seeded(true)
	if len(want) == 0 || !reflect.DeepEqual(ref.Keys, want) {
		t.Fatalf("seeded flat subscriber found %d matches, oracle %d", len(ref.Keys), len(want))
	}
	matchtest.RequireSameWork(t, "seeded prefix", got, ref)
}

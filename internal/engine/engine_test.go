package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"acep/internal/core"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// run executes a full stream through an adaptive engine and returns the
// sorted match keys plus metrics.
func run(t *testing.T, pat *pattern.Pattern, evs []event.Event, cfg Config) ([]string, Metrics) {
	t.Helper()
	var out []*match.Match
	cfg.OnMatch = func(m *match.Match) { out = append(out, m) }
	e, err := New(pat, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := range evs {
		e.Process(&evs[i])
	}
	e.Finish()
	return oracle.Keys(out), e.Metrics()
}

func policies() map[string]func() core.Policy {
	return map[string]func() core.Policy{
		"static":        func() core.Policy { return core.Static{} },
		"unconditional": func() core.Policy { return core.Unconditional{} },
		"threshold":     func() core.Policy { return &core.Threshold{T: 0.3} },
		"invariant":     func() core.Policy { return &core.Invariant{} },
		"invariant-d":   func() core.Policy { return &core.Invariant{D: 0.2, K: 2} },
	}
}

// TestPolicyIndependence is the central correctness property of an
// adaptive CEP system: the adaptation policy (and hence the sequence of
// plan migrations) must never change the set of detected matches.
func TestPolicyIndependence(t *testing.T) {
	w := gen.Traffic(TrafficSmall())
	window := event.Time(60)
	for _, kind := range []gen.Kind{gen.Sequence, gen.Conjunction, gen.Negation, gen.Kleene} {
		pat, err := w.Pattern(kind, 3, window)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []Model{GreedyNFA, ZStreamTree} {
			var want []string
			first := true
			for name, mk := range policies() {
				got, m := run(t, pat, w.Events, Config{
					Model:      model,
					NewPolicy:  mk,
					CheckEvery: 200,
				})
				if first {
					want = got
					first = false
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%v/%s: %d matches vs %d (reopts=%d)",
						kind, model, name, len(got), len(want), m.Reoptimizations)
				}
			}
		}
	}
}

// TrafficSmall is a small but nontrivial workload with one extreme shift.
func TrafficSmall() gen.TrafficConfig {
	return gen.TrafficConfig{Types: 6, Events: 6000, Seed: 11, Shifts: 1, MeanGap: 3}
}

// TestMatchesOracle validates the full adaptive pipeline (with plan
// migrations happening mid-stream) against the brute-force oracle.
func TestMatchesOracle(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 5, Events: 1500, Seed: 23, Shifts: 1, MeanGap: 4})
	pat, err := w.Pattern(gen.Sequence, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Keys(oracle.Matches(pat, w.Events))
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		got, m := run(t, pat, w.Events, Config{
			Model:      model,
			NewPolicy:  func() core.Policy { return core.Unconditional{} }, // max migration churn
			CheckEvery: 100,
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: %d matches, oracle %d (reopts %d)", model, len(got), len(want), m.Reoptimizations)
		}
		if m.Reoptimizations == 0 {
			t.Fatalf("%v: expected at least one migration in this test", model)
		}
	}
}

// TestAdaptationReactsToShift checks that the invariant policy detects an
// extreme rate shift and replaces the plan.
func TestAdaptationReactsToShift(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 20000, Seed: 31, Shifts: 2, MeanGap: 2})
	pat, err := w.Pattern(gen.Sequence, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	_, m := run(t, pat, w.Events, Config{
		Model:      GreedyNFA,
		NewPolicy:  func() core.Policy { return &core.Invariant{} },
		CheckEvery: 500,
	})
	if m.Reoptimizations == 0 {
		t.Fatal("invariant policy never adapted across two extreme shifts")
	}
	// The static policy must not adapt.
	_, ms := run(t, pat, w.Events, Config{
		Model:      GreedyNFA,
		NewPolicy:  func() core.Policy { return core.Static{} },
		CheckEvery: 500,
	})
	if ms.Reoptimizations != 0 || ms.PlanGenerations != 1 {
		t.Fatalf("static policy adapted: %+v", ms)
	}
}

// TestInvariantDistanceSuppressesNoise: on a stable stream, the basic
// d=0 method replans on estimator noise (the behaviour §3.4 motivates
// eliminating), while a nonzero distance absorbs it almost entirely.
func TestInvariantDistanceSuppressesNoise(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 20000, Seed: 41, Shifts: 0, MeanGap: 2, Skew: 1.5})
	pat, err := w.Pattern(gen.Sequence, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	_, basic := run(t, pat, w.Events, Config{
		Model:      GreedyNFA,
		NewPolicy:  func() core.Policy { return &core.Invariant{} },
		CheckEvery: 500,
	})
	_, dist := run(t, pat, w.Events, Config{
		Model:      GreedyNFA,
		NewPolicy:  func() core.Policy { return &core.Invariant{D: 0.3} },
		CheckEvery: 500,
	})
	// One replan is legitimate even with distance: the initial plan was
	// built from empty statistics and the first check corrects it.
	if dist.Reoptimizations > 1 {
		t.Fatalf("d=0.3 replanned %d times on a stable stream", dist.Reoptimizations)
	}
	if dist.Reoptimizations > basic.Reoptimizations {
		t.Fatalf("distance increased replans: %d > %d", dist.Reoptimizations, basic.Reoptimizations)
	}
}

// TestUnconditionalRunsAEveryCheck verifies the baseline's defining
// behaviour and its overhead accounting.
func TestUnconditionalRunsAEveryCheck(t *testing.T) {
	w := gen.Traffic(TrafficSmall())
	pat, err := w.Pattern(gen.Sequence, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	_, m := run(t, pat, w.Events, Config{
		Model:      GreedyNFA,
		NewPolicy:  func() core.Policy { return core.Unconditional{} },
		CheckEvery: 200,
	})
	if m.DecisionCalls != m.PlanGenerations-1 { // -1: the initial Generate
		t.Fatalf("decision calls %d, plan generations %d", m.DecisionCalls, m.PlanGenerations)
	}
	if m.PlanTime <= 0 {
		t.Fatal("plan time not accounted")
	}
	if m.Overhead(1) <= 0 {
		t.Fatal("overhead not positive")
	}
}

// TestStaticDecisionAccounting: static never calls A after initialization.
func TestStaticDecisionAccounting(t *testing.T) {
	w := gen.Traffic(TrafficSmall())
	pat, _ := w.Pattern(gen.Sequence, 3, 60)
	_, m := run(t, pat, w.Events, Config{
		Model:      GreedyNFA,
		NewPolicy:  func() core.Policy { return core.Static{} },
		CheckEvery: 200,
	})
	if m.PlanGenerations != 1 {
		t.Fatalf("PlanGenerations = %d; want 1", m.PlanGenerations)
	}
	if m.DecisionCalls == 0 {
		t.Fatal("D never consulted")
	}
	if m.Events != uint64(len(w.Events)) {
		t.Fatalf("Events = %d", m.Events)
	}
}

// TestOrPattern runs a composite pattern end to end with per-disjunct
// adaptation and compares against the oracle.
func TestOrPattern(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 2000, Seed: 51, Shifts: 1, MeanGap: 4})
	pat, err := w.Pattern(gen.Composite, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Keys(oracle.Matches(pat, w.Events))
	calls := 0
	got, m := run(t, pat, w.Events, Config{
		Model: GreedyNFA,
		NewPolicy: func() core.Policy {
			calls++
			return &core.Invariant{}
		},
		CheckEvery: 300,
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OR: %d matches, oracle %d", len(got), len(want))
	}
	if m.Events != uint64(len(w.Events))*3 { // three sub-runners
		t.Fatalf("Events = %d", m.Events)
	}
	// Each disjunct adapts with a policy of its own: an invariant policy
	// holds the invariants of one plan.
	if calls != 3 {
		t.Fatalf("NewPolicy called %d times for three disjuncts, want 3", calls)
	}
}

// TestZStreamModelUsesTreePlans sanity-checks plan wiring.
func TestModelPlanWiring(t *testing.T) {
	w := gen.Traffic(TrafficSmall())
	pat, _ := w.Pattern(gen.Sequence, 3, 60)
	e, err := New(pat, Config{Model: ZStreamTree, NewPolicy: func() core.Policy { return core.Static{} }})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.CurrentPlans()[0].(*plan.TreePlan); !ok {
		t.Fatalf("plan type %T", e.CurrentPlans()[0])
	}
	e2, _ := New(pat, Config{Model: GreedyNFA, NewPolicy: func() core.Policy { return core.Static{} }})
	if _, ok := e2.CurrentPlans()[0].(*plan.OrderPlan); !ok {
		t.Fatalf("plan type %T", e2.CurrentPlans()[0])
	}
	if _, err := New(pat, Config{Model: Model(9)}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if GreedyNFA.String() != "greedy-nfa" || ZStreamTree.String() != "zstream-tree" {
		t.Error("model names wrong")
	}
}

// TestDefaultPolicyIsInvariant checks the default configuration.
func TestDefaultPolicyIsInvariant(t *testing.T) {
	w := gen.Traffic(TrafficSmall())
	pat, _ := w.Pattern(gen.Sequence, 3, 60)
	got, _ := run(t, pat, w.Events, Config{}) // all defaults
	want, _ := run(t, pat, w.Events, Config{NewPolicy: func() core.Policy { return &core.Invariant{} }})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("default configuration diverged from explicit invariant policy")
	}
}

// TestMigrationSeedsResiduals: a negation spanning a migration boundary
// must still veto matches after the plan switch (resolver seeding).
func TestMigrationSeedsResiduals(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 4000, Seed: 61, Shifts: 1, MeanGap: 3})
	pat, err := w.Pattern(gen.Negation, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Keys(oracle.Matches(pat, w.Events))
	got, m := run(t, pat, w.Events, Config{
		Model:      GreedyNFA,
		NewPolicy:  func() core.Policy { return core.Unconditional{} },
		CheckEvery: 50, // migrate aggressively
	})
	if m.Reoptimizations == 0 {
		t.Skip("no migration occurred; scenario not exercised")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("negation across migration: %d matches, oracle %d", len(got), len(want))
	}
}

// TestMetricsAggregation sanity-checks counters.
func TestMetricsAggregation(t *testing.T) {
	var m Metrics
	m.Merge(Metrics{Events: 1, Matches: 2, PeakPMs: 5, Reoptimizations: 1})
	m.Merge(Metrics{Events: 2, PeakPMs: 3})
	if m.Events != 3 || m.Matches != 2 || m.PeakPMs != 5 || m.Reoptimizations != 1 {
		t.Fatalf("%+v", m)
	}
	if m.Overhead(0) != 0 {
		t.Fatal("zero-total overhead must be 0")
	}
}

// TestAdaptiveCountsPinned pins the adaptive loop's exact counts on a
// traffic stream with regime shifts. They are a function of every
// Snapshot the estimator hands the policy, bit for bit: a statistics
// change that alters one estimate somewhere moves a reoptimization point,
// and with it the plans run and the work the evaluators do. The values
// were recorded with the event-ring/Pred.Eval estimator that the
// differential tests in internal/stats keep as their reference.
//
// The NFA's lazy scan reads only the events its order checks let through
// (after the filled event the next one must follow, before the one it
// must precede); the events it stopped visiting were all rejected, so
// reoptimizations, plan generations, PMCreated and matches are the ones
// recorded before, and the NFA's predicate evaluations alone fell — from
// 141722 with the scan over the whole window.
//
// No arriving event is offered where it must precede an event already
// held (an NFA look-back state, a tree node whose joins need the arrival
// before a sibling event); those offers all failed, so only the predicate
// evaluations fell again — from 126291 (NFA) and 267460 (tree).
func TestAdaptiveCountsPinned(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 60000, Seed: 7, Shifts: 3, MeanGap: 2})
	pat, err := w.Pattern(gen.Sequence, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ Reoptimizations, PlanGenerations, PredEvals, PMCreated, Matches uint64 }
	want := map[Model]counts{
		GreedyNFA:   {Reoptimizations: 59, PlanGenerations: 62, PredEvals: 106429, PMCreated: 7372, Matches: 362},
		ZStreamTree: {Reoptimizations: 6, PlanGenerations: 14, PredEvals: 207294, PMCreated: 46506, Matches: 362},
	}
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		_, m := run(t, pat, w.Events, Config{Model: model, NewPolicy: func() core.Policy { return &core.Invariant{} }, CheckEvery: 250})
		got := counts{m.Reoptimizations, m.PlanGenerations, m.PredEvals, m.PMCreated, m.Matches}
		if got != want[model] {
			t.Errorf("%v: %+v, want %+v", model, got, want[model])
		}
	}
}

// TestKeyedCountsPinned is TestAdaptiveCountsPinned on a keyed stream,
// where the plans' check lists carry key equalities and the partial-match
// store's index engages. The index only spares the evaluators candidates
// their check lists would have rejected, so the adaptive loop's decisions,
// the partial matches created and the matches found are the ones recorded
// before it existed; predicate evaluations alone fall — from 1362661
// (NFA) and 1472110 (tree) on the single-bucket store at b9eed69. The
// NFA's order-bounded lazy scan (see TestAdaptiveCountsPinned) took its
// count from 213866 to 203071 with the same decisions, PMs and matches;
// the offer rule (ibid.) took the counts from 203071 (NFA) and 183545
// (tree).
func TestKeyedCountsPinned(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 60000, Seed: 7, Shifts: 3, MeanGap: 2, Keys: 8})
	pat, err := w.Pattern(gen.Sequence, 4, 1600)
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ Reoptimizations, PlanGenerations, PredEvals, PMCreated, Matches uint64 }
	want := map[Model]counts{
		GreedyNFA:   {Reoptimizations: 20, PlanGenerations: 23, PredEvals: 196172, PMCreated: 15610, Matches: 295},
		ZStreamTree: {Reoptimizations: 11, PlanGenerations: 60, PredEvals: 156759, PMCreated: 46601, Matches: 295},
	}
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		_, m := run(t, pat, w.Events, Config{Model: model, NewPolicy: func() core.Policy { return &core.Invariant{} }, CheckEvery: 250})
		got := counts{m.Reoptimizations, m.PlanGenerations, m.PredEvals, m.PMCreated, m.Matches}
		if got != want[model] {
			t.Errorf("%v: %+v, want %+v", model, got, want[model])
		}
	}
}

// TestDeliversSeqZeroByValue: a caller's stream may leave every Seq at 0,
// so what the engine keeps for its consumer shares an event's copy on the
// source event, never on its Seq. Over SEQ(A+, B) each match holds several
// events the one B completes; every delivered match must read, by value,
// the events the oracle finds.
func TestDeliversSeqZeroByValue(t *testing.T) {
	s := event.NewSchema()
	s.MustAddType("A", "v")
	s.MustAddType("B", "v")
	b := pattern.NewBuilder(s, pattern.Seq, 6)
	b.Event(0)
	b.Event(1)
	p := b.Kleene(0).MustBuild()
	var evs []event.Event
	for i := 0; i < 60; i++ {
		evs = append(evs, s.MustNew(min(i%3, 1), event.Time(i+1), float64(i))) // A A B ...
	}
	render := func(ms []*match.Match) []string {
		var out []string
		for _, m := range ms {
			r := ""
			for _, ev := range m.Events {
				if ev != nil {
					r += fmt.Sprintf("%d@%d=%v ", ev.Type, ev.TS, ev.Attrs)
				}
			}
			for _, set := range m.Kleene {
				for _, ev := range set {
					r += fmt.Sprintf("{%d@%d=%v} ", ev.Type, ev.TS, ev.Attrs)
				}
			}
			out = append(out, r)
		}
		sort.Strings(out)
		return out
	}
	var got []*match.Match
	e, err := New(p, Config{OnMatch: func(m *match.Match) { got = append(got, m) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		e.Process(&evs[i])
	}
	e.Finish()
	want := render(oracle.Matches(p, evs))
	if len(want) < 15 {
		t.Fatalf("the oracle finds %d matches: the stream no longer exercises sharing", len(want))
	}
	if g := render(got); !reflect.DeepEqual(g, want) {
		t.Fatalf("delivered %q, the oracle finds %q", g, want)
	}
}

package engine

import (
	"math"
	"testing"

	"acep/internal/core"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/stats"
)

// TestAdaptationCheckAllocs: a warm adaptation check allocates nothing.
// Under core.Unconditional A runs at every check, so each one refreshes
// the statistics, consults D, generates a plan, costs both plans and
// installs the trace; over a stream whose statistics hold still no check
// replaces the plan, and none may allocate.
func TestAdaptationCheckAllocs(t *testing.T) {
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C"} {
		s.MustAddType(name, "x", "y")
	}
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		t.Run(model.String(), func(t *testing.T) {
			e, err := New(ltChain(s, 0), Config{
				Model: model, CheckEvery: 1 << 30,
				NewPolicy: func() core.Policy { return core.Unconditional{} },
				OnMatch:   func(*match.Match) { t.Fatal("the falling stream matched") },
			})
			if err != nil {
				t.Fatal(err)
			}
			newFallingFeed(e, 3).run(4 * allocWindow)
			r := e.runners[0]
			r.adaptationCheck() // the first may deploy the stream's plan
			r.adaptationCheck()
			reopts, gens := r.metrics.Reoptimizations, r.metrics.PlanGenerations
			if got := testing.AllocsPerRun(100, r.adaptationCheck); got != 0 {
				t.Errorf("%.2f allocations per adaptation check, want 0", got)
			}
			if r.metrics.Reoptimizations != reopts {
				t.Fatalf("a measured check replaced the plan")
			}
			if ran := r.metrics.PlanGenerations - gens; ran < 100 {
				t.Fatalf("A ran %d times in 101 checks", ran)
			}
		})
	}
}

// TestInitialStatsOnlyRead: the InitialStats snapshot — one value a caller
// may hand every engine it builds — is only read. After engines on both
// models adapted from it, checking every 100 events, it reads bit for bit
// what it did.
func TestInitialStatsOnlyRead(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 20000, Seed: 7, Shifts: 3, MeanGap: 2})
	pat, err := w.Pattern(gen.Sequence, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	initial := stats.Exact(pat, w.Events[:2000])
	kept := initial.Clone()
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		_, m := run(t, pat, w.Events, Config{
			Model: model, CheckEvery: 100,
			InitialStats: func(*pattern.Pattern) *stats.Snapshot { return initial },
			NewPolicy:    func() core.Policy { return core.Unconditional{} },
		})
		if m.PlanGenerations < 100 {
			t.Fatalf("%v: %d plan generations", model, m.PlanGenerations)
		}
	}
	if initial.Version != kept.Version {
		t.Fatalf("Version %d, was %d", initial.Version, kept.Version)
	}
	for i := range kept.Rates {
		if math.Float64bits(initial.Rates[i]) != math.Float64bits(kept.Rates[i]) {
			t.Fatalf("Rates[%d] = %v, was %v", i, initial.Rates[i], kept.Rates[i])
		}
		for j := range kept.Sel[i] {
			if math.Float64bits(initial.Sel[i][j]) != math.Float64bits(kept.Sel[i][j]) {
				t.Fatalf("Sel[%d][%d] = %v, was %v", i, j, initial.Sel[i][j], kept.Sel[i][j])
			}
		}
	}
}

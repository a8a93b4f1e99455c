package acep_test

import (
	"testing"

	"acep"
)

// TestFacadeQuickstart exercises the public API end to end: the paper's
// Example 1 through the root package only.
func TestFacadeQuickstart(t *testing.T) {
	schema := acep.NewSchema()
	camA := schema.MustAddType("A", "person_id")
	camB := schema.MustAddType("B", "person_id")
	camC := schema.MustAddType("C", "person_id")

	pb := acep.NewPattern(schema, acep.Seq, 10*acep.Minute)
	a := pb.Event(camA)
	b := pb.Event(camB)
	c := pb.Event(camC)
	pb.WhereEq(a, "person_id", b, "person_id")
	pb.WhereEq(b, "person_id", c, "person_id")
	pat, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}

	var matches []*acep.Match
	eng, err := acep.NewEngine(pat, acep.Config{
		NewPolicy: func() acep.Policy {
			return acep.NewInvariantPolicy(acep.InvariantOptions{K: 2, Distance: 0.1})
		},
		OnMatch: func(m *acep.Match) { matches = append(matches, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	events := []acep.Event{
		{Type: camA, TS: 1 * acep.Minute, Seq: 1, Attrs: []float64{7}},
		{Type: camB, TS: 3 * acep.Minute, Seq: 2, Attrs: []float64{7}},
		{Type: camC, TS: 6 * acep.Minute, Seq: 3, Attrs: []float64{7}},
		{Type: camC, TS: 7 * acep.Minute, Seq: 4, Attrs: []float64{9}},
	}
	for i := range events {
		eng.Process(&events[i])
	}
	eng.Finish()
	if len(matches) != 1 {
		t.Fatalf("matches = %d; want 1", len(matches))
	}
	if got := eng.Metrics().Matches; got != 1 {
		t.Fatalf("metrics.Matches = %d", got)
	}
}

// TestFacadePolicies builds every exposed policy and runs a tiny stream.
func TestFacadePolicies(t *testing.T) {
	w := acep.NewTrafficWorkload(acep.TrafficConfig{Types: 5, Events: 3000, Seed: 1})
	pat, err := w.Pattern(acep.SequencePatterns, 3, 100*acep.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	policies := []func() acep.Policy{
		acep.NewStaticPolicy,
		acep.NewUnconditionalPolicy,
		func() acep.Policy { return acep.NewThresholdPolicy(0.3) },
		func() acep.Policy { return acep.NewInvariantPolicy(acep.InvariantOptions{AutoDistance: true}) },
	}
	var counts []uint64
	for _, p := range policies {
		eng, err := acep.NewEngine(pat, acep.Config{NewPolicy: p, CheckEvery: 300})
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
		counts = append(counts, eng.Metrics().Matches)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("policies disagree on matches: %v", counts)
		}
	}
}

// TestFacadeOr exercises disjunctions and the ZStream model through the
// façade.
func TestFacadeOr(t *testing.T) {
	w := acep.NewStocksWorkload(acep.StocksConfig{Types: 6, Events: 3000, Seed: 5})
	sub1, err := w.Pattern(acep.SequencePatterns, 3, 80*acep.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := w.Pattern(acep.ConjunctionPatterns, 3, 80*acep.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	or, err := acep.Or(sub1, sub2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := acep.NewEngine(or, acep.Config{
		Model: acep.ZStreamTree,
		NewPolicy: func() acep.Policy {
			return acep.NewInvariantPolicy(acep.InvariantOptions{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	if len(eng.CurrentPlans()) != 2 {
		t.Fatalf("plans = %d; want one per disjunct", len(eng.CurrentPlans()))
	}
	if eng.Metrics().Matches == 0 {
		t.Fatal("no matches detected")
	}
}

package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"acep/internal/core"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/oracle"
	"acep/internal/stream"
)

// TestLateEventsDropped injects out-of-order events and checks that the
// engine discards them, counts them, and keeps the rest of the stream's
// semantics intact.
func TestLateEventsDropped(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 5, Events: 2000, Seed: 81, MeanGap: 4})
	pat, err := w.Pattern(gen.Sequence, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle 5% of events backwards in time.
	evs := append([]event.Event(nil), w.Events...)
	r := rand.New(rand.NewSource(3))
	var lateCount uint64
	for i := 100; i < len(evs); i += 20 {
		evs[i].TS = evs[i-50].TS // jump backwards
		lateCount++
	}
	got, m := run(t, pat, evs, Config{NewPolicy: func() core.Policy { return &core.Invariant{} }, CheckEvery: 500})
	if m.LateDropped != lateCount {
		t.Fatalf("LateDropped = %d; want %d", m.LateDropped, lateCount)
	}
	// The surviving stream equals the stream with late events removed.
	var clean []event.Event
	wm := event.Time(0)
	for _, e := range evs {
		if e.TS < wm {
			continue
		}
		wm = e.TS
		clean = append(clean, e)
	}
	want := oracle.Keys(oracle.Matches(pat, clean))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d matches; oracle on cleaned stream %d", len(got), len(want))
	}
	_ = r

	// Re-sorting with the stream package recovers full detection.
	sorted := append([]event.Event(nil), evs...)
	stream.SortByTime(sorted)
	got2, m2 := run(t, pat, sorted, Config{NewPolicy: func() core.Policy { return &core.Invariant{} }, CheckEvery: 500})
	if m2.LateDropped != 0 {
		t.Fatalf("sorted stream still dropped %d", m2.LateDropped)
	}
	want2 := oracle.Keys(oracle.Matches(pat, sorted))
	if !reflect.DeepEqual(got2, want2) {
		t.Fatalf("sorted: %d matches; oracle %d", len(got2), len(want2))
	}
}

// TestEstimatorNoiseRobustness injects a pathological statistics
// configuration (tiny sample, tiny stats window -> maximal estimator
// noise) and checks the invariant policy still detects the identical
// match set and the engine completes without excessive churn.
func TestEstimatorNoiseRobustness(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 5, Events: 6000, Seed: 91, Shifts: 1, MeanGap: 3})
	pat, err := w.Pattern(gen.Sequence, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := run(t, pat, w.Events, Config{NewPolicy: func() core.Policy { return core.Static{} }, CheckEvery: 300})

	noisy := Config{
		NewPolicy:  func() core.Policy { return &core.Invariant{} },
		CheckEvery: 300,
	}
	noisy.stats.SampleSize = 2
	noisy.stats.Window = 30 // barely a handful of events
	got, m := run(t, pat, w.Events, noisy)
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("noisy estimator changed semantics: %d vs %d matches", len(got), len(base))
	}
	// Sanity: the run completed with a bounded number of replans (the
	// engine must not melt down under estimator noise).
	if m.Reoptimizations > m.DecisionCalls {
		t.Fatalf("replans %d exceed decision calls %d", m.Reoptimizations, m.DecisionCalls)
	}
}

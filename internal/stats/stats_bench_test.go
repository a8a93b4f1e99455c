package stats

import (
	"testing"

	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/pattern"
)

// chainWorkload is a traffic stream and the SEQ of 4 gen's chain builds
// over it: two GT predicates between every pair of positions, 12 in all —
// the pattern the engine-adapt benchmark workload runs.
func chainWorkload(tb testing.TB, events int) (*gen.Workload, *pattern.Pattern) {
	tb.Helper()
	w := gen.Traffic(gen.TrafficConfig{Types: 4, Events: events, Seed: 1, Shifts: 1})
	pat, err := w.Pattern(gen.Sequence, 4, event.Second)
	if err != nil {
		tb.Fatal(err)
	}
	return w, pat
}

// BenchmarkEHAdd measures the per-event cost of the sliding-window
// counter (paid once per event per pattern position).
func BenchmarkEHAdd(b *testing.B) {
	h, _ := NewEH(10*event.Second, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(event.Time(i))
	}
}

// BenchmarkEHCount measures the windowed-count estimate.
func BenchmarkEHCount(b *testing.B) {
	h, _ := NewEH(10*event.Second, 0.05)
	for i := 0; i < 100000; i++ {
		h.Add(event.Time(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Count(100000) < 0 {
			b.Fatal("negative count")
		}
	}
}

// snapshotter is the part of an estimator the refresh benchmark drives;
// the test-only reference implementation satisfies it too.
type snapshotter interface {
	Observe(*event.Event)
	Snapshot(event.Time) *Snapshot
}

// benchSnapshot measures a full statistics refresh (selectivity
// re-evaluation over the sample rings plus rate reads) — the per-check
// cost of the adaptation loop's statistics component. One event lands
// in every ring between two refreshes, so no cached count is reused.
func benchSnapshot(b *testing.B, pat *pattern.Pattern, e snapshotter, evs []event.Event) {
	for i := range evs {
		e.Observe(&evs[i])
	}
	n := pat.NumPositions()
	fresh := evs[len(evs)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < n; p++ {
			fresh.Type = pat.Positions[p].Type
			fresh.TS++
			e.Observe(&fresh)
		}
		if snap := e.Snapshot(fresh.TS); snap == nil {
			b.Fatal("nil snapshot")
		}
	}
	b.StopTimer()
	perCheck := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perCheck, "ns/check")
	b.ReportMetric(perCheck/float64(len(pat.Preds)), "ns/pred")
}

// adaptShaped is chainWorkload's pattern over a stream shaped like the
// engine-adapt workload's — ten types and three regime shifts — where
// chainWorkload has four types and one shift. Which counting pays at the
// sample rings' size depends on the values in them: on chainWorkload's
// stream a sorted count measured 2.3 times faster than countPairs, and
// on engine-adapt it made the refresh slower.
func adaptShaped(tb testing.TB, events int) (*gen.Workload, *pattern.Pattern) {
	tb.Helper()
	w := gen.Traffic(gen.TrafficConfig{Types: 10, Events: events, Seed: 1, Shifts: 3})
	pat, err := w.Pattern(gen.Sequence, 4, event.Second)
	if err != nil {
		tb.Fatal(err)
	}
	return w, pat
}

// BenchmarkSnapshot runs the refresh on the 2-predicate test pattern and
// on the 12-predicate all-pairs SEQ of 4 the engine-adapt workload uses,
// over a stream of that workload's shape (adaptShaped).
func BenchmarkSnapshot(b *testing.B) {
	b.Run("preds=2", func(b *testing.B) {
		s := estSchema()
		pat := estPattern(s)
		e, _ := NewEstimator(pat, Config{})
		var evs []event.Event
		for ts := event.Time(0); ts < 10000; ts += 5 {
			for typ := 0; typ < 3; typ++ {
				evs = append(evs, s.MustNew(typ, ts, float64(ts%7)))
			}
		}
		benchSnapshot(b, pat, e, evs)
	})
	b.Run("preds=12", func(b *testing.B) {
		w, pat := adaptShaped(b, 4000)
		e, _ := NewEstimator(pat, Config{})
		benchSnapshot(b, pat, e, w.Events)
	})
	// The event-ring/Pred.Eval estimator the differential tests keep as
	// their reference, on the same input: the "before" of preds=12.
	b.Run("preds=12/reference", func(b *testing.B) {
		w, pat := adaptShaped(b, 4000)
		benchSnapshot(b, pat, newRefEstimator(pat, Config{}), w.Events)
	})
}

// BenchmarkObserve measures the per-event estimator cost.
func BenchmarkObserve(b *testing.B) {
	s := estSchema()
	pat := estPattern(s)
	e, _ := NewEstimator(pat, Config{})
	ev := s.MustNew(0, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.TS = event.Time(i)
		e.Observe(&ev)
	}
}

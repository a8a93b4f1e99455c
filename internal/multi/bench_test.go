package multi

import (
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
)

// BenchmarkEvaluatorProcess is the evaluator alone over the 32-pattern
// overlap-3 set on a keyed seven-type stream (the set and stream shape of
// the multi-shared benchmark workload): one op is one event, so ns/op,
// B/op and allocs/op are per event. The stream repeats with its
// timestamps and sequence numbers shifted past the previous lap.
func BenchmarkEvaluatorProcess(b *testing.B) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 50000, Seed: 1, Keys: 2, Shifts: 1})
	entries, err := w.OverlapPatterns(gen.Sequence, 32, 3, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	specs := specsOf(entries)
	for i := range specs {
		specs[i].Config = engine.Config{CheckEvery: 500}
	}
	set, err := Analyze(specs, w.Schema)
	if err != nil {
		b.Fatal(err)
	}
	v, err := NewEvaluator(set, Options{OnMatch: func(uint32, *match.Match) {}, OwnedEmit: true})
	if err != nil {
		b.Fatal(err)
	}
	n := len(w.Events)
	span := w.Events[n-1].TS + 1
	var ev event.Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap := i / n
		ev = w.Events[i%n]
		ev.TS += event.Time(lap) * span
		ev.Seq += uint64(lap * n)
		v.Process(&ev)
	}
}

package shard

import (
	"testing"
	"time"

	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/shed"
	"acep/internal/stats"
)

// slowPolicy stalls its shard's worker on every adaptation check, letting
// the tests fill a bounded ingestion queue deterministically enough to
// observe overflow behavior.
type slowPolicy struct{ delay time.Duration }

func (slowPolicy) Name() string                         { return "slow" }
func (slowPolicy) Install(*core.Trace, *stats.Snapshot) {}
func (p slowPolicy) ShouldReoptimize(*stats.Snapshot) bool {
	time.Sleep(p.delay)
	return false
}

// TestZeroEventShardLiveness runs a workload with a single key value:
// all but one shard receive only empty watermark cuts, and the collector
// must still release every match. A stalling shard watermark would
// deadlock Finish; the test completing is the assertion.
func TestZeroEventShardLiveness(t *testing.T) {
	// One key value: every event lands on one shard; the other seven
	// process nothing, ever.
	w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 1})
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	var matches []*match.Match
	eng, err := New(pat, engine.Config{CheckEvery: 250}, Options{
		Shards: 8, Batch: 64, KeyAttr: "key", Schema: w.Schema,
		OnMatch: func(m *match.Match) { matches = append(matches, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	m := eng.Metrics()
	// Events of a type the pattern does not read reach no shard.
	if skip := elided(pat, w.Events); m.Events+skip != uint64(len(w.Events)) {
		t.Fatalf("processed %d + %d elided of %d events", m.Events, skip, len(w.Events))
	}
	if len(matches) == 0 {
		t.Fatal("no matches released; the test is vacuous")
	}
	// Matches are released in detection order; on a timestamp-ordered
	// stream a (negation/Kleene-free) match's latest event is the one
	// whose processing detected it, so spans end nondecreasingly.
	for i := 1; i < len(matches); i++ {
		_, hi0 := matches[i-1].Span()
		_, hi1 := matches[i].Span()
		if hi1 < hi0 {
			t.Fatalf("match %d out of detection order", i)
		}
	}
	// Exactly one shard did all the work.
	busy := 0
	for _, sm := range eng.ShardMetrics() {
		if sm.Events > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("%d busy shards, want 1", busy)
	}
}

// TestEmptyStream finishes a sharded engine that never saw an event —
// an empty run handed to ProcessStable is none, and the cut sealed after
// it carries only its watermark.
func TestEmptyStream(t *testing.T) {
	w := keyedWorkload(t)
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(pat, engine.Config{}, Options{
		Shards:  4,
		KeyAttr: "key",
		Schema:  w.Schema,
		OnMatch: func(*match.Match) { t.Error("match from an empty stream") },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.ProcessStable(1, nil)
	eng.Flush(0)
	eng.Finish()
	eng.Finish() // idempotent
	if m := eng.Metrics(); m.Events != 0 || m.Matches != 0 {
		t.Fatalf("empty stream metrics: %+v", m)
	}
}

// TestDropNewestOverflow fills a one-batch queue faster than the stalled
// worker drains it: the engine must stay unblocked, account every lost
// event in QueueDropped, and still deliver the final cut's matches.
func TestDropNewestOverflow(t *testing.T) {
	w := keyedWorkload(t)
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	var matches uint64
	eng, err := New(pat, engine.Config{
		CheckEvery: 50,
		NewPolicy:  func() core.Policy { return slowPolicy{delay: 2 * time.Millisecond} },
	}, Options{
		Shards:   2,
		Batch:    32,
		QueueCap: 32, // one batch in flight per shard
		Overflow: DropNewest,
		KeyAttr:  "key",
		Schema:   w.Schema,
		OnMatch:  func(*match.Match) { matches++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	m := eng.Metrics()
	if m.QueueDropped == 0 {
		t.Fatal("stalled workers with a 1-batch queue dropped nothing")
	}
	// Events of a type the pattern does not read never reach a queue.
	if skip := elided(pat, w.Events); m.Events+m.QueueDropped+skip != uint64(len(w.Events)) {
		t.Fatalf("%d processed + %d dropped + %d elided != %d arrived",
			m.Events, m.QueueDropped, skip, len(w.Events))
	}
	if m.ShedRate() <= 0 {
		t.Fatalf("shed rate %v, want > 0", m.ShedRate())
	}
}

// TestBackpressureLossless is the default-mode counterpart: the same
// stalled workers and tiny queue must lose nothing.
func TestBackpressureLossless(t *testing.T) {
	w := keyedWorkload(t)
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(pat, engine.Config{
		CheckEvery: 500,
		NewPolicy:  func() core.Policy { return slowPolicy{delay: time.Millisecond} },
	}, Options{
		Shards:   2,
		Batch:    32,
		QueueCap: 32,
		KeyAttr:  "key",
		Schema:   w.Schema,
		OnMatch:  func(*match.Match) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	m := eng.Metrics()
	if m.QueueDropped != 0 {
		t.Fatalf("backpressure dropped %d events", m.QueueDropped)
	}
	// Events of a type the pattern does not read reach no shard.
	if skip := elided(pat, w.Events); m.Events+skip != uint64(len(w.Events)) {
		t.Fatalf("processed %d + %d elided of %d events", m.Events, skip, len(w.Events))
	}
}

// TestShardedShedding runs per-shard pattern-aware shedding under a
// deliberately tiny live-PM budget and checks the aggregated accounting.
func TestShardedShedding(t *testing.T) {
	w := keyedWorkload(t)
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	var matches uint64
	eng, err := New(pat, engine.Config{
		CheckEvery: 250,
		Shedding: shed.Config{
			Policy: shed.PatternAware{Target: 0.5},
			Budget: shed.Budget{LivePMs: 1},
		},
	}, Options{
		Shards:  4,
		Batch:   64,
		KeyAttr: "key",
		Schema:  w.Schema,
		OnMatch: func(*match.Match) { matches++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	m := eng.Metrics()
	if m.EventsShed == 0 {
		t.Fatal("overloaded shards shed nothing")
	}
	// Events of a type the pattern does not read never reach a shedder.
	if skip := elided(pat, w.Events); m.Events+m.EventsShed+skip != uint64(len(w.Events)) {
		t.Fatalf("%d processed + %d shed + %d elided != %d arrived",
			m.Events, m.EventsShed, skip, len(w.Events))
	}
}

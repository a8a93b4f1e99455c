package acep_test

import (
	"testing"

	"acep"
	"acep/internal/multi"
)

// TestSheddingFacade exercises the overload-control surface through the
// root package: an engine over budget sheds with each policy, the None
// policy and the no-shedding engine agree exactly, and pattern-aware
// shedding keeps more matches than uniform shedding at the same target.
func TestSheddingFacade(t *testing.T) {
	w := acep.NewTrafficWorkload(acep.TrafficConfig{
		Types: 8, Events: 30000, Seed: 3, Shifts: 2, Keys: 16,
	})
	pat, err := w.Pattern(acep.SequencePatterns, 3, 3*acep.Second)
	if err != nil {
		t.Fatal(err)
	}
	key, err := acep.ShardKeyByAttr(w.Schema, "key")
	if err != nil {
		t.Fatal(err)
	}

	run := func(pol acep.ShedPolicy) (uint64, acep.Metrics) {
		cfg := acep.Config{Model: acep.ZStreamTree, CheckEvery: 500}
		if pol != nil {
			cfg.Shedding = acep.SheddingConfig{
				Policy: pol,
				Budget: acep.ShedBudget{EventsPerSec: 40}, // stream runs ~8x this
				Key:    key,
			}
		}
		var matches uint64
		cfg.OnMatch = func(*acep.Match) { matches++ }
		eng, err := acep.NewEngine(pat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
		return matches, eng.Metrics()
	}

	baseline, _ := run(nil)
	if baseline == 0 {
		t.Fatal("baseline produced no matches; test is vacuous")
	}
	noneMatches, noneM := run(acep.NewShedNone())
	if noneMatches != baseline || noneM.EventsShed != 0 {
		t.Fatalf("None policy changed detection: %d matches (baseline %d), %d shed",
			noneMatches, baseline, noneM.EventsShed)
	}

	randMatches, randM := run(acep.NewShedRandom(0.4))
	paMatches, paM := run(acep.NewShedPatternAware(0.4))
	if randM.EventsShed == 0 || paM.EventsShed == 0 {
		t.Fatalf("no shedding under forced overload: random %d, pattern-aware %d",
			randM.EventsShed, paM.EventsShed)
	}
	if paMatches <= randMatches {
		t.Fatalf("pattern-aware kept %d matches, random kept %d — expected strictly more",
			paMatches, randMatches)
	}
	if paMatches > baseline {
		t.Fatalf("shedding grew the match set: %d > %d", paMatches, baseline)
	}

	// The rate-utility policy must shed the event types the pattern never
	// references before touching useful mass at a modest target.
	ruMatches, ruM := run(acep.NewShedRateUtility(0.2))
	if ruM.EventsShed == 0 {
		t.Fatal("rate-utility shed nothing")
	}
	if ruMatches < randMatches {
		t.Fatalf("rate-utility(0.2) kept %d matches, below random(0.4)'s %d",
			ruMatches, randMatches)
	}
}

// TestShardedOverloadFacade drives the bounded-queue knobs through the
// public sharded API: DropNewest with per-event shedding in each shard.
func TestShardedOverloadFacade(t *testing.T) {
	w := acep.NewTrafficWorkload(acep.TrafficConfig{
		Types: 8, Events: 20000, Seed: 4, Keys: 16,
	})
	pat, err := w.Pattern(acep.SequencePatterns, 3, 2*acep.Second)
	if err != nil {
		t.Fatal(err)
	}
	var matches uint64
	eng, err := acep.NewShardedEngine(pat, acep.Config{
		CheckEvery: 500,
		Shedding: acep.SheddingConfig{
			Policy: acep.NewShedPatternAware(0.5),
			Budget: acep.ShedBudget{EventsPerSec: 40},
		},
	}, acep.ShardedConfig{
		Shards:   4,
		Batch:    128,
		QueueCap: 1024,
		Overflow: acep.ShardDropNewest,
		KeyAttr:  "key",
		Schema:   w.Schema,
		OnMatch:  func(*acep.Match) { matches++ },
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
		t.Fatal("sharded engine shed nothing under forced overload")
	}
	// Events of a type the pattern does not read reach no shard.
	reads, elided := multi.ReadsOf(multi.Solo(pat, acep.Config{})), uint64(0)
	for i := range w.Events {
		if !reads.Has(w.Events[i].Type) {
			elided++
		}
	}
	if m.Events+m.EventsShed+m.QueueDropped+elided != uint64(len(w.Events)) {
		t.Fatalf("event accounting: %d + %d + %d + %d elided != %d",
			m.Events, m.EventsShed, m.QueueDropped, elided, len(w.Events))
	}
}

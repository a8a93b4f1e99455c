package engine

import (
	"reflect"
	"testing"

	"acep/internal/core"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/oracle"
	"acep/internal/shed"
)

// TestSheddingNoneIdentity is the safety property of the overload-control
// layer: with the None policy configured (monitor running, zero drops)
// every engine model produces exactly the match set of an engine without
// any shedding — which in turn equals the brute-force oracle's.
func TestSheddingNoneIdentity(t *testing.T) {
	for _, keys := range shedKeyCounts {
		testSheddingNoneIdentity(t, keys)
	}
}

// shedKeyCounts runs the shedding contracts on an unkeyed stream and on a
// keyed one, where the evaluators' partial-match stores are indexed and
// LivePMs may count expired partial matches until the next prune.
var shedKeyCounts = []int{0, 3}

func testSheddingNoneIdentity(t *testing.T, keys int) {
	w := gen.Traffic(gen.TrafficConfig{Types: 5, Events: 1500, Seed: 23, Shifts: 1, MeanGap: 4, Keys: keys})
	pat, err := w.Pattern(gen.Sequence, 3, 50*event.Time(1+keys))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Keys(oracle.Matches(pat, w.Events))
	if keys > 0 && len(want) == 0 {
		t.Fatal("oracle found no matches on the keyed stream; the identity would be vacuous")
	}
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		plain, _ := run(t, pat, w.Events, Config{Model: model, CheckEvery: 100})
		shedded, m := run(t, pat, w.Events, Config{
			Model:      model,
			CheckEvery: 100,
			Shedding: shed.Config{
				Policy: shed.None{},
				// A budget the stream exceeds immediately: the monitor
				// reports overload, yet None must not drop anything.
				Budget: shed.Budget{LivePMs: 1},
			},
		})
		if !reflect.DeepEqual(plain, want) {
			t.Fatalf("%v: plain engine deviates from oracle", model)
		}
		if !reflect.DeepEqual(shedded, want) {
			t.Fatalf("%v: None-policy engine deviates from oracle: %d vs %d matches",
				model, len(shedded), len(want))
		}
		if m.EventsShed != 0 {
			t.Fatalf("%v: None policy shed %d events", model, m.EventsShed)
		}
		if m.Events != uint64(len(w.Events)) {
			t.Fatalf("%v: processed %d of %d events", model, m.Events, len(w.Events))
		}
	}
}

// TestSheddingDropsUnderOverload checks the accounting contract: shed
// events are counted, never processed, and the recall estimate reflects
// the measured drop rate.
func TestSheddingDropsUnderOverload(t *testing.T) {
	for _, keys := range shedKeyCounts {
		testSheddingDropsUnderOverload(t, keys)
	}
}

func testSheddingDropsUnderOverload(t *testing.T, keys int) {
	w := gen.Traffic(gen.TrafficConfig{Types: 5, Events: 4000, Seed: 7, Shifts: 1, MeanGap: 4, Keys: keys})
	pat, err := w.Pattern(gen.Sequence, 3, 50*event.Time(1+keys))
	if err != nil {
		t.Fatal(err)
	}
	baseline, _ := run(t, pat, w.Events, Config{CheckEvery: 100})
	for _, model := range []Model{GreedyNFA, ZStreamTree} {
		got, m := run(t, pat, w.Events, Config{
			Model:      model,
			CheckEvery: 100,
			Shedding: shed.Config{
				Policy: shed.Random{P: 0.4},
				Budget: shed.Budget{LivePMs: 1},
			},
		})
		if m.EventsShed == 0 {
			t.Fatalf("%v: overloaded Random(0.4) shed nothing", model)
		}
		if m.Events+m.EventsShed != uint64(len(w.Events)) {
			t.Fatalf("%v: %d processed + %d shed != %d arrived",
				model, m.Events, m.EventsShed, len(w.Events))
		}
		if len(got) > len(baseline) {
			t.Fatalf("%v: shedding grew the match set: %d > %d", model, len(got), len(baseline))
		}
		if r := m.ShedRate(); r <= 0.2 || r >= 0.6 {
			t.Fatalf("%v: shed rate %.3f implausible for Random(0.4)", model, r)
		}
		if est := m.RecallEstimate(3); est <= 0 || est >= 1 {
			t.Fatalf("%v: recall estimate %.3f out of (0,1)", model, est)
		}
	}
}

// TestSheddingNegationSafety: dropping negation events could create false
// matches; the shedder must keep them even at drop probability 1.
func TestSheddingNegationSafety(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 5, Events: 2000, Seed: 5, Shifts: 1, MeanGap: 4})
	pat, err := w.Pattern(gen.Negation, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	baseline, _ := run(t, pat, w.Events, Config{CheckEvery: 100})
	got, m := run(t, pat, w.Events, Config{
		CheckEvery: 100,
		Shedding: shed.Config{
			Policy: shed.Random{P: 1},
			Budget: shed.Budget{LivePMs: 1},
		},
	})
	if m.EventsShed == 0 {
		t.Fatal("Random(1) shed nothing under overload")
	}
	// Every surviving match must be a true match of the full stream:
	// the shedded match set is a subset of the baseline.
	want := map[string]bool{}
	for _, k := range baseline {
		want[k] = true
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("shedding surfaced a false match %s", k)
		}
	}
}

// TestSheddingMetricsMerge checks the shard-layer aggregation path.
func TestSheddingMetricsMerge(t *testing.T) {
	a := Metrics{Events: 40, EventsArrived: 48, EventsShed: 8, QueueDropped: 2}
	b := Metrics{Events: 35, EventsArrived: 47, EventsShed: 12, QueueDropped: 3}
	a.Merge(b)
	if a.EventsShed != 20 || a.QueueDropped != 5 {
		t.Fatalf("merge: %+v", a)
	}
	// 95 reached the engines + 5 queue-dropped = 100 arrived; 25 lost.
	if r := a.ShedRate(); r != 0.25 {
		t.Fatalf("shed rate = %v, want 0.25", r)
	}
	if est := a.RecallEstimate(2); est != 0.75*0.75 {
		t.Fatalf("recall estimate = %v, want 0.5625", est)
	}
}

// TestSheddingORAccounting: OR patterns count Events once per disjunct
// runner, so ShedRate must be computed from the engine-level arrival
// count (the old Events-based denominator understated the rate ~2x for a
// three-disjunct pattern).
func TestSheddingORAccounting(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 9, Events: 4000, Seed: 9, MeanGap: 3})
	pat, err := w.Pattern(gen.Composite, 3, 50) // OR of three sequences
	if err != nil {
		t.Fatal(err)
	}
	_, m := run(t, pat, w.Events, Config{
		CheckEvery: 200,
		Shedding: shed.Config{
			Policy: shed.Random{P: 0.4},
			Budget: shed.Budget{LivePMs: 1},
		},
	})
	if m.EventsArrived != uint64(len(w.Events)) {
		t.Fatalf("EventsArrived = %d, want %d", m.EventsArrived, len(w.Events))
	}
	if m.Events <= m.EventsArrived {
		t.Fatalf("per-runner Events %d not above arrivals %d for a 3-disjunct pattern", m.Events, m.EventsArrived)
	}
	want := float64(m.EventsShed) / float64(len(w.Events))
	if got := m.ShedRate(); got != want {
		t.Fatalf("ShedRate = %v, want %v", got, want)
	}
	if got := m.ShedRate(); got < 0.3 || got > 0.5 {
		t.Fatalf("ShedRate = %v implausible for Random(0.4) under permanent overload", got)
	}
}

// TestEngineProbe exercises the engine-level introspection surface the
// shedder samples, across a plan migration (draining evaluators keep
// contributing their live PMs).
func TestEngineProbe(t *testing.T) {
	w := gen.Traffic(TrafficSmall())
	pat, err := w.Pattern(gen.Sequence, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(pat, Config{CheckEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	sawLive := false
	for i := range w.Events {
		e.Process(&w.Events[i])
		if e.LivePMs() > 0 {
			sawLive = true
		}
	}
	if !sawLive {
		t.Fatal("LivePMs never positive over a 6k-event stream")
	}
	mark := make([]bool, 6)
	e.HotTypes(mark)
	keys := 0
	e.HotKeys(func(ev *event.Event) uint64 { return ev.Seq }, func(uint64) { keys++ })
	if e.LivePMs() > 0 && keys == 0 {
		t.Fatal("live PMs present but no hot keys reported")
	}
	snaps := e.LastSnapshots()
	if len(snaps) != 1 || snaps[0] == nil {
		t.Fatalf("snapshots %v after 6k events with CheckEvery=100", snaps)
	}
	e.Finish()
}

// TestStaticGathersOnlyForAReader: under core.Static the loop still makes
// every decision call, but takes no statistics snapshot unless a shedder
// will read it; with one, every check leaves a snapshot for it.
func TestStaticGathersOnlyForAReader(t *testing.T) {
	w := gen.Traffic(TrafficSmall())
	pat, err := w.Pattern(gen.Sequence, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	static := func() core.Policy { return core.Static{} }
	for _, shedding := range []shed.Config{{}, {Policy: shed.None{}, Budget: shed.Budget{LivePMs: 1}}} {
		e, err := New(pat, Config{CheckEvery: 100, NewPolicy: static, Shedding: shedding})
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Events {
			e.Process(&w.Events[i])
		}
		e.Finish()
		m, snaps := e.Metrics(), e.LastSnapshots()
		if want := uint64(len(w.Events) / 100); m.DecisionCalls != want {
			t.Fatalf("shedder %v: %d decision calls, want %d", shedding.Policy, m.DecisionCalls, want)
		}
		if read := shedding.Policy != nil; (snaps[0] != nil) != read || (m.StatTime > 0) != read {
			t.Fatalf("shedder %v: snapshot %v after %v of statistics", shedding.Policy, snaps[0], m.StatTime)
		}
	}
}

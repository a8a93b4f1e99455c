package shard

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/oracle"
	"acep/internal/pattern"
)

// keyedWorkload is a small keyed traffic stream with one regime shift, so
// shard engines adapt mid-stream while being checked for exactness.
func keyedWorkload(t *testing.T) *gen.Workload {
	t.Helper()
	return gen.Traffic(gen.TrafficConfig{
		Types: 6, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 4,
	})
}

// runSingle is the single-threaded reference: the plain adaptive engine.
func runSingle(t *testing.T, w *gen.Workload, kind gen.Kind, model engine.Model) []string {
	t.Helper()
	pat, err := w.Pattern(kind, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	var out []*match.Match
	eng, err := engine.New(pat, engine.Config{
		Model:      model,
		CheckEvery: 250,
		OnMatch:    func(m *match.Match) { out = append(out, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	return oracle.Keys(out)
}

// runSharded executes the same workload through a sharded engine and
// returns the match keys in delivery order plus the engine.
func runSharded(t *testing.T, w *gen.Workload, kind gen.Kind, model engine.Model, shards, batch int) ([]string, *Engine) {
	t.Helper()
	pat, err := w.Pattern(kind, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	eng, err := New(pat, engine.Config{Model: model, CheckEvery: 250}, Options{
		Shards: shards, Batch: batch, KeyAttr: "key", Schema: w.Schema,
		OnTagged: func(tg Tagged) { got = append(got, tg.M.Key()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	return got, eng
}

// elided counts the events of a type pat does not read: the router offers
// them to no shard, so no shard engine counts them.
func elided(pat *pattern.Pattern, evs []event.Event) uint64 {
	reads := multi.ReadsOf(multi.Solo(pat, engine.Config{}))
	var n uint64
	for i := range evs {
		if !reads.Has(evs[i].Type) {
			n++
		}
	}
	return n
}

func sorted(keys []string) []string { return slices.Sorted(slices.Values(keys)) }

// TestShardedComposite covers OR patterns: per-disjunct, per-shard
// adaptation with the same exactness requirement.
func TestShardedComposite(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{
		Types: 8, Events: 3000, Seed: 29, Shifts: 1, MeanGap: 4, Keys: 4,
	})
	want := runSingle(t, w, gen.Composite, engine.GreedyNFA)
	got, _ := runSharded(t, w, gen.Composite, engine.GreedyNFA, 4, 64)
	if !reflect.DeepEqual(sorted(got), want) {
		t.Fatalf("composite: %d matches vs %d", len(got), len(want))
	}
}

// TestOrderedDeterministicEmission checks the collector's two ordering
// guarantees: delivery in nondecreasing detection order, and an order
// that is a deterministic function of the input for a fixed shard count.
func TestOrderedDeterministicEmission(t *testing.T) {
	w := keyedWorkload(t)
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]string, []uint64) {
		var keys []string
		var lastSeq []uint64
		eng, err := New(pat, engine.Config{CheckEvery: 250}, Options{
			Shards: 4, Batch: 128, KeyAttr: "key", Schema: w.Schema,
			OnMatch: func(m *match.Match) {
				keys = append(keys, m.Key())
				var max uint64
				for _, ev := range m.Events {
					if ev != nil && ev.Seq > max {
						max = ev.Seq
					}
				}
				lastSeq = append(lastSeq, max)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
		return keys, lastSeq
	}
	keys1, seqs := run()
	if len(keys1) == 0 {
		t.Fatal("no matches")
	}
	// A sequence pattern's match is detected when its last core event
	// arrives, so delivery order must be nondecreasing in that event's
	// global sequence number.
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("out-of-order delivery at %d: seq %d after %d", i, seqs[i], seqs[i-1])
		}
	}
	// Reruns must reproduce the identical delivered order.
	for r := 0; r < 3; r++ {
		keys2, _ := run()
		if !reflect.DeepEqual(keys1, keys2) {
			t.Fatalf("rerun %d delivered a different order", r)
		}
	}
}

// TestShardedMetrics: the merged metrics must cover every event exactly
// once — offered to a shard, or elided by the router — and agree with the
// delivered match count; the per-shard breakdown must sum to the merged
// view.
func TestShardedMetrics(t *testing.T) {
	w := keyedWorkload(t)
	got, eng := runSharded(t, w, gen.Sequence, engine.GreedyNFA, 4, 128)
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	m, skip := eng.Metrics(), elided(pat, w.Events)
	if skip == 0 || m.Events+skip != uint64(len(w.Events)) {
		t.Fatalf("Events = %d + %d elided; want %d, some elided", m.Events, skip, len(w.Events))
	}
	if m.EventsArrived != uint64(len(w.Events)) {
		t.Fatalf("EventsArrived = %d; want every event handed in, %d", m.EventsArrived, len(w.Events))
	}
	if m.Matches != uint64(len(got)) {
		t.Fatalf("Matches = %d; delivered %d", m.Matches, len(got))
	}
	per := eng.ShardMetrics()
	if len(per) != 4 {
		t.Fatalf("%d shard metrics", len(per))
	}
	var sum uint64
	active := 0
	for _, pm := range per {
		sum += pm.Events
		if pm.Events > 0 {
			active++
		}
	}
	if sum != m.Events {
		t.Fatalf("per-shard events sum %d != merged %d", sum, m.Events)
	}
	if active < 2 {
		t.Fatalf("only %d shards saw events; partitioner not spreading", active)
	}
	if eng.Shards() != 4 || len(eng.Plans()) != 4 {
		t.Fatal("Shards/Plans accessors wrong")
	}
}

// TestPolicyPerShard: every shard's engine adapts with a policy of its
// own, so NewPolicy is called once per shard, and AddPattern calls it once
// more for the evaluator it builds to prevalidate the pattern.
func TestPolicyPerShard(t *testing.T) {
	w := keyedWorkload(t)
	seq, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	conj, err := w.Pattern(gen.Conjunction, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32 // workers build the added pattern's engines
	cfg := engine.Config{NewPolicy: func() core.Policy {
		calls.Add(1)
		return &core.Invariant{}
	}}
	eng, err := New(seq, cfg, Options{Shards: 4, KeyAttr: "key", Schema: w.Schema})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("NewPolicy called %d times for 4 shards, want 4", n)
	}
	if err := eng.AddPattern(multi.Spec{ID: 1, Pattern: conj, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	eng.Finish()
	if n := calls.Load(); n != 9 {
		t.Fatalf("NewPolicy called %d times after adding a pattern on 4 shards, want 4+1+4", n)
	}
}

// TestNewValidation covers the constructor's misuse errors.
func TestNewValidation(t *testing.T) {
	w := keyedWorkload(t)
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	ok := Options{KeyAttr: "key", Schema: w.Schema}
	cases := []struct {
		name string
		cfg  engine.Config
		opts Options
	}{
		{"no key", engine.Config{}, Options{}},
		{"keyattr without schema", engine.Config{}, Options{KeyAttr: "key"}},
		{"unknown attr", engine.Config{}, Options{KeyAttr: "nope", Schema: w.Schema}},
		{"engine OnMatch", engine.Config{OnMatch: func(*match.Match) {}}, ok},
	}
	for _, c := range cases {
		if _, err := New(pat, c.cfg, c.opts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// A non-partitionable pattern must be rejected: the
	// unkeyed workload's pattern has no equality-on-key predicates even
	// though the "speed" attribute exists at every position.
	unkeyed := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 10, Seed: 1})
	up, err := unkeyed.Pattern(gen.Sequence, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(up, engine.Config{}, Options{KeyAttr: "speed", Schema: unkeyed.Schema}); err == nil {
		t.Error("non-partitionable pattern accepted")
	}
	// Defaults fill in: shards/batch/queue unset is valid.
	eng, err := New(pat, engine.Config{}, ok)
	if err != nil {
		t.Fatal(err)
	}
	eng.Finish()
	if eng.Shards() < 1 {
		t.Fatal("default shard count < 1")
	}
	eng.Finish() // idempotent

	// Ingest misuse is a caller bug: it panics, with a message that names
	// the call.
	live, err := New(pat, engine.Config{}, Options{Shards: 2, KeyAttr: "key", Schema: w.Schema})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Finish()
	run := stable(live, []*event.Event{&w.Events[0]})
	for _, c := range []struct {
		name string
		call func()
	}{
		{"shard below 0", func() { live.ProcessStable(-1, run) }},
		{"shard == Shards", func() { live.ProcessStable(2, run) }},
		{"ProcessStable after Finish", func() { eng.ProcessStable(0, run) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "ProcessStable") {
					t.Errorf("%s: recovered %q, want a panic naming ProcessStable", c.name, msg)
				}
			}()
			c.call()
		}()
	}
}

// TestPartitionable exercises the validator directly.
func TestPartitionable(t *testing.T) {
	s := event.NewSchema()
	a := s.MustAddType("A", "id", "v")
	bt := s.MustAddType("B", "id", "v")
	c := s.MustAddType("C", "id", "v")

	// Connected chain of key equalities: partitionable.
	b1 := pattern.NewBuilder(s, pattern.Seq, 60)
	p0, p1, p2 := b1.Event(a), b1.Event(bt), b1.Event(c)
	b1.WhereEq(p0, "id", p1, "id")
	b1.WhereEq(p1, "id", p2, "id")
	if err := Partitionable(b1.MustBuild(), s, "id"); err != nil {
		t.Errorf("chain: %v", err)
	}

	// Missing one link: position 2 disconnected.
	b2 := pattern.NewBuilder(s, pattern.Seq, 60)
	q0, q1, _ := b2.Event(a), b2.Event(bt), b2.Event(c)
	b2.WhereEq(q0, "id", q1, "id")
	if err := Partitionable(b2.MustBuild(), s, "id"); err == nil {
		t.Error("disconnected pattern accepted")
	}

	// Equality on a non-key attribute does not connect the key graph.
	b3 := pattern.NewBuilder(s, pattern.Seq, 60)
	r0, r1 := b3.Event(a), b3.Event(bt)
	b3.WhereEq(r0, "v", r1, "v")
	if err := Partitionable(b3.MustBuild(), s, "id"); err == nil {
		t.Error("wrong-attribute equality accepted")
	}

	// A position's type lacking the key attribute is an error.
	d := s.MustAddType("D", "other")
	b4 := pattern.NewBuilder(s, pattern.Seq, 60)
	b4.Event(a)
	b4.Event(d)
	if err := Partitionable(b4.MustBuild(), s, "id"); err == nil {
		t.Error("missing key attribute accepted")
	}

	// Single-position patterns are trivially partitionable.
	b5 := pattern.NewBuilder(s, pattern.Seq, 60)
	b5.Event(a)
	if err := Partitionable(b5.MustBuild(), s, "id"); err != nil {
		t.Errorf("single position: %v", err)
	}

	// OR patterns: every disjunct must be partitionable.
	sub1 := pattern.NewBuilder(s, pattern.Seq, 60)
	s0, s1 := sub1.Event(a), sub1.Event(bt)
	sub1.WhereEq(s0, "id", s1, "id")
	sub2 := pattern.NewBuilder(s, pattern.Seq, 60)
	sub2.Event(a)
	sub2.Event(bt) // no key equality
	or, err := pattern.NewOr(sub1.MustBuild(), sub2.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if err := Partitionable(or, s, "id"); err == nil {
		t.Error("OR with non-partitionable disjunct accepted")
	}
}

// TestLatencyEstimators: the shard workers sample per-event queue wait
// and detection time into the merged Metrics, behind the default queue
// bound of four batches.
func TestLatencyEstimators(t *testing.T) {
	w := gen.Stocks(gen.StocksConfig{Types: 4, Events: 6000, Seed: 7, MeanGap: 2, Keys: 16})
	pat, err := w.Pattern(gen.Sequence, 4, 2*event.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(pat, engine.Config{}, Options{
		Shards: 2, Batch: 64, KeyAttr: "key", Schema: w.Schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.QueueCap() != defaultQueueBatches*64 {
		t.Errorf("default cap %d, want %d batches of 64", eng.QueueCap(), defaultQueueBatches)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	m := eng.Metrics()
	if m.QueueWait.Count() != uint64(len(w.Events)) {
		t.Errorf("queue-wait samples %d, want one per event (%d)", m.QueueWait.Count(), len(w.Events))
	}
	if m.DetectTime.Count() == 0 {
		t.Error("no detection-time samples recorded")
	}
	if p50, p99 := m.QueueWait.Quantile(0.5), m.QueueWait.Quantile(0.99); p50 < 0 || p99 < p50 {
		t.Errorf("queue-wait percentiles implausible: p50=%v p99=%v", p50, p99)
	}
	if m.DetectTime.Quantile(0.99) <= 0 {
		t.Error("detection-time p99 should be positive")
	}
}

// TestByShardRunsMatchPerEvent is the claim ProcessStable's contract rests
// on, as a differential: the same stream fed once per event through
// Process (which places each event and seals every Batch) and once cut by
// cut as per-shard runs handed over in shard order — alternately
// ascending and descending, never Seq order — and sealed by Flush must
// deliver the identical ordered Tagged stream. The by-shard cuts are
// two and a half batches long, so a ProcessStable that sealed at Batch
// would publish a watermark ahead of the runs still to come.
func TestByShardRunsMatchPerEvent(t *testing.T) {
	const shards, batch, cutLen = 4, 64, 160
	for _, wl := range []struct {
		name string
		w    *gen.Workload
	}{
		{"traffic", keyedWorkload(t)},
		{"stocks", gen.Stocks(gen.StocksConfig{
			Types: 6, Events: 5000, Seed: 23, MeanGap: 3, DriftEvery: 300, Keys: 8,
		})},
	} {
		name, w := wl.name, wl.w
		key, err := ByAttrName(w.Schema, "key")
		if err != nil {
			t.Fatal(err)
		}
		addAt := len(w.Events)/3 + 7 // mid-cut in both feeds
		for _, kind := range []gen.Kind{gen.Sequence, gen.Negation, gen.Kleene} {
			pat, err := w.Pattern(kind, 3, 300)
			if err != nil {
				t.Fatal(err)
			}
			set := multiSpecs(t, w, kind, 4, 1)
			for _, tc := range []struct {
				mode    string
				initial []multi.Spec
				added   *multi.Spec
			}{
				{"solo", multi.Solo(pat, engine.Config{CheckEvery: 250}), nil},
				{"set", set[:3], &set[3]},
			} {
				run := func(feed func(e *Engine, lo, hi int)) []string {
					var got []string
					eng, err := New(nil, engine.Config{}, Options{
						Shards: shards, Batch: batch, KeyAttr: "key", Schema: w.Schema,
						Patterns: tc.initial,
						OnTagged: func(tg Tagged) {
							got = append(got, fmt.Sprintf("%d/%d/%d/%s", tg.Seq, tg.Src, tg.Pattern, tg.M.Key()))
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					feed(eng, 0, addAt)
					if tc.added != nil {
						if err := eng.AddPattern(*tc.added); err != nil {
							t.Fatal(err)
						}
					}
					feed(eng, addAt, len(w.Events))
					eng.Finish()
					return got
				}
				want := run(func(e *Engine, lo, hi int) {
					for i := lo; i < hi; i++ {
						e.Process(&w.Events[i])
					}
				})
				if len(want) == 0 {
					t.Fatalf("%s/%v/%s: per-event feed produced no matches; test is vacuous", name, kind, tc.mode)
				}
				ncut := 0
				got := run(func(e *Engine, lo, hi int) {
					for ; lo < hi; lo += cutLen {
						end := min(lo+cutLen, hi)
						runs := byShard(key, w.Events[lo:end], shards)
						ncut++
						for g := range runs {
							if ncut%2 == 0 {
								g = shards - 1 - g
							}
							e.ProcessStable(g, stable(e, runs[g]))
						}
						e.Flush(w.Events[end-1].Seq)
					}
				})
				if !reflect.DeepEqual(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("%s/%v/%s: by-shard feed diverges from per-event (%d vs %d matches, first divergence at %d)",
						name, kind, tc.mode, len(got), len(want), i)
				}
			}
		}
	}
}

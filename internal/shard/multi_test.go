package shard

import (
	"reflect"
	"testing"

	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/shed"
)

// multiWorkload is a keyed traffic stream for the multi-pattern shard
// tests: keyed so the overlap sets are partitionable by "key".
func multiWorkload(t *testing.T, events int, seed int64) *gen.Workload {
	t.Helper()
	return gen.Traffic(gen.TrafficConfig{
		Types: 7, Events: events, Seed: seed, Shifts: 1, MeanGap: 2, Keys: 2,
	})
}

// multiSpecs builds an overlapping-prefix spec set over the workload.
func multiSpecs(t *testing.T, w *gen.Workload, kind gen.Kind, n, tenants int) []multi.Spec {
	t.Helper()
	entries, err := w.OverlapPatterns(kind, n, 3, 400, tenants)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]multi.Spec, len(entries))
	for i, e := range entries {
		specs[i] = multi.Spec{
			ID: e.ID, Tenant: e.Tenant, Pattern: e.Pattern,
			Config: engine.Config{CheckEvery: 250},
		}
	}
	return specs
}

// runMultiSharded drives the workload through a multi-pattern sharded
// engine and returns the delivered (pattern, key) stream in order plus
// the per-pattern key multisets.
func runMultiSharded(t *testing.T, w *gen.Workload, specs []multi.Spec, shards int, tenants map[uint32]shed.TenantBudget, mutate func(*Engine, int)) ([]string, map[uint32][]string, *Engine) {
	t.Helper()
	var stream []string
	per := make(map[uint32][]string)
	eng, err := New(nil, engine.Config{}, Options{
		Shards: shards, Batch: 128, KeyAttr: "key", Schema: w.Schema,
		Patterns: specs, Tenants: tenants,
		OnTagged: func(tg Tagged) {
			k := tg.M.Key()
			stream = append(stream, string(rune('A'+tg.Pattern))+":"+k)
			per[tg.Pattern] = append(per[tg.Pattern], k)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		if mutate != nil {
			mutate(eng, i)
		}
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	return stream, per, eng
}

// runIndependent is the reference: one plain engine per pattern over the
// unsharded stream.
func runIndependent(t *testing.T, w *gen.Workload, specs []multi.Spec) map[uint32][]string {
	t.Helper()
	out := make(map[uint32][]string)
	for _, sp := range specs {
		cfg := sp.Config
		id := sp.ID
		cfg.OnMatch = func(m *match.Match) { out[id] = append(out[id], m.Key()) }
		eng, err := engine.New(sp.Pattern, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
	}
	return out
}

// TestMultiShardedDeterministic: the delivered (pattern, key) stream is
// a deterministic function of the input for a fixed shard count.
func TestMultiShardedDeterministic(t *testing.T) {
	w := multiWorkload(t, 4000, 31)
	specs := multiSpecs(t, w, gen.Sequence, 6, 1)
	s1, _, _ := runMultiSharded(t, w, specs, 4, nil, nil)
	if len(s1) == 0 {
		t.Fatal("no matches")
	}
	for r := 0; r < 2; r++ {
		s2, _, _ := runMultiSharded(t, w, specs, 4, nil, nil)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("rerun %d delivered a different stream", r)
		}
	}
}

// TestMultiShardAddRemove: registering and retiring patterns mid-stream
// leaves every untouched pattern's output byte-identical to a run
// without the mutation, the removed pattern emits a prefix-subset, and
// the added pattern emits a subset of its full-stream solo set.
func TestMultiShardAddRemove(t *testing.T) {
	w := multiWorkload(t, 8000, 37)
	all := multiSpecs(t, w, gen.Sequence, 7, 1)
	initial, extra := all[:6], all[6]
	removed := initial[1].ID

	_, base, _ := runMultiSharded(t, w, initial, 4, nil, nil)
	solo := runIndependent(t, w, []multi.Spec{extra})

	// Mutate early so the baseline certainly has post-mutation matches
	// of the removed pattern.
	at := len(w.Events) / 8
	_, got, _ := runMultiSharded(t, w, initial, 4, nil, func(e *Engine, i int) {
		if i != at {
			return
		}
		if err := e.AddPattern(extra); err != nil {
			t.Fatal(err)
		}
		if err := e.RemovePattern(removed); err != nil {
			t.Fatal(err)
		}
	})

	for _, sp := range initial {
		if sp.ID == removed {
			continue
		}
		if !reflect.DeepEqual(sorted(got[sp.ID]), sorted(base[sp.ID])) {
			t.Fatalf("pattern %d disturbed by add/remove: %d vs %d matches",
				sp.ID, len(got[sp.ID]), len(base[sp.ID]))
		}
	}
	baseSet := make(map[string]int)
	for _, k := range base[removed] {
		baseSet[k]++
	}
	for _, k := range got[removed] {
		if baseSet[k] == 0 {
			t.Fatalf("removed pattern emitted a match outside its baseline: %s", k)
		}
		baseSet[k]--
	}
	if len(got[removed]) >= len(base[removed]) && len(base[removed]) > 0 {
		t.Fatalf("removal had no effect: %d of %d matches still emitted",
			len(got[removed]), len(base[removed]))
	}
	soloSet := make(map[string]int)
	for _, k := range solo[extra.ID] {
		soloSet[k]++
	}
	for _, k := range got[extra.ID] {
		if soloSet[k] == 0 {
			t.Fatalf("added pattern emitted a match outside its solo set: %s", k)
		}
		soloSet[k]--
	}
}

// TestMultiShardTenantBudgets: a budgeted tenant sheds while the
// unbudgeted tenant's patterns stay byte-identical to an unbudgeted
// run; the per-tenant accounting surfaces through TenantStats.
func TestMultiShardTenantBudgets(t *testing.T) {
	w := multiWorkload(t, 5000, 41)
	specs := multiSpecs(t, w, gen.Sequence, 6, 2)
	_, free, _ := runMultiSharded(t, w, specs, 4, nil, nil)
	budgets := map[uint32]shed.TenantBudget{0: {Rate: 5, Burst: 5}}
	_, got, eng := runMultiSharded(t, w, specs, 4, budgets, nil)

	stats := eng.TenantStats()
	if len(stats) != 2 {
		t.Fatalf("%d tenant stats, want 2", len(stats))
	}
	var shed0, shed1 uint64
	for _, ts := range stats {
		if ts.Tenant == 0 {
			shed0 = ts.Shed
		} else {
			shed1 = ts.Shed
		}
	}
	if shed0 == 0 {
		t.Fatal("budgeted tenant shed nothing")
	}
	if shed1 != 0 {
		t.Fatalf("unbudgeted tenant shed %d events", shed1)
	}
	for _, sp := range specs {
		if sp.Tenant != 1 {
			continue
		}
		if !reflect.DeepEqual(sorted(got[sp.ID]), sorted(free[sp.ID])) {
			t.Fatalf("unbudgeted tenant's pattern %d disturbed by the other tenant's budget", sp.ID)
		}
	}
}

// TestMultiShardValidation covers the multi-mode constructor and
// mutation misuse errors.
func TestMultiShardValidation(t *testing.T) {
	w := multiWorkload(t, 10, 1)
	specs := multiSpecs(t, w, gen.Sequence, 4, 1)
	pat := specs[0].Pattern

	if _, err := New(pat, engine.Config{}, Options{Patterns: specs, KeyAttr: "key", Schema: w.Schema}); err == nil {
		t.Error("non-nil pattern accepted alongside Options.Patterns")
	}
	if _, err := New(nil, engine.Config{}, Options{Patterns: specs, KeyAttr: "key"}); err == nil {
		t.Error("multi mode without schema accepted")
	}
	if _, err := New(nil, engine.Config{}, Options{KeyAttr: "key", Schema: w.Schema}); err == nil {
		t.Error("engine without any pattern accepted")
	}

	eng, err := New(nil, engine.Config{}, Options{
		Shards: 2, KeyAttr: "key", Schema: w.Schema, Patterns: specs[:3],
		OnTagged: func(Tagged) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddPattern(specs[0]); err == nil {
		t.Error("duplicate AddPattern accepted")
	}
	// A pattern with no key equality could match across shards.
	b := pattern.NewBuilder(w.Schema, pattern.Seq, 300)
	b.Event(0)
	b.Event(1)
	if err := eng.AddPattern(multi.Spec{ID: 900, Pattern: b.MustBuild()}); err == nil {
		t.Error("AddPattern of a pattern not partitionable by the key accepted")
	}
	if err := eng.RemovePattern(999); err == nil {
		t.Error("unknown RemovePattern accepted")
	}
	if err := eng.AddPattern(specs[3]); err != nil {
		t.Errorf("valid AddPattern rejected: %v", err)
	}
	if err := eng.RemovePattern(specs[3].ID); err != nil {
		t.Errorf("valid RemovePattern rejected: %v", err)
	}
	eng.Finish()
}

// TestSoloEngineAddRemove: an engine opened through New's pattern
// argument is the set of one, so the set can grow and shrink at runtime
// like any other — each pattern's stream staying exactly what an
// independent engine (fed the events the pattern was registered for)
// produces.
func TestSoloEngineAddRemove(t *testing.T) {
	w := multiWorkload(t, 8000, 37)
	specs := multiSpecs(t, w, gen.Sequence, 3, 1)
	solo, added, brief := specs[0], specs[1], specs[2]
	solo.ID = multi.SoloID
	addAt, dropAt := len(w.Events)/4, len(w.Events)/2

	got := make(map[uint32][]string)
	eng, err := New(solo.Pattern, solo.Config, Options{
		Shards: 4, Batch: 128, KeyAttr: "key", Schema: w.Schema,
		OnTagged: func(tg Tagged) { got[tg.Pattern] = append(got[tg.Pattern], tg.M.Key()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddPattern(solo); err == nil {
		t.Error("a second pattern under the solo id accepted")
	}
	for i := range w.Events {
		switch i {
		case addAt:
			if err := eng.AddPattern(added); err != nil {
				t.Fatalf("AddPattern on an engine opened with one pattern: %v", err)
			}
			if err := eng.AddPattern(brief); err != nil {
				t.Fatal(err)
			}
		case dropAt:
			if err := eng.RemovePattern(brief.ID); err != nil {
				t.Fatalf("RemovePattern on an engine opened with one pattern: %v", err)
			}
		}
		eng.Process(&w.Events[i])
	}
	eng.Finish()

	// The independent references see exactly the events each pattern was
	// registered for; AddPattern seals the open cut, so that is the
	// stream from the add index on.
	from := func(lo, hi int) *gen.Workload {
		c := *w
		c.Events = w.Events[lo:hi]
		return &c
	}
	want := runIndependent(t, w, []multi.Spec{solo})
	if len(want[solo.ID]) == 0 {
		t.Fatal("reference produced no matches; test is vacuous")
	}
	for id, ref := range map[uint32][]string{
		solo.ID:  want[solo.ID],
		added.ID: runIndependent(t, from(addAt, len(w.Events)), []multi.Spec{added})[added.ID],
	} {
		if !reflect.DeepEqual(sorted(got[id]), sorted(ref)) {
			t.Fatalf("pattern %d: %d matches, independent engine has %d", id, len(got[id]), len(ref))
		}
	}
	// The removed pattern stops at a cut boundary: a prefix-subset of
	// its independent stream over the registered span.
	briefRef := make(map[string]int)
	for _, k := range runIndependent(t, from(addAt, len(w.Events)), []multi.Spec{brief})[brief.ID] {
		briefRef[k]++
	}
	for _, k := range got[brief.ID] {
		if briefRef[k] == 0 {
			t.Fatalf("removed pattern emitted a match outside its independent stream: %s", k)
		}
		briefRef[k]--
	}
}

// TestSetSheddingSeesQueue: the shard layer's queue-wait probe reaches
// the shedder of every engine the evaluator hosts, not only
// a pattern passed through New's pattern argument. Every queue wait
// exceeds a 1ns latency budget, so a shedder that can see the queue is
// overloaded from its first refresh; one that cannot never activates.
func TestSetSheddingSeesQueue(t *testing.T) {
	w := multiWorkload(t, 4000, 43)
	var specs []multi.Spec
	for i, kind := range []gen.Kind{gen.Sequence, gen.Conjunction} {
		pat, err := w.Pattern(kind, 3, 400)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, multi.Spec{ID: uint32(i + 1), Pattern: pat, Config: engine.Config{
			CheckEvery: 250,
			Shedding: shed.Config{
				Policy: shed.PatternAware{Target: 0.5},
				Budget: shed.Budget{QueueWait: 1},
			},
		}})
	}
	eng, err := New(nil, engine.Config{}, Options{
		Shards: 2, Batch: 64, QueueCap: 64, KeyAttr: "key", Schema: w.Schema,
		Patterns: specs, OnTagged: func(Tagged) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	for _, pm := range eng.PatternMetrics() {
		if pm.M.EventsShed == 0 {
			t.Errorf("pattern %d: shedder never saw the queue-wait p99 (shed nothing of %d events)", pm.ID, pm.M.EventsArrived)
		}
	}
}

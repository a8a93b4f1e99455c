package multi

import (
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/pattern"
)

// TestAnalyzeSuffixClasses: on the 32-pattern overlap set every pattern
// repeats the suffix of the patterns of its suffix type plus a threshold
// of its own, so the one prefix group splits into one suffix class per
// suffix type.
func TestAnalyzeSuffixClasses(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 10, Seed: 1, Keys: 2})
	entries, err := w.OverlapPatterns(gen.Sequence, 32, 3, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Analyze(specsOf(entries), w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Groups) != 1 || len(set.Groups[0].Classes) != 4 {
		t.Fatalf("%d groups, classes %v; want one group with 4 suffix classes", len(set.Groups), set.Groups[0].Classes)
	}
	for _, c := range set.Groups[0].Classes {
		if len(c) != 8 {
			t.Fatalf("class %v; want 8 members", c)
		}
		typ := set.Specs[c[0]].Pattern.Positions[3].Type
		for _, m := range c {
			if got := set.Specs[m].Pattern.Positions[3].Type; got != typ {
				t.Fatalf("class %v mixes suffix types %d and %d", c, typ, got)
			}
		}
	}
	if r := set.Report(); r.Classes != 4 || r.ClassedPatterns != 32 {
		t.Fatalf("report %+v; want 4 classes serving 32 patterns", r)
	}
}

// thresholdClass is a stream and five SEQ(T0, T1, T2, T3) patterns over
// it, keyed and with speed rising along the chain. The first four differ
// only in thresholds on their suffix positions 2 and 3 — the first has
// one, the second none — so they form one suffix class behind a two-event
// prefix; the fifth takes T4 at position 2 and shares only the prefix.
func thresholdClass(t *testing.T) (*gen.Workload, []Spec) {
	t.Helper()
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 8000, Seed: 31, Keys: 2, Shifts: 1})
	type cond struct {
		pos int
		op  pattern.CmpOp
		c   float64
	}
	build := func(third int, conds ...cond) *pattern.Pattern {
		b := pattern.NewBuilder(w.Schema, pattern.Seq, 200)
		for _, typ := range []int{0, 1, third, 3} {
			b.Event(typ)
		}
		for p := 1; p < 4; p++ {
			b.Where(p, "speed", pattern.GT, p-1, "speed", 0)
			b.WhereEq(p-1, "key", p, "key")
		}
		for _, c := range conds {
			b.WhereConst(c.pos, "count", c.op, c.c)
		}
		return b.MustBuild()
	}
	return w, []Spec{
		{ID: 1, Pattern: build(2, cond{2, pattern.GT, 50})},
		{ID: 2, Pattern: build(2)},
		{ID: 3, Pattern: build(2, cond{2, pattern.LT, 60}, cond{3, pattern.GT, 40})},
		{ID: 4, Pattern: build(2, cond{2, pattern.GT, 20}, cond{3, pattern.LT, 45})},
		{ID: 5, Pattern: build(4)},
	}
}

// analyzeThresholdClass analyzes the thresholdClass set and checks its
// shape.
func analyzeThresholdClass(t *testing.T, w *gen.Workload, specs []Spec) *Set {
	t.Helper()
	set, err := Analyze(specs, w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Groups) != 1 || set.Groups[0].Len != 2 || len(set.Groups[0].Classes) != 1 || len(set.Groups[0].Classes[0]) != 4 {
		t.Fatalf("groups %+v; want one two-event prefix with one class of the first four patterns", set.Groups)
	}
	return set
}

// TestSuffixClassThresholds: members whose suffix thresholds really differ
// each get exactly their own match multiset, and each reports its class
// automaton's work counters with its own match count.
func TestSuffixClassThresholds(t *testing.T) {
	w, specs := thresholdClass(t)
	want := runIndependent(t, specs, w.Events)
	for i := 1; i < 4; i++ {
		if len(want[specs[i].ID]) == len(want[specs[0].ID]) {
			t.Fatalf("patterns %d and %d match %d times each: the thresholds filter nothing apart",
				specs[0].ID, specs[i].ID, len(want[specs[0].ID]))
		}
	}
	for _, sp := range specs {
		if len(want[sp.ID]) == 0 {
			t.Fatalf("pattern %d never matches: the test is vacuous", sp.ID)
		}
	}
	set := analyzeThresholdClass(t, w, specs)
	got := matchSets{}
	v, err := NewEvaluator(set, Options{OnMatch: func(id uint32, m *match.Match) { got.add(id, m) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		v.Process(&w.Events[i])
	}
	v.Finish()
	want.equal(t, got, "threshold class")

	ms := v.Metrics()
	for _, pm := range ms[:4] {
		if pm.M.Matches != uint64(len(want[pm.ID])) {
			t.Errorf("pattern %d reports %d matches, delivered %d", pm.ID, pm.M.Matches, len(want[pm.ID]))
		}
		if a, b := pm.M, ms[0].M; a.PMCreated != b.PMCreated || a.PredEvals != b.PredEvals || a.PeakPMs != b.PeakPMs {
			t.Errorf("pattern %d reports work %d/%d/%d, its class automaton's is %d/%d/%d",
				pm.ID, a.PMCreated, a.PredEvals, a.PeakPMs, b.PMCreated, b.PredEvals, b.PeakPMs)
		}
	}
	if len(v.Plans()) != len(specs) {
		t.Errorf("%d plans for %d patterns", len(v.Plans()), len(specs))
	}
}

// TestSuffixClassRemove retires a class's first member — the one holding
// the class automaton — and then a later one, mid-stream: every member
// that stays keeps exactly its match multiset, and a pattern added later
// runs on its own engine.
func TestSuffixClassRemove(t *testing.T) {
	w, specs := thresholdClass(t)
	want := runIndependent(t, specs, w.Events)
	set := analyzeThresholdClass(t, w, specs)
	got := matchSets{}
	v, err := NewEvaluator(set, Options{OnMatch: func(id uint32, m *match.Match) { got.add(id, m) }})
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Events)
	for i := range w.Events {
		switch i {
		case n / 3:
			if err := v.Remove(specs[0].ID); err != nil {
				t.Fatal(err)
			}
		case 2 * n / 3:
			if err := v.Remove(specs[2].ID); err != nil {
				t.Fatal(err)
			}
			if err := v.Add(Spec{ID: 9, Pattern: specs[1].Pattern}); err != nil {
				t.Fatal(err)
			}
			if s := v.byID[9]; s.cls != nil || s.eng == nil {
				t.Fatal("an added pattern joined a suffix class")
			}
		}
		v.Process(&w.Events[i])
	}
	v.Finish()
	// A pattern that left or joined mid-stream delivered part of its
	// full-stream multiset; the added copy's is pattern 2's.
	for id, of := range map[uint32]uint32{specs[0].ID: specs[0].ID, specs[2].ID: specs[2].ID, 9: specs[1].ID} {
		full := map[string]bool{}
		for _, k := range want[of] {
			full[k] = true
		}
		for _, k := range got[id] {
			if !full[k] {
				t.Fatalf("pattern %d delivered %q, which its full-stream run does not", id, k)
			}
		}
		delete(got, id)
	}
	delete(want, specs[0].ID)
	delete(want, specs[2].ID)
	want.equal(t, got, "after removals")
}

// TestSuffixClassOwnsEvents: under StableInput without OwnedEmit, each
// match a class member is delivered owns its Events slice — the class's
// replay buffer is reused at every step.
func TestSuffixClassOwnsEvents(t *testing.T) {
	w, specs := thresholdClass(t)
	want := runIndependent(t, specs, w.Events)
	set := analyzeThresholdClass(t, w, specs)
	type kept struct {
		id  uint32
		m   *match.Match
		key string
	}
	var all []kept
	v, err := NewEvaluator(set, Options{StableInput: true, OnMatch: func(id uint32, m *match.Match) {
		all = append(all, kept{id, m, matchKey(m)})
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		v.Process(&w.Events[i])
	}
	v.Finish()
	got := matchSets{}
	for _, k := range all {
		if key := matchKey(k.m); key != k.key {
			t.Fatalf("pattern %d: a match delivered as %q reads %q at the end of the stream", k.id, k.key, key)
		}
		got[k.id] = append(got[k.id], k.key)
	}
	want.equal(t, got, "owned events")
}

// TestSuffixClassProcessAllocs: a warmed evaluator whose suffix class
// completes matches on a repeating stream allocates nothing per 256
// events under OwnedEmit — the replay buffer and the delivered match are
// reused.
func TestSuffixClassProcessAllocs(t *testing.T) {
	const window = 40
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C"} {
		s.MustAddType(name, "x")
	}
	// SEQ(A, B, C) over equal x, a class of three by their C threshold.
	build := func(conds ...float64) *pattern.Pattern {
		b := pattern.NewBuilder(s, pattern.Seq, window)
		b.Event(0)
		b.Event(1)
		b.Event(2)
		b.WhereEq(0, "x", 1, "x")
		b.WhereEq(1, "x", 2, "x")
		for _, c := range conds {
			b.WhereConst(2, "x", pattern.GT, c)
		}
		return b.MustBuild()
	}
	specs := []Spec{
		{ID: 1, Pattern: build(2), Config: engine.Config{CheckEvery: 1 << 30}},
		{ID: 2, Pattern: build(), Config: engine.Config{CheckEvery: 1 << 30}},
		{ID: 3, Pattern: build(5), Config: engine.Config{CheckEvery: 1 << 30}},
	}
	set, err := Analyze(specs, s)
	if err != nil {
		t.Fatal(err)
	}
	if r := set.Report(); r.Classes != 1 || r.ClassedPatterns != 3 {
		t.Fatalf("report %+v; want one class of three", r)
	}
	matches := 0
	v, err := NewEvaluator(set, Options{OwnedEmit: true, OnMatch: func(uint32, *match.Match) { matches++ }})
	if err != nil {
		t.Fatal(err)
	}
	ev := event.Event{Attrs: make([]float64, 1)}
	var seq uint64
	run := func(events int) {
		for i := 0; i < events; i++ {
			seq++
			ev.Type = int(seq) % 3
			ev.TS = event.Time(seq)
			ev.Seq = seq
			ev.Attrs[0] = float64(seq / 3 % 8)
			v.Process(&ev)
		}
	}
	run(20 * window)
	before := matches
	if avg := testing.AllocsPerRun(20, func() { run(256) }); avg != 0 {
		t.Fatalf("steady-state Process allocated %.2f times per 256 events; want 0", avg)
	}
	if matches == before {
		t.Fatal("the measured events completed no match")
	}
}

package shed

import (
	"math"
	"testing"
	"time"

	"acep/internal/event"
	"acep/internal/pattern"
	"acep/internal/stats"
)

// fakeProbe is a hand-controlled engine introspection surface.
type fakeProbe struct {
	live int
	hot  []int    // hot event types
	keys []uint64 // hot partition-key values
	snap *stats.Snapshot
}

func (f *fakeProbe) LivePMs() int { return f.live }

func (f *fakeProbe) HotTypes(mark []bool) {
	for _, t := range f.hot {
		if t < len(mark) {
			mark[t] = true
		}
	}
}

func (f *fakeProbe) HotKeys(key func(*event.Event) uint64, add func(uint64)) {
	for _, k := range f.keys {
		add(k)
	}
}

func (f *fakeProbe) LastSnapshots() []*stats.Snapshot { return []*stats.Snapshot{f.snap} }

// testPattern builds SEQ(T0, T1, T2) (optionally with a negated T3) over
// a schema of five types carrying attributes "x" and "key".
func testPattern(t *testing.T, withNeg bool) (*event.Schema, *pattern.Pattern) {
	t.Helper()
	s := event.NewSchema()
	for i := 0; i < 5; i++ {
		s.MustAddType(string(rune('A'+i)), "x", "key")
	}
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	b.Event(0)
	b.Event(1)
	b.Event(2)
	if withNeg {
		b.Negate(b.Event(3))
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// feed runs n events round-robining the given types through the shedder
// and returns the per-type (kept, dropped) counts.
func feed(sh *Shedder, n int, types []int) (kept, dropped map[int]int) {
	kept, dropped = make(map[int]int), make(map[int]int)
	for i := 0; i < n; i++ {
		typ := types[i%len(types)]
		ev := event.Event{Type: typ, TS: event.Time(i), Seq: uint64(i + 1), Attrs: []float64{0, float64(typ)}}
		if sh.Admit(&ev) {
			kept[typ]++
		} else {
			dropped[typ]++
		}
	}
	return kept, dropped
}

func overloadedConfig(pol Policy) Config {
	return Config{
		Policy: pol,
		Budget: Budget{LivePMs: 10},
	}
}

func TestNewValidation(t *testing.T) {
	_, pat := testPattern(t, false)
	if sh, err := New(Config{}, pat, &fakeProbe{}); err != nil || sh != nil {
		t.Fatalf("nil policy: want (nil, nil), got (%v, %v)", sh, err)
	}
	if _, err := New(Config{Policy: Random{P: 0.5}}, pat, &fakeProbe{}); err == nil {
		t.Fatal("policy without budget: want error")
	}
	if _, err := New(overloadedConfig(Random{P: 0.5}), nil, &fakeProbe{}); err == nil {
		t.Fatal("nil pattern: want error")
	}
	if _, err := New(overloadedConfig(Random{P: 0.5}), pat, nil); err == nil {
		t.Fatal("nil probe: want error")
	}
}

func TestUnderBudgetNeverDrops(t *testing.T) {
	_, pat := testPattern(t, false)
	sh, err := New(overloadedConfig(Random{P: 1}), pat, &fakeProbe{live: 0})
	if err != nil {
		t.Fatal(err)
	}
	_, dropped := feed(sh, 1000, []int{0, 1, 2})
	if len(dropped) != 0 {
		t.Fatalf("under budget, Random(1) dropped %v", dropped)
	}
	if sh.Load() >= 1 {
		t.Fatalf("load = %v, want < 1", sh.Load())
	}
}

// TestLatencyBudget: the QueueWait dimension activates the monitor on
// p99 queue wait alone — no PM or rate budget involved — and only
// while the probed latency exceeds the target.
func TestLatencyBudget(t *testing.T) {
	_, pat := testPattern(t, false)
	cfg := Config{
		Policy: Random{P: 1},
		Budget: Budget{QueueWait: 10 * time.Millisecond},
	}
	p99 := float64(1 * time.Millisecond) // healthy
	sh, err := New(cfg, pat, &fakeProbe{})
	if err != nil {
		t.Fatal(err)
	}
	sh.SetLatencyProbe(func() float64 { return p99 })
	if _, dropped := feed(sh, 500, []int{0, 1, 2}); len(dropped) != 0 {
		t.Fatalf("p99 under budget, dropped %v", dropped)
	}
	if sh.Load() >= 1 {
		t.Fatalf("load = %v, want < 1", sh.Load())
	}

	p99 = float64(25 * time.Millisecond) // 2.5x over the latency budget
	kept, dropped := feed(sh, 500, []int{0, 1, 2})
	if len(dropped) == 0 {
		t.Fatal("p99 2.5x over budget, nothing dropped")
	}
	if got := sh.Load(); got < 2 || got > 3 {
		t.Fatalf("load = %v, want ~2.5", got)
	}
	_ = kept

	// Without a probe the dimension is inert even when budgeted.
	sh2, err := New(cfg, pat, &fakeProbe{})
	if err != nil {
		t.Fatal(err)
	}
	if _, dropped := feed(sh2, 500, []int{0, 1, 2}); len(dropped) != 0 {
		t.Fatalf("probe-less latency budget dropped %v", dropped)
	}
}

func TestNonePolicyNeverDrops(t *testing.T) {
	_, pat := testPattern(t, false)
	sh, err := New(overloadedConfig(None{}), pat, &fakeProbe{live: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_, dropped := feed(sh, 2000, []int{0, 1, 2})
	if len(dropped) != 0 {
		t.Fatalf("None dropped %v", dropped)
	}
	if sh.Load() < 1 {
		t.Fatalf("load = %v, want >= 1 (the monitor still runs)", sh.Load())
	}
}

func TestRandomDropRate(t *testing.T) {
	_, pat := testPattern(t, false)
	sh, err := New(overloadedConfig(Random{P: 0.3}), pat, &fakeProbe{live: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	_, dropped := feed(sh, n, []int{0, 1, 2})
	total := dropped[0] + dropped[1] + dropped[2]
	got := float64(total) / float64(n)
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("Random(0.3) achieved drop rate %.3f", got)
	}
	if sh.Shed() != uint64(total) || sh.Kept() != uint64(n-total) {
		t.Fatalf("counter mismatch: shed=%d kept=%d vs %d/%d", sh.Shed(), sh.Kept(), total, n-total)
	}
}

func TestDeterminism(t *testing.T) {
	_, pat := testPattern(t, false)
	run := func() (map[int]int, map[int]int) {
		sh, err := New(overloadedConfig(Random{P: 0.4}), pat, &fakeProbe{live: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return feed(sh, 5000, []int{0, 1, 2})
	}
	k1, d1 := run()
	k2, d2 := run()
	for typ := 0; typ < 3; typ++ {
		if k1[typ] != k2[typ] || d1[typ] != d2[typ] {
			t.Fatalf("type %d: run1 kept/dropped %d/%d, run2 %d/%d", typ, k1[typ], d1[typ], k2[typ], d2[typ])
		}
	}
}

func TestNegatedTypesProtected(t *testing.T) {
	_, pat := testPattern(t, true) // T3 negated
	sh, err := New(overloadedConfig(Random{P: 1}), pat, &fakeProbe{live: 1000})
	if err != nil {
		t.Fatal(err)
	}
	kept, dropped := feed(sh, 4000, []int{0, 1, 2, 3})
	if dropped[3] != 0 {
		t.Fatalf("negated type dropped %d times", dropped[3])
	}
	if kept[3] != 1000 {
		t.Fatalf("negated type kept %d of 1000", kept[3])
	}
	// Random(1) must have dropped everything else once overloaded.
	if dropped[0] == 0 || dropped[1] == 0 || dropped[2] == 0 {
		t.Fatalf("expected drops on non-negated types, got %v", dropped)
	}
}

func TestPatternAwareProtectsHotAndCompensates(t *testing.T) {
	_, pat := testPattern(t, false)
	probe := &fakeProbe{live: 1000, hot: []int{0}}
	cfg := overloadedConfig(PatternAware{Target: 0.3})
	sh, err := New(cfg, pat, probe)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40000
	kept, dropped := feed(sh, n, []int{0, 1, 2, 4})
	if dropped[0] != 0 {
		t.Fatalf("hot type dropped %d times", dropped[0])
	}
	total := 0
	for _, d := range dropped {
		total += d
	}
	got := float64(total) / float64(n)
	// Hot fraction is 1/4; compensation raises the cold drop rate to
	// 0.3/0.75 = 0.4, restoring the stream-wide target of 0.3.
	if math.Abs(got-0.3) > 0.03 {
		t.Fatalf("PatternAware(0.3) achieved stream-wide drop rate %.3f", got)
	}
	coldDropped := dropped[1] + dropped[2] + dropped[4]
	coldTotal := coldDropped + kept[1] + kept[2] + kept[4]
	coldRate := float64(coldDropped) / float64(coldTotal)
	if math.Abs(coldRate-0.4) > 0.04 {
		t.Fatalf("cold drop rate %.3f, want ~0.4 (compensated)", coldRate)
	}
}

func TestPatternAwareProtectsHotKeys(t *testing.T) {
	_, pat := testPattern(t, false)
	probe := &fakeProbe{live: 1000, hot: []int{0, 1, 2}, keys: []uint64{7}}
	cfg := overloadedConfig(PatternAware{Target: 1})
	cfg.Key = func(ev *event.Event) uint64 { return uint64(ev.Attrs[1]) }
	sh, err := New(cfg, pat, probe)
	if err != nil {
		t.Fatal(err)
	}
	var keptHot, droppedHot, droppedCold int
	for i := 0; i < 4000; i++ {
		keyVal := float64(i % 4 * 7) // 0, 7, 14, 21: key 7 is hot
		ev := event.Event{Type: i % 3, TS: event.Time(i), Seq: uint64(i + 1), Attrs: []float64{0, keyVal}}
		admitted := sh.Admit(&ev)
		switch {
		case keyVal == 7 && admitted:
			keptHot++
		case keyVal == 7:
			droppedHot++
		case !admitted:
			droppedCold++
		}
	}
	if droppedHot != 0 {
		t.Fatalf("hot-key events dropped %d times", droppedHot)
	}
	if keptHot == 0 || droppedCold == 0 {
		t.Fatalf("degenerate run: keptHot=%d droppedCold=%d", keptHot, droppedCold)
	}
}

func TestRateUtilityShedsUselessTypesFirst(t *testing.T) {
	_, pat := testPattern(t, false)
	// Snapshot over the 3 positions: position 2 survives predicates far
	// more rarely than 0 and 1.
	snap := stats.NewSnapshot(3)
	snap.SetSym(0, 1, 0.9)
	snap.SetSym(1, 2, 0.05)
	snap.SetSym(0, 2, 0.05)
	probe := &fakeProbe{live: 1000, snap: snap}
	sh, err := New(overloadedConfig(RateUtility{Target: 0.25}), pat, probe)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform mix of pattern types 0..2 and the unreferenced type 4.
	const n = 40000
	_, dropped := feed(sh, n, []int{0, 1, 2, 4})
	// Type 4 feeds no pattern position: it must absorb the entire 25%
	// drop budget (its share is exactly the target).
	if got := float64(dropped[4]) / float64(n/4); got < 0.9 {
		t.Fatalf("unreferenced type shed at %.3f, want ~1", got)
	}
	if dropped[0] > n/400 || dropped[1] > n/400 {
		t.Fatalf("high-utility types shed: %v", dropped)
	}
	total := dropped[0] + dropped[1] + dropped[2] + dropped[4]
	if got := float64(total) / float64(n); math.Abs(got-0.25) > 0.03 {
		t.Fatalf("RateUtility(0.25) achieved drop rate %.3f", got)
	}
}

// TestRateUtilityCoversAllDisjuncts: a type referenced only by the
// second disjunct of an OR pattern must not be treated as unreferenced
// (and shed first); only truly pattern-free types absorb the drop mass.
func TestRateUtilityCoversAllDisjuncts(t *testing.T) {
	s := event.NewSchema()
	for i := 0; i < 6; i++ {
		s.MustAddType(string(rune('A'+i)), "x")
	}
	mkSeq := func(types ...int) *pattern.Pattern {
		b := pattern.NewBuilder(s, pattern.Seq, 100)
		for _, typ := range types {
			b.Event(typ)
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	or, err := pattern.NewOr(mkSeq(0, 1, 2), mkSeq(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(overloadedConfig(RateUtility{Target: 0.15}), or, &fakeProbe{live: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform mix over all six types: only type 5 is pattern-free, and
	// its 1/6 share covers the 0.15 target.
	const n = 30000
	_, dropped := feed(sh, n, []int{0, 1, 2, 3, 4, 5})
	if dropped[3] > n/600 || dropped[4] > n/600 {
		t.Fatalf("second-disjunct types shed: %v", dropped)
	}
	if got := float64(dropped[5]) / float64(n/6); got < 0.8 {
		t.Fatalf("pattern-free type shed at %.3f, want ~0.9 (0.15 target / 1-in-6 share)", got)
	}
}

func TestRateMeter(t *testing.T) {
	var m rateMeter
	// 1 event per logical ms for 3 seconds -> 1000 events/sec.
	for ts := event.Time(0); ts < 3*event.Second; ts++ {
		m.observe(ts)
	}
	if math.Abs(m.rate-1000) > 10 {
		t.Fatalf("rate = %v, want ~1000", m.rate)
	}
}

func TestUniformDraw(t *testing.T) {
	var sum float64
	const n = 100000
	for i := uint64(1); i <= n; i++ {
		u := uniform(i)
		if u < 0 || u >= 1 {
			t.Fatalf("uniform(%d) = %v out of [0,1)", i, u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of draws = %v, want ~0.5", mean)
	}
}

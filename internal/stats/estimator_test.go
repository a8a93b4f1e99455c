package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"acep/internal/event"
	"acep/internal/pattern"
)

func estSchema() *event.Schema {
	s := event.NewSchema()
	s.MustAddType("A", "x")
	s.MustAddType("B", "x")
	s.MustAddType("C", "x")
	return s
}

func estPattern(s *event.Schema) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, 10*event.Second)
	a := b.EventName("A")
	bb := b.EventName("B")
	c := b.EventName("C")
	b.WhereEq(a, "x", bb, "x")
	b.WhereConst(c, "x", pattern.GT, 0.5)
	return b.MustBuild()
}

func TestNewEstimatorRejectsOr(t *testing.T) {
	s := estSchema()
	mk := func() *pattern.Pattern {
		b := pattern.NewBuilder(s, pattern.Seq, event.Second)
		b.EventName("A")
		return b.MustBuild()
	}
	or, _ := pattern.NewOr(mk(), mk())
	if _, err := NewEstimator(or, Config{}); err == nil {
		t.Fatal("estimator accepted OR pattern")
	}
}

func TestEstimatorRates(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, err := NewEstimator(pat, Config{Window: 2 * event.Second})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	// A: every 10ms (100/s), B: every 20ms (50/s), C: every 100ms (10/s).
	var seq uint64
	emit := func(typ int, ts event.Time) {
		ev := s.MustNew(typ, ts, 1)
		ev.Seq = seq
		seq++
		e.Observe(&ev)
	}
	for ts := event.Time(0); ts < 4000; ts += 10 {
		emit(0, ts)
		if ts%20 == 0 {
			emit(1, ts)
		}
		if ts%100 == 0 {
			emit(2, ts)
		}
	}
	snap := e.Snapshot(4000)
	want := []float64{100, 50, 10}
	for i, w := range want {
		if math.Abs(snap.Rates[i]-w)/w > 0.15 {
			t.Errorf("rate[%d] = %.1f; want ~%.0f", i, snap.Rates[i], w)
		}
	}
	if snap.Version != 1 {
		t.Errorf("version = %d; want 1", snap.Version)
	}
	if e.Snapshot(4000).Version != 2 {
		t.Error("version must increase per snapshot")
	}
}

func TestEstimatorSelectivities(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, _ := NewEstimator(pat, Config{Window: 5 * event.Second, Alpha: 1, SampleSize: 32})
	r := rand.New(rand.NewSource(42))
	var seq uint64
	emit := func(typ int, ts event.Time, x float64) {
		ev := s.MustNew(typ, ts, x)
		ev.Seq = seq
		seq++
		e.Observe(&ev)
	}
	// A.x and B.x drawn uniformly from {0..9}: P(eq) = 0.1.
	// C.x uniform in [0,1): P(>0.5) = 0.5.
	for ts := event.Time(0); ts < 3000; ts += 5 {
		emit(0, ts, float64(r.Intn(10)))
		emit(1, ts+1, float64(r.Intn(10)))
		emit(2, ts+2, r.Float64())
	}
	snap := e.Snapshot(3000)
	if got := snap.Sel[0][1]; math.Abs(got-0.1) > 0.06 {
		t.Errorf("sel(A,B) = %.3f; want ~0.1", got)
	}
	if got := snap.Sel[1][0]; got != snap.Sel[0][1] {
		t.Error("Sel must be symmetric")
	}
	if got := snap.Sel[2][2]; math.Abs(got-0.5) > 0.2 {
		t.Errorf("unary sel(C) = %.3f; want ~0.5", got)
	}
	if got := snap.Sel[0][2]; got != 1 {
		t.Errorf("sel(A,C) = %.3f; want 1 (no predicate)", got)
	}
}

func TestEstimatorEWMA(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, _ := NewEstimator(pat, Config{Alpha: 0.5, SampleSize: 8})
	var seq uint64
	emit := func(typ int, ts event.Time, x float64) {
		ev := s.MustNew(typ, ts, x)
		ev.Seq = seq
		seq++
		e.Observe(&ev)
	}
	// Phase 1: A.x == B.x always -> sel 1.
	for ts := event.Time(0); ts < 100; ts += 5 {
		emit(0, ts, 1)
		emit(1, ts, 1)
	}
	e.Snapshot(100)
	first := e.selPred[0]
	if first < 0.99 {
		t.Fatalf("phase-1 sel = %.3f; want ~1", first)
	}
	// Phase 2: never equal -> raw 0 (floored), EWMA pulls halfway.
	for ts := event.Time(100); ts < 200; ts += 5 {
		emit(0, ts, 1)
		emit(1, ts, 2)
	}
	e.Snapshot(200)
	second := e.selPred[0]
	if second > 0.51 || second < 0.4 {
		t.Fatalf("phase-2 sel = %.3f; want ~0.5 after one EWMA step", second)
	}
}

func TestEstimatorMinSelFloor(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, _ := NewEstimator(pat, Config{Alpha: 1, MinSel: 0.01, SampleSize: 8})
	var seq uint64
	for ts := event.Time(0); ts < 100; ts += 5 {
		ev := s.MustNew(0, ts, 1)
		ev.Seq = seq
		seq++
		e.Observe(&ev)
		ev2 := s.MustNew(1, ts, 2)
		ev2.Seq = seq
		seq++
		e.Observe(&ev2)
	}
	snap := e.Snapshot(100)
	if got := snap.Sel[0][1]; got != 0.01 {
		t.Errorf("floored sel = %g; want 0.01", got)
	}
}

func TestEstimatorUnseenKeepsOptimistic(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, _ := NewEstimator(pat, Config{})
	snap := e.Snapshot(1000)
	if snap.Sel[0][1] != 1 || snap.Sel[2][2] != 1 {
		t.Error("selectivities with no data must stay 1")
	}
	if snap.Rates[0] != 0 {
		t.Error("rates with no data must be 0")
	}
}

func TestExactMatchesConstruction(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	var events []event.Event
	var seq uint64
	add := func(typ int, ts event.Time, x float64) {
		ev := s.MustNew(typ, ts, x)
		ev.Seq = seq
		seq++
		events = append(events, ev)
	}
	// Over 10 seconds: 20 As, 10 Bs, 5 Cs.
	for i := 0; i < 20; i++ {
		add(0, event.Time(i)*500, float64(i%2)) // x alternates 0,1
	}
	for i := 0; i < 10; i++ {
		add(1, event.Time(i)*1000, 0) // x always 0
	}
	for i := 0; i < 5; i++ {
		add(2, event.Time(i)*2000, float64(i)) // x = 0..4; >0.5 for 4 of 5
	}
	snap := Exact(pat, events)
	// Span is 9500ms = 9.5s.
	if math.Abs(snap.Rates[0]-20/9.5) > 1e-9 {
		t.Errorf("rate[A] = %g", snap.Rates[0])
	}
	// P(A.x == B.x): A.x is 0 half the time, B.x always 0 -> 0.5.
	if math.Abs(snap.Sel[0][1]-0.5) > 1e-9 {
		t.Errorf("sel(A,B) = %g; want 0.5", snap.Sel[0][1])
	}
	if math.Abs(snap.Sel[2][2]-0.8) > 1e-9 {
		t.Errorf("unary sel(C) = %g; want 0.8", snap.Sel[2][2])
	}
}

func TestExactEmpty(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	snap := Exact(pat, nil)
	if snap.Rates[0] != 0 || snap.Sel[0][1] != 1 {
		t.Error("empty Exact must be zero rates, unit sels")
	}
}

func TestSnapshotCloneAndFlatten(t *testing.T) {
	snap := NewSnapshot(3)
	snap.Rates[0] = 5
	snap.SetSym(0, 1, 0.25)
	c := snap.Clone()
	c.Rates[0] = 99
	c.Sel[0][1] = 0.5
	if snap.Rates[0] != 5 || snap.Sel[0][1] != 0.25 {
		t.Error("Clone must deep-copy")
	}
	flat := snap.Flatten(nil)
	// 3 rates + 6 upper-triangle sels.
	if len(flat) != 9 {
		t.Fatalf("Flatten len = %d; want 9", len(flat))
	}
	if flat[0] != 5 {
		t.Error("Flatten rates first")
	}
	// Sel[0][1] is the second selectivity entry (after Sel[0][0]).
	if flat[4] != 0.25 {
		t.Errorf("flat = %v", flat)
	}
}

func TestSnapshotString(t *testing.T) {
	snap := NewSnapshot(2)
	snap.SetSym(0, 1, 0.5)
	if s := snap.String(); s == "" {
		t.Error("empty String()")
	}
}

// ---------------------------------------------------------------------
// Reference implementation: the estimator as it stood before the columnar
// rebuild — rings of event.Event structs copied by value, predicates
// counted by calling pattern.Pred.Eval on every pair, an exponential
// histogram that keeps its buckets in one slice and shifts on every
// merge. Kept here, test-only, as what the differential tests and the
// benchmarks compare against; every Snapshot of the real Estimator must
// equal the reference's bit for bit.

type refRing struct {
	buf  []event.Event
	next int
	full bool
}

func (r *refRing) add(ev *event.Event) {
	r.buf[r.next] = *ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

func (r *refRing) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

func (r *refRing) at(i int) *event.Event {
	if !r.full {
		return &r.buf[i]
	}
	return &r.buf[(r.next+i)%len(r.buf)]
}

type refBucket struct {
	size uint64
	ts   event.Time
}

type refEH struct {
	window  event.Time
	r       int
	buckets []refBucket // oldest first
	total   uint64
}

func newRefEH(window event.Time, eps float64) *refEH {
	r := int(math.Ceil(1/(2*eps))) + 1
	if r < 2 {
		r = 2
	}
	return &refEH{window: window, r: r}
}

func (h *refEH) Add(ts event.Time) {
	h.expire(ts)
	h.buckets = append(h.buckets, refBucket{size: 1, ts: ts})
	h.total++
	end := len(h.buckets)
	size := uint64(1)
	for {
		start := end
		for start > 0 && h.buckets[start-1].size == size {
			start--
		}
		if end-start <= h.r {
			break
		}
		h.buckets[start+1].size = 2 * size
		h.buckets = append(h.buckets[:start], h.buckets[start+1:]...)
		end = start + 1
		size *= 2
	}
}

func (h *refEH) expire(now event.Time) {
	cut := 0
	for cut < len(h.buckets) && h.buckets[cut].ts <= now-h.window {
		h.total -= h.buckets[cut].size
		cut++
	}
	if cut > 0 {
		h.buckets = h.buckets[cut:]
	}
}

func (h *refEH) Count(now event.Time) float64 {
	h.expire(now)
	if len(h.buckets) == 0 {
		return 0
	}
	return float64(h.total) - float64(h.buckets[0].size-1)/2
}

func (h *refEH) Rate(now event.Time) float64 {
	return h.Count(now) / (float64(h.window) / float64(event.Second))
}

type refEstimator struct {
	pat     *pattern.Pattern
	cfg     Config
	ehs     []*refEH
	rings   []*refRing
	selPred []float64
	seeded  []bool
	version uint64
}

func newRefEstimator(pat *pattern.Pattern, cfg Config) *refEstimator {
	cfg = cfg.withDefaults(pat.Window)
	n := pat.NumPositions()
	e := &refEstimator{
		pat:     pat,
		cfg:     cfg,
		ehs:     make([]*refEH, n),
		rings:   make([]*refRing, n),
		selPred: make([]float64, len(pat.Preds)),
		seeded:  make([]bool, len(pat.Preds)),
	}
	for i := 0; i < n; i++ {
		e.ehs[i] = newRefEH(cfg.Window, cfg.EHEps)
		e.rings[i] = &refRing{buf: make([]event.Event, cfg.SampleSize)}
	}
	for i := range e.selPred {
		e.selPred[i] = 1
	}
	return e
}

func (e *refEstimator) Observe(ev *event.Event) {
	for i, pos := range e.pat.Positions {
		if pos.Type == ev.Type {
			e.ehs[i].Add(ev.TS)
			e.rings[i].add(ev)
		}
	}
}

func (e *refEstimator) Snapshot(now event.Time) *Snapshot {
	for k := range e.pat.Preds {
		pr := &e.pat.Preds[k]
		var pass, total int
		if pr.IsUnary() {
			ring := e.rings[pr.L]
			for i := 0; i < ring.len(); i++ {
				total++
				if pr.Eval(ring.at(i), nil) {
					pass++
				}
			}
		} else {
			lring, rring := e.rings[pr.L], e.rings[pr.R]
			for i := 0; i < lring.len(); i++ {
				for j := 0; j < rring.len(); j++ {
					total++
					if pr.Eval(lring.at(i), rring.at(j)) {
						pass++
					}
				}
			}
		}
		if total == 0 {
			continue
		}
		obs := float64(pass) / float64(total)
		if obs < e.cfg.MinSel {
			obs = e.cfg.MinSel
		}
		if !e.seeded[k] {
			e.selPred[k] = obs
			e.seeded[k] = true
		} else {
			e.selPred[k] = e.cfg.Alpha*obs + (1-e.cfg.Alpha)*e.selPred[k]
		}
	}
	n := e.pat.NumPositions()
	s := NewSnapshot(n)
	e.version++
	s.Version = e.version
	for i := 0; i < n; i++ {
		s.Rates[i] = e.ehs[i].Rate(now)
	}
	for i := 0; i < n; i++ {
		for _, k := range e.pat.PredsAt(i) {
			s.Sel[i][i] *= e.selPred[k]
		}
		for j := i + 1; j < n; j++ {
			v := 1.0
			for _, k := range e.pat.PredsBetween(i, j) {
				v *= e.selPred[k]
			}
			s.SetSym(i, j, v)
		}
	}
	return s
}

// refExact is stats.Exact as it stood: events gathered per position by
// pointer, selectivities by Pred.Eval over every pair.
func refExact(pat *pattern.Pattern, events []event.Event) *Snapshot {
	n := pat.NumPositions()
	s := NewSnapshot(n)
	if len(events) == 0 {
		return s
	}
	minTS, maxTS := events[0].TS, events[0].TS
	byPos := make([][]*event.Event, n)
	for idx := range events {
		ev := &events[idx]
		if ev.TS < minTS {
			minTS = ev.TS
		}
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
		for i, pos := range pat.Positions {
			if pos.Type == ev.Type {
				byPos[i] = append(byPos[i], ev)
			}
		}
	}
	span := float64(maxTS-minTS) / float64(event.Second)
	if span <= 0 {
		span = 1
	}
	for i := 0; i < n; i++ {
		s.Rates[i] = float64(len(byPos[i])) / span
	}
	selOf := func(k int) float64 {
		pr := &pat.Preds[k]
		var pass, total int
		if pr.IsUnary() {
			for _, ev := range byPos[pr.L] {
				total++
				if pr.Eval(ev, nil) {
					pass++
				}
			}
		} else {
			for _, el := range byPos[pr.L] {
				for _, er := range byPos[pr.R] {
					total++
					if pr.Eval(el, er) {
						pass++
					}
				}
			}
		}
		if total == 0 {
			return 1
		}
		return float64(pass) / float64(total)
	}
	for i := 0; i < n; i++ {
		for _, k := range pat.PredsAt(i) {
			s.Sel[i][i] *= selOf(k)
		}
		for j := i + 1; j < n; j++ {
			v := 1.0
			for _, k := range pat.PredsBetween(i, j) {
				v *= selOf(k)
			}
			s.SetSym(i, j, v)
		}
	}
	return s
}

// ---------------------------------------------------------------------
// Differential tests.

// sameBits reports the first difference between two snapshots, comparing
// every float by its bit pattern (so NaN equals NaN and -0 differs from
// +0), or "" if there is none.
func sameBits(got, want *Snapshot) string {
	if got.Version != want.Version {
		return fmt.Sprintf("Version %d, want %d", got.Version, want.Version)
	}
	if len(got.Rates) != len(want.Rates) || len(got.Sel) != len(want.Sel) {
		return "shape differs"
	}
	for i := range want.Rates {
		if math.Float64bits(got.Rates[i]) != math.Float64bits(want.Rates[i]) {
			return fmt.Sprintf("Rates[%d] = %v, want %v", i, got.Rates[i], want.Rates[i])
		}
		for j := range want.Sel[i] {
			if math.Float64bits(got.Sel[i][j]) != math.Float64bits(want.Sel[i][j]) {
				return fmt.Sprintf("Sel[%d][%d] = %v, want %v", i, j, got.Sel[i][j], want.Sel[i][j])
			}
		}
	}
	return ""
}

// diffValues is what random attributes are drawn from: a small grid so
// that EQ/NE and the <=/>= boundaries are hit, values whose sum with a
// constant rounds, and the non-finite ones.
var diffValues = []float64{
	0, math.Copysign(0, -1), 1, 2, 3, -1, 0.1, 0.2, 0.30000000000000004, 1e16, 1e16 + 2,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

var diffConsts = []float64{0, 0, 1, -1, 0.1, 0.5, 2, math.Copysign(0, -1)}

// diffCase is one random differential scenario: a schema of 5 types with
// 3 attributes, a pattern over types 0..3 (type 3 never arrives in the
// stream, type 4 arrives but is in no pattern), predicates over all seven
// operators, and a stream.
type diffCase struct {
	pat    *pattern.Pattern
	cfg    Config
	events []event.Event
	every  int // events between Snapshots
}

func newDiffCase(r *rand.Rand, sampleSize int, alpha float64) diffCase {
	const attrs = 3
	s := event.NewSchema()
	for i := 0; i < 5; i++ {
		s.MustAddType(fmt.Sprintf("T%d", i), "a", "b", "c")
	}
	op := pattern.Seq
	if r.Intn(2) == 0 {
		op = pattern.And
	}
	b := pattern.NewBuilder(s, op, event.Time(50+r.Intn(500)))
	n := 2 + r.Intn(4)
	for i := 0; i < n; i++ {
		// Duplicates are likely: one event type at two positions.
		b.Event(r.Intn(4))
	}
	ops := []pattern.CmpOp{pattern.LT, pattern.LE, pattern.GT, pattern.GE, pattern.EQ, pattern.NE, pattern.AbsDiffLT}
	for k, np := 0, 1+r.Intn(10); k < np; k++ {
		pr := pattern.Pred{
			L: r.Intn(n), AttrL: r.Intn(attrs),
			R: pattern.Unary, AttrR: r.Intn(attrs),
			Op: ops[r.Intn(len(ops))],
			C:  diffConsts[r.Intn(len(diffConsts))],
		}
		if r.Intn(4) != 0 {
			if pr.R = r.Intn(n - 1); pr.R >= pr.L {
				pr.R++
			}
		}
		b.WherePred(pr)
	}
	c := diffCase{
		pat:   b.MustBuild(),
		cfg:   Config{SampleSize: sampleSize, Alpha: alpha, Window: event.Time(100 + r.Intn(2000))},
		every: 1 + r.Intn(40),
	}
	ts := event.Time(0)
	for i, ne := 0, 200+r.Intn(800); i < ne; i++ {
		ts += event.Time(r.Intn(4))
		typ := r.Intn(4)
		if typ == 3 {
			typ = 4 // type 3 never arrives
		}
		ev := s.MustNew(typ, ts, 0, 0, 0)
		for a := range ev.Attrs {
			ev.Attrs[a] = diffValues[r.Intn(len(diffValues))]
		}
		ev.Seq = uint64(i)
		c.events = append(c.events, ev)
	}
	return c
}

// TestEstimatorMatchesReference drives the estimator and the reference
// over seeded random patterns and streams and requires bit-identical
// snapshots and per-predicate estimates at every check.
func TestEstimatorMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20180701))
	sizes := []int{1, 3, 24, 64}
	alphas := []float64{0, 1, 0.3} // 0 selects the default
	checks := 0
	for trial := 0; trial < 120; trial++ {
		c := newDiffCase(r, sizes[trial%len(sizes)], alphas[trial%len(alphas)])
		e, err := NewEstimator(c.pat, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefEstimator(c.pat, c.cfg)
		for i := range c.events {
			ev := &c.events[i]
			e.Observe(ev)
			ref.Observe(ev)
			if (i+1)%c.every != 0 {
				continue
			}
			checks++
			now := ev.TS
			if r.Intn(8) == 0 {
				now += event.Time(r.Intn(3000)) // a quiet spell: buckets expire at the read
			}
			if d := sameBits(e.Snapshot(now), ref.Snapshot(now)); d != "" {
				t.Fatalf("trial %d (%v, cfg %+v), check at event %d: %s", trial, c.pat, c.cfg, i, d)
			}
			for k := range c.pat.Preds {
				if got, want := e.selPred[k], ref.selPred[k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d (%v), check at event %d: selPred[%d] = %v, want %v", trial, c.pat, i, k, got, want)
				}
			}
		}
	}
	if checks < 2000 {
		t.Fatalf("only %d checks compared; want >= 2000", checks)
	}
}

// TestEstimatorDoesNotAliasEvents pins Observe's contract: the caller's
// event and Attrs buffer may be overwritten as soon as Observe returns.
// One estimator sees every event as its own value, the other sees them
// all through a single reused Event whose Attrs are scribbled over after
// each call; their snapshots must agree bit for bit.
func TestEstimatorDoesNotAliasEvents(t *testing.T) {
	w, pat := chainWorkload(t, 6000)
	fresh, _ := NewEstimator(pat, Config{})
	reused, _ := NewEstimator(pat, Config{})
	var buf event.Event
	buf.Attrs = make([]float64, 2)
	checks := 0
	for i := range w.Events {
		ev := &w.Events[i]
		fresh.Observe(ev)

		buf.Type, buf.TS, buf.Seq = ev.Type, ev.TS, ev.Seq
		copy(buf.Attrs, ev.Attrs)
		reused.Observe(&buf)
		for a := range buf.Attrs {
			buf.Attrs[a] = -1e9
		}

		if (i+1)%100 == 0 {
			checks++
			if d := sameBits(reused.Snapshot(ev.TS), fresh.Snapshot(ev.TS)); d != "" {
				t.Fatalf("check %d: reused-buffer estimator diverged: %s", checks, d)
			}
		}
	}
}

// TestEHMatchesReference compares the per-class-ring histogram with the
// one-slice reference on counts and bucket totals, through bursts and
// quiet spells long enough to empty it.
func TestEHMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, eps := range []float64{0.5, 0.25, 0.05, 0.01} {
		h, _ := NewEH(500, eps)
		ref := newRefEH(500, eps)
		now := event.Time(0)
		for i := 0; i < 30000; i++ {
			switch r.Intn(200) {
			case 0:
				now += event.Time(r.Intn(1200))
			default:
				now += event.Time(r.Intn(3))
			}
			h.Add(now)
			ref.Add(now)
			if i%7 == 0 {
				at := now + event.Time(r.Intn(2))*event.Time(r.Intn(600))
				if got, want := h.Count(at), ref.Count(at); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("eps %g, add %d: Count(%d) = %v, want %v", eps, i, at, got, want)
				}
				now = at
			}
			if h.Buckets() != len(ref.buckets) {
				t.Fatalf("eps %g, add %d: %d buckets, want %d", eps, i, h.Buckets(), len(ref.buckets))
			}
		}
	}
}

// TestExactMatchesReference compares Exact with the Pred.Eval loops on
// the random differential cases (all operators, NaN/Inf, repeated types)
// and on a traffic slice.
func TestExactMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		c := newDiffCase(r, 0, 0)
		got, want := Exact(c.pat, c.events), refExact(c.pat, c.events)
		if d := sameBits(got, want); d != "" {
			t.Fatalf("trial %d (%v): %s", trial, c.pat, d)
		}
	}
	w, pat := chainWorkload(t, 3000)
	if d := sameBits(Exact(pat, w.Events), refExact(pat, w.Events)); d != "" {
		t.Fatalf("traffic: %s", d)
	}
	// Columns of ties: every value of diffValues — NaN, both infinities,
	// both zeros, sums that round — three times over on each side, under
	// every operator and constant.
	s := event.NewSchema()
	s.MustAddType("L", "x")
	s.MustAddType("R", "x")
	var evs []event.Event
	for i, v := range diffValues {
		for k := 0; k < 3; k++ {
			evs = append(evs, s.MustNew(0, event.Time(2*i), v), s.MustNew(1, event.Time(2*i+1), -v))
		}
	}
	for _, op := range []pattern.CmpOp{pattern.LT, pattern.LE, pattern.GT, pattern.GE, pattern.EQ, pattern.NE, pattern.AbsDiffLT} {
		for _, c := range append(diffConsts, math.Inf(1), math.Inf(-1), 1e16) {
			b := pattern.NewBuilder(s, pattern.And, event.Second)
			b.Event(0)
			b.Event(1)
			b.WherePred(pattern.Pred{L: 0, R: 1, Op: op, C: c})
			pat := b.MustBuild()
			if d := sameBits(Exact(pat, evs), refExact(pat, evs)); d != "" {
				t.Fatalf("%v with C=%v over the tie columns: %s", op, c, d)
			}
		}
	}
}

// TestEstimatorAllocs: steady-state Observe allocates nothing — not once
// in ten windows of timestamps (AllocsPerRun's integer average would hide
// a rarer allocation, so one run is ten windows long), with histogram
// merging and expiry both in play and the bucket count ending inside its
// bound — and neither does Snapshot: it refills the estimator's own two
// snapshots.
func TestEstimatorAllocs(t *testing.T) {
	_, pat := chainWorkload(t, 1)
	cfg := Config{Window: 200}
	e, _ := NewEstimator(pat, cfg)
	n := pat.NumPositions()
	ev := event.Event{Attrs: []float64{1, 2}}
	// One event per position every n ms; windows says for how long.
	observe := func(windows int) {
		for i := 0; i < windows*int(cfg.Window); i++ {
			ev.TS++
			ev.Type = pat.Positions[i%n].Type
			e.Observe(&ev)
		}
	}
	observe(3) // reach the steady state: histograms at full height, rings full
	if got := testing.AllocsPerRun(10, func() { observe(10) }); got != 0 {
		t.Errorf("Observe: %v allocations per ten windows, want 0", got)
	}
	// r = ceil(1/(2 eps))+1 buckets per size class, sizes up to the
	// window's count.
	bound := (int(math.Ceil(1/(2*0.05))) + 1) * (bits.Len(uint(cfg.Window)) + 1)
	for p, h := range e.ehs {
		if h.Buckets() > bound {
			t.Errorf("position %d: %d buckets, bound %d", p, h.Buckets(), bound)
		}
	}

	const checks = 100
	snapshot := testing.AllocsPerRun(10, func() {
		for i := 0; i < checks; i++ {
			ev.TS++
			e.Observe(&ev)
			e.Snapshot(ev.TS)
		}
	})
	if snapshot != 0 {
		t.Errorf("Snapshot: %v allocations per %d checks, want 0", snapshot, checks)
	}
}

// TestSnapshotLifetime: a snapshot the estimator returned is bit-identical
// after the next Snapshot call; the call after that refills it.
func TestSnapshotLifetime(t *testing.T) {
	w, pat := chainWorkload(t, 4000)
	e, _ := NewEstimator(pat, Config{})
	var prev, prevCopy *Snapshot
	checks := 0
	for i := range w.Events {
		ev := &w.Events[i]
		e.Observe(ev)
		if (i+1)%50 != 0 {
			continue
		}
		snap := e.Snapshot(ev.TS)
		if prev != nil {
			checks++
			if snap == prev {
				t.Fatalf("event %d: Snapshot refilled the snapshot it returned last", i)
			}
			if d := sameBits(prev, prevCopy); d != "" {
				t.Fatalf("event %d: the previous snapshot changed under the next call: %s", i, d)
			}
		}
		prev, prevCopy = snap, snap.Clone()
	}
	if checks < 50 {
		t.Fatalf("only %d checks", checks)
	}
}

// Package matchtest is the one table both evaluation models are tested
// against (table.go): each case is a pattern over a seeded stream and
// what must hold of it — the oracle's matches under every plan the model
// can run, the work of the model's single-bucket reference, the emit
// filter, expiry, introspection and allocation bounds. An engine package
// hands the table a Model (its constructor, the unexported reference
// included, its plan enumerator, the values where the models differ and
// which of its tests runs which group of the table); FuzzEnginesVsOracle
// (Fuzz) holds the same oracle check on generated patterns and on
// windows of the table's cases. This file holds the streams and patterns the cases are built
// from, and the event owner the allocation cases feed through.
package matchtest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/pattern"
)

// Case is one pattern over one stream and what must hold of it under
// every model: each plan the model can run finds the oracle's matches,
// and its indexed configuration does the work of its single-bucket
// reference (RequireSameWork).
type Case struct {
	Name   string
	Pat    *pattern.Pattern
	Events []event.Event
	// Matches, when set, is the oracle's match multiset (Keys).
	Matches []string
	// Keyed: some plan must key a place on an equality.
	Keyed bool
	// EmitBefore, when set, runs the model's first plan again under
	// SetEmitOnlyBefore(EmitBefore): exactly the oracle's matches with a
	// core event before that Seq leave, and every other core-complete
	// match counts as Suppressed — Suppressed of them, when that is set.
	EmitBefore, Suppressed uint64
}

// Attribute indices of the keyed cases' schema.
const (
	attrK = 0 // the join key
	attrV = 1 // a small integer payload
)

// Schema returns n event types A, B, ... carrying the attributes "k" (the
// join key of the hand-built cases) and "v" (a small integer).
func Schema(n int) *event.Schema { return schema(n, "k", "v") }

// SchemaX returns n event types A, B, ... carrying one attribute, "x".
func SchemaX(n int) *event.Schema { return schema(n, "x") }

func schema(n int, attrs ...string) *event.Schema {
	s := event.NewSchema()
	for i := 0; i < n; i++ {
		s.MustAddType(string(rune('A'+i)), attrs...)
	}
	return s
}

// Stream draws count timestamp-ordered events over the schema's types,
// uniformly, with k drawn from keys and v from {0,1,2}; gaps are 1..3.
func Stream(seed int64, s *event.Schema, count int, keys []float64) []event.Event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]event.Event, 0, count)
	var ts event.Time
	for i := 0; i < count; i++ {
		ts += event.Time(1 + r.Intn(3))
		e := s.MustNew(r.Intn(s.NumTypes()), ts, keys[r.Intn(len(keys))], float64(r.Intn(3)))
		e.Seq = uint64(i + 1)
		evs = append(evs, e)
	}
	return evs
}

// Weighted draws count timestamp-ordered events over a SchemaX schema
// where type i appears with relative weight weights[i] and x is drawn
// from {0..xmod-1}; gaps are 1..gap.
func Weighted(r *rand.Rand, s *event.Schema, weights []int, count, xmod int, gap event.Time) []event.Event {
	total := 0
	for _, w := range weights {
		total += w
	}
	evs := make([]event.Event, 0, count)
	var ts event.Time
	for i := 0; i < count; i++ {
		ts += event.Time(1 + r.Intn(int(gap)))
		pick, typ := r.Intn(total), 0
		for pick >= weights[typ] {
			pick -= weights[typ]
			typ++
		}
		e := s.MustNew(typ, ts, float64(r.Intn(xmod)))
		e.Seq = uint64(i + 1)
		evs = append(evs, e)
	}
	return evs
}

// EqChain is SEQ(A, B, ...) over n types where adjacent positions agree
// on the first attribute: the paper's Example 1 shape.
func EqChain(s *event.Schema, n int, window event.Time) *pattern.Pattern {
	return chain(s, n, window, -1, pattern.EQ)
}

// LTChain is SEQ(A, B, ...) where the first attribute strictly increases
// between adjacent positions, so a stream with it increasing matches
// densely and its mirror never; kleeneAt names a Kleene position (-1 for
// none).
func LTChain(s *event.Schema, n int, window event.Time, kleeneAt int) *pattern.Pattern {
	return chain(s, n, window, kleeneAt, pattern.LT)
}

func chain(s *event.Schema, n int, window event.Time, kleeneAt int, op pattern.CmpOp) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, window)
	for i := 0; i < n; i++ {
		b.Event(i)
	}
	if kleeneAt >= 0 {
		b.Kleene(kleeneAt)
	}
	for i := 0; i+1 < n; i++ {
		b.WherePred(pattern.Pred{L: i, R: i + 1, Op: op})
	}
	return b.MustBuild()
}

// eq is the predicate L.k == R.k + c.
func eq(l, r int, c float64) pattern.Pred {
	return pattern.Pred{L: l, R: r, AttrL: attrK, AttrR: attrK, Op: pattern.EQ, C: c}
}

// build declares types[i] at position i under op and adds the predicates;
// neg and kleene name one residual position each (-1 for none).
func build(s *event.Schema, op pattern.Op, window event.Time, types []int, neg, kleene int, preds ...pattern.Pred) *pattern.Pattern {
	b := pattern.NewBuilder(s, op, window)
	for _, t := range types {
		b.Event(t)
	}
	if neg >= 0 {
		b.Negate(neg)
	}
	if kleene >= 0 {
		b.Kleene(kleene)
	}
	for _, p := range preds {
		b.WherePred(p)
	}
	return b.MustBuild()
}

// KeyedCases returns the cases aimed at the partial-match store's equality
// index — key arithmetic, the two zeros, NaN and the infinities, several
// equalities on one join, residual positions — followed by keyed
// generator workloads. Every pattern carries at least one equality
// predicate between core positions, so some plan of it engages the index,
// and each runs under the emit filter too.
func KeyedCases() []Case {
	s3, s4 := Schema(3), Schema(4)
	ints := []float64{0, 1, 2, 3}
	negZero := math.Copysign(0, -1)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1}
	abc := []int{0, 1, 2}
	cases := []Case{
		{Name: "seq/c=0", Pat: build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Events: Stream(1, s3, 400, ints)},
		{Name: "seq/c=+1,-1", Pat: build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 1), eq(1, 2, -1)), Events: Stream(2, s3, 400, ints)},
		{Name: "seq/c=0.5", Pat: build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0.5), eq(2, 1, 0.5)), Events: Stream(3, s3, 400, []float64{0, 0.5, 1, 1.5, 2})},
		{Name: "seq/signed-zeros", Pat: build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Events: Stream(4, s3, 400, []float64{negZero, 0, 1, -1})},
		{Name: "seq/nan-inf", Pat: build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Events: Stream(5, s3, 400, special)},
		{Name: "seq/nan-inf/c=1", Pat: build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 1), eq(1, 2, 1)), Events: Stream(6, s3, 400, special)},
		{Name: "seq/two-eq-one-join", Pat: build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0),
			pattern.Pred{L: 0, R: 1, AttrL: attrV, AttrR: attrV, Op: pattern.EQ}, eq(1, 2, 0)), Events: Stream(7, s3, 400, ints)},
		{Name: "seq/eq-and-range", Pat: build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 2, 0),
			pattern.Pred{L: 0, R: 1, AttrL: attrV, AttrR: attrV, Op: pattern.LE}), Events: Stream(8, s3, 400, ints)},
		{Name: "and/c=0", Pat: build(s3, pattern.And, 30, abc, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Events: Stream(9, s3, 300, ints)},
		{Name: "and/nan-inf", Pat: build(s3, pattern.And, 30, abc, -1, -1, eq(0, 1, 0), eq(2, 1, 0)), Events: Stream(10, s3, 300, special)},
		{Name: "seq/type-twice", Pat: build(s3, pattern.Seq, 40, []int{0, 1, 0}, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Events: Stream(11, s3, 400, ints)},
		{Name: "and/type-twice", Pat: build(s3, pattern.And, 30, []int{0, 0, 1}, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Events: Stream(12, s3, 300, ints)},
		{Name: "seq/negation", Pat: build(s4, pattern.Seq, 40, []int{0, 3, 1, 2}, 1, -1, eq(0, 2, 0), eq(2, 3, 0), eq(1, 0, 0)), Events: Stream(13, s4, 400, ints)},
		{Name: "seq/kleene", Pat: build(s4, pattern.Seq, 40, []int{0, 3, 1, 2}, -1, 1, eq(0, 2, 0), eq(2, 3, 0), eq(1, 0, 0)), Events: Stream(14, s4, 400, ints)},
		{Name: "seq/size-4", Pat: build(s4, pattern.Seq, 40, []int{0, 1, 2, 3}, -1, -1, eq(0, 1, 0), eq(1, 2, 0), eq(2, 3, 0)), Events: Stream(15, s4, 400, ints)},
	}
	for i, kind := range []gen.Kind{gen.Sequence, gen.Conjunction, gen.Negation, gen.Kleene} {
		w := gen.Traffic(gen.TrafficConfig{Types: 5, Events: 800, Seed: int64(20 + i), Shifts: 1, MeanGap: 2, Keys: 3})
		pat, err := w.Pattern(kind, 3, 200)
		if err != nil {
			panic(err)
		}
		cases = append(cases, Case{Name: fmt.Sprintf("traffic/%v", kind), Pat: pat, Events: w.Events})
	}
	w := gen.Stocks(gen.StocksConfig{Types: 5, Events: 800, Seed: 31, MeanGap: 2, DriftEvery: 100, Keys: 3})
	pat, err := w.Pattern(gen.Sequence, 3, 200)
	if err != nil {
		panic(err)
	}
	cases = append(cases, Case{Name: "stocks/sequence", Pat: pat, Events: w.Events})
	for i := range cases {
		cases[i].Keyed, cases[i].EmitBefore = true, 150
	}
	return cases
}

// Keys renders matches as sorted strings of their events' sequence
// numbers, Kleene sets included: equal slices mean equal match multisets.
func Keys(ms []*match.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		var b strings.Builder
		b.WriteString(m.Key())
		for _, set := range m.Kleene {
			b.WriteByte('[')
			for _, ev := range set {
				fmt.Fprintf(&b, "%d,", ev.Seq)
			}
			b.WriteByte(']')
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return keys
}

// Work is what a differential test compares between an engine's indexed
// configuration and its single-bucket reference on one stream.
type Work struct {
	Keys                                               []string // Keys of the delivered matches
	PMCreated, PredEvals, Emitted, Dropped, Suppressed uint64
	Indexed                                            int // places keyed on an equality (0 in the reference)
}

// WorkOf packages a finished engine's sorted match keys and counters.
func WorkOf(keys []string, st match.Stats, indexed int) Work {
	return Work{Keys: keys, PMCreated: st.PMCreated, PredEvals: st.PredEvals,
		Emitted: st.Emitted, Dropped: st.Dropped, Suppressed: st.Suppressed, Indexed: indexed}
}

// RequireSameWork holds the indexed run against the single-bucket
// reference: the index is a pre-filter, so the same candidates pass —
// identical matches and partial-match counts — and strictly fewer are
// asked whenever some place is indexed.
func RequireSameWork(t testing.TB, label string, got, ref Work) {
	t.Helper()
	requireWork(t, label, got, ref, true)
}

// requireWork is RequireSameWork; strict=false only requires the indexed
// run to ask no more candidates, for streams too short to probe a key.
func requireWork(t testing.TB, label string, got, ref Work, strict bool) {
	t.Helper()
	if !reflect.DeepEqual(got.Keys, ref.Keys) {
		t.Fatalf("%s: indexed engine found %d matches, single-bucket reference %d", label, len(got.Keys), len(ref.Keys))
	}
	if got.PMCreated != ref.PMCreated || got.Emitted != ref.Emitted || got.Dropped != ref.Dropped || got.Suppressed != ref.Suppressed {
		t.Fatalf("%s: counters diverge: indexed %+v, single-bucket %+v", label, got, ref)
	}
	switch {
	case got.PredEvals > ref.PredEvals:
		t.Fatalf("%s: PredEvals %d indexed, %d single-bucket; the index asked more", label, got.PredEvals, ref.PredEvals)
	case !strict:
	case got.Indexed > 0 && got.PredEvals == ref.PredEvals:
		t.Fatalf("%s: %d indexed places but PredEvals %d, as single-bucket; want strictly lower", label, got.Indexed, got.PredEvals)
	case got.Indexed == 0 && got.PredEvals != ref.PredEvals:
		t.Fatalf("%s: nothing indexed but PredEvals %d, single-bucket %d", label, got.PredEvals, ref.PredEvals)
	}
}

// Permutations returns every ordering of ps.
func Permutations(ps []int) [][]int {
	if len(ps) <= 1 {
		return [][]int{append([]int(nil), ps...)}
	}
	var out [][]int
	for i := range ps {
		rest := append(append([]int(nil), ps[:i]...), ps[i+1:]...)
		for _, tail := range Permutations(rest) {
			out = append(out, append([]int{ps[i]}, tail...))
		}
	}
	return out
}

// Owner holds the events an engine under test points into, the way every
// owner of an engine does: one copy of each event in an arena of pooled
// blocks, released on the engine's Floor and on nothing else. A test that
// feeds through it holds Floor to its contract — a block comes back only
// once Floor has passed it, and under the race detector it comes back
// poisoned — and may reuse its own event at once.
type Owner struct {
	g    floored
	held match.Arena
}

// floored is an engine as the owner of its events' storage sees it.
type floored interface {
	Process(*event.Event)
	Floor() event.Time
}

// NewOwner returns the owner of the storage behind g's events.
func NewOwner(g floored) *Owner {
	o := &Owner{g: g}
	o.held.SetRecycle(true)
	return o
}

// Process copies ev into the owner's storage and feeds g the copy.
func (o *Owner) Process(ev *event.Event) {
	if o.held.Full() {
		o.held.Release(o.g.Floor())
	}
	o.g.Process(o.held.Intern(ev))
}

// Intact fails the test if m holds an event whose first attribute is not
// its sequence number, for streams written that way: a block reused under
// a match reads another event's values, a poisoned one NaN.
func Intact(tb testing.TB, m *match.Match) {
	tb.Helper()
	check := func(ev *event.Event) {
		if ev != nil && ev.Attrs[0] != float64(ev.Seq) {
			tb.Fatalf("match holds event %+v: its block was reused under it", *ev)
		}
	}
	for _, ev := range m.Events {
		check(ev)
	}
	for _, set := range m.Kleene {
		for _, ev := range set {
			check(ev)
		}
	}
}

// Reused is the caller's side of the ownership contract at its most
// hostile: every event reaches the system under test through one Event
// and one Attrs array, both overwritten — with values no stream carries —
// the moment Process returns.
type Reused struct{ ev event.Event }

// Feed hands process a scratch copy of src and scribbles over it after.
func (r *Reused) Feed(src *event.Event, process func(*event.Event)) {
	attrs := append(r.ev.Attrs[:0], src.Attrs...)
	r.ev = event.Event{Type: src.Type, TS: src.TS, Seq: src.Seq, Attrs: attrs}
	process(&r.ev)
	for k := range attrs {
		attrs[k] = math.NaN()
	}
	r.ev = event.Event{Type: -1, TS: math.MinInt64, Seq: math.MaxUint64, Attrs: attrs}
}

// Package matchtest holds the patterns and streams the two engine models'
// differential tests share: hand-built cases aimed at the partial-match
// store's equality index (key arithmetic, the two zeros, NaN and the
// infinities, several equalities on one join, residual positions) and
// keyed generator workloads. Each engine package runs them through its
// indexed and its single-bucket configuration and through the oracle.
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

// Case is one pattern with one stream to run it on.
type Case struct {
	Name   string
	Pat    *pattern.Pattern
	Events []event.Event
}

// Attribute indices of the hand-built cases' schema.
const (
	attrK = 0 // the join key
	attrV = 1 // a small integer payload
)

// Schema returns n event types A, B, ... carrying the attributes "k" (the
// join key of the hand-built cases) and "v" (a small integer).
func Schema(n int) *event.Schema {
	s := event.NewSchema()
	for i := 0; i < n; i++ {
		s.MustAddType(string(rune('A'+i)), "k", "v")
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

// KeyedCases returns the hand-built cases followed by keyed generator
// workloads. Every pattern carries at least one equality predicate
// between core positions, so some plan of it engages the index.
func KeyedCases() []Case {
	s3, s4 := Schema(3), Schema(4)
	ints := []float64{0, 1, 2, 3}
	negZero := math.Copysign(0, -1)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1}
	abc := []int{0, 1, 2}
	cases := []Case{
		{"seq/c=0", build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Stream(1, s3, 400, ints)},
		{"seq/c=+1,-1", build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 1), eq(1, 2, -1)), Stream(2, s3, 400, ints)},
		{"seq/c=0.5", build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0.5), eq(2, 1, 0.5)), Stream(3, s3, 400, []float64{0, 0.5, 1, 1.5, 2})},
		{"seq/signed-zeros", build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Stream(4, s3, 400, []float64{negZero, 0, 1, -1})},
		{"seq/nan-inf", build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Stream(5, s3, 400, special)},
		{"seq/nan-inf/c=1", build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 1), eq(1, 2, 1)), Stream(6, s3, 400, special)},
		{"seq/two-eq-one-join", build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 1, 0),
			pattern.Pred{L: 0, R: 1, AttrL: attrV, AttrR: attrV, Op: pattern.EQ}, eq(1, 2, 0)), Stream(7, s3, 400, ints)},
		{"seq/eq-and-range", build(s3, pattern.Seq, 40, abc, -1, -1, eq(0, 2, 0),
			pattern.Pred{L: 0, R: 1, AttrL: attrV, AttrR: attrV, Op: pattern.LE}), Stream(8, s3, 400, ints)},
		{"and/c=0", build(s3, pattern.And, 30, abc, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Stream(9, s3, 300, ints)},
		{"and/nan-inf", build(s3, pattern.And, 30, abc, -1, -1, eq(0, 1, 0), eq(2, 1, 0)), Stream(10, s3, 300, special)},
		{"seq/type-twice", build(s3, pattern.Seq, 40, []int{0, 1, 0}, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Stream(11, s3, 400, ints)},
		{"and/type-twice", build(s3, pattern.And, 30, []int{0, 0, 1}, -1, -1, eq(0, 1, 0), eq(1, 2, 0)), Stream(12, s3, 300, ints)},
		{"seq/negation", build(s4, pattern.Seq, 40, []int{0, 3, 1, 2}, 1, -1, eq(0, 2, 0), eq(2, 3, 0), eq(1, 0, 0)), Stream(13, s4, 400, ints)},
		{"seq/kleene", build(s4, pattern.Seq, 40, []int{0, 3, 1, 2}, -1, 1, eq(0, 2, 0), eq(2, 3, 0), eq(1, 0, 0)), Stream(14, s4, 400, ints)},
		{"seq/size-4", build(s4, pattern.Seq, 40, []int{0, 1, 2, 3}, -1, -1, eq(0, 1, 0), eq(1, 2, 0), eq(2, 3, 0)), Stream(15, s4, 400, ints)},
	}
	for i, kind := range []gen.Kind{gen.Sequence, gen.Conjunction, gen.Negation, gen.Kleene} {
		w := gen.Traffic(gen.TrafficConfig{Types: 5, Events: 800, Seed: int64(20 + i), Shifts: 1, MeanGap: 2, Keys: 3})
		pat, err := w.Pattern(kind, 3, 200)
		if err != nil {
			panic(err)
		}
		cases = append(cases, Case{fmt.Sprintf("traffic/%v", kind), pat, w.Events})
	}
	w := gen.Stocks(gen.StocksConfig{Types: 5, Events: 800, Seed: 31, MeanGap: 2, DriftEvery: 100, Keys: 3})
	pat, err := w.Pattern(gen.Sequence, 3, 200)
	if err != nil {
		panic(err)
	}
	return append(cases, Case{"stocks/sequence", pat, w.Events})
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

// Run is what a differential test compares between an engine's indexed
// configuration and its single-bucket reference on one stream.
type Run struct {
	Keys                                               []string // Keys of the delivered matches
	PMCreated, PredEvals, Emitted, Dropped, Suppressed uint64
	Indexed                                            int // places keyed on an equality (0 in the reference)
}

// RequireSameWork holds the indexed run against the single-bucket
// reference: the index is a pre-filter, so the same candidates pass —
// identical matches and partial-match counts — and strictly fewer are
// asked whenever some place is indexed.
func RequireSameWork(t testing.TB, label string, got, ref Run) {
	t.Helper()
	if !reflect.DeepEqual(got.Keys, ref.Keys) {
		t.Fatalf("%s: indexed engine found %d matches, single-bucket reference %d", label, len(got.Keys), len(ref.Keys))
	}
	if got.PMCreated != ref.PMCreated || got.Emitted != ref.Emitted || got.Dropped != ref.Dropped || got.Suppressed != ref.Suppressed {
		t.Fatalf("%s: counters diverge: indexed %+v, single-bucket %+v", label, got, ref)
	}
	switch {
	case got.Indexed > 0 && got.PredEvals >= ref.PredEvals:
		t.Fatalf("%s: %d indexed places but PredEvals %d, single-bucket %d; want strictly lower", label, got.Indexed, got.PredEvals, ref.PredEvals)
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

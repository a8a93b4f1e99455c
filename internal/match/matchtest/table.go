package matchtest

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// Engine is an evaluation engine as the table drives it; *nfa.Engine and
// *tree.Engine are both one.
type Engine interface {
	Process(*event.Event)
	Finish()
	Stats() match.Stats
	Floor() event.Time
	LivePMs() int
	HotTypes(mark []bool)
	HotKeys(key func(*event.Event) uint64, add func(uint64))
	SetEmitOnlyBefore(seq uint64)
	SetOwnedEmit(owned bool)
	Plan() plan.Plan
	Replan(p plan.Plan)
}

// Model is one evaluation model as its package hands it to the table.
type Model struct {
	// Tests names, for each test of the engine package that runs the
	// table, the groups it runs: a group is a case's name or a prefix of
	// it up to a slash ("chain4" runs chain4/0..4 and chain4/w80/0).
	// Every case of the table is in exactly one test's groups (Run).
	Tests map[string][]string
	// New builds an engine for pat under p; indexed=false is the model's
	// single-bucket reference.
	New func(pat *pattern.Pattern, p plan.Plan, emit func(*match.Match), indexed bool) Engine
	// Shapes lists every plan of the model that joins the positions in
	// this order: the order itself, or every binary tree whose leaves
	// read left to right are the order. Over every ordering of the core
	// positions these are every plan the model can run.
	Shapes func(order []int) []plan.Plan
	// Chain is the model's plan that joins the positions in this order:
	// the order itself, or the left-deep tree over it.
	Chain func(order []int) plan.Plan
	// Indexed reports, for each place of g in the model's own walk,
	// whether its plan keys the place on an equality predicate. A model
	// without it has no single-bucket reference: New's engine is held to
	// the oracle alone.
	Indexed func(g Engine) []bool
	// Churn checks g's places once pruned after the key-churn stream of
	// allocs/key-churn ran under Chain(order).
	Churn func(t testing.TB, g Engine, order []int, window event.Time)
	// Expect holds what the models report differently.
	Expect Expect

	// fresh is set on the re-planned configuration (replanned) only: the
	// model's own New, whose engines the re-planned ones are held to.
	fresh func(pat *pattern.Pattern, p plan.Plan, emit func(*match.Match), indexed bool) Engine
}

// Expect is what one model must report where the two differ.
type Expect struct {
	// Intro is what the introspection case reads before any event, after
	// its A and after its B.
	Intro [3]Look
	// ExpiredLive is LivePMs once the expiry case's last event has passed
	// every partial match's window.
	ExpiredLive int
	// Indexed is which places index-needs-equality's plan keys (Indexed).
	Indexed []bool
	// HotKeysAll: HotKeys reports every live partial match, not only
	// joined ones.
	HotKeysAll bool
}

// Look is what introspection reports at one point of a stream.
type Look struct {
	Live int      // LivePMs
	Hot  []int    // the types HotTypes marks, ascending
	Keys []uint64 // the keys HotKeys reports, ascending, without repeats
}

// Run runs the groups m.Tests names for the test t, each case a subtest,
// whose own subtest "replanned" runs the case again on re-planned engines
// (replanned). First it holds m.Tests to the table, so a case no test of
// the package runs, or two run, fails every test that runs the table.
func (m Model) Run(t *testing.T) {
	groups, ok := m.Tests[t.Name()]
	if !ok {
		t.Fatalf("the model's Tests do not name %s", t.Name())
	}
	in := func(sc scenario, g string) bool { return sc.name == g || strings.HasPrefix(sc.name, g+"/") }
	scs := scenarios()
	runs := map[string]int{}
	for test, gs := range m.Tests {
		for _, g := range gs {
			if !slices.ContainsFunc(scs, func(sc scenario) bool { return in(sc, g) }) {
				t.Fatalf("%s runs %q, which the table has no case of", test, g)
			}
			for _, sc := range scs {
				if in(sc, g) {
					runs[sc.name]++
				}
			}
		}
	}
	for _, sc := range scs {
		if runs[sc.name] != 1 {
			t.Fatalf("case %s is run by %d of the model's Tests; want 1", sc.name, runs[sc.name])
		}
	}
	rm := m.replanned()
	for _, sc := range scs {
		if slices.ContainsFunc(groups, func(g string) bool { return in(sc, g) }) {
			t.Run(sc.name, func(t *testing.T) {
				sc.run(m, t)
				t.Run("replanned", func(t *testing.T) { sc.run(rm, t) })
			})
		}
	}
}

// replanned is the model's re-planned configuration, which every case
// runs as well: New builds each engine on another plan of the pattern —
// the chain over the core positions reversed, or in declaration order if
// that is the plan asked for — under an emit filter, feeds it a prefix
// stream of its own (replanPrefix), and re-plans it in place to the plan
// asked for. A re-planned engine must be exactly the engine New builds:
// the cases' expected values hold on it unchanged, and m.run holds every
// counter it reports to a new engine's.
func (m Model) replanned() Model {
	fresh := m.New
	m.fresh = fresh
	m.New = func(pat *pattern.Pattern, p plan.Plan, emit func(*match.Match), indexed bool) Engine {
		rev := slices.Clone(pat.Core())
		slices.Reverse(rev)
		other := m.Chain(rev)
		if other.Equal(p) {
			other = m.Chain(pat.Core())
		}
		deliver := func(*match.Match) {}
		g := fresh(pat, other, func(mm *match.Match) { deliver(mm) }, indexed)
		prefix := replanPrefix(pat)
		g.SetEmitOnlyBefore(prefix[len(prefix)/2].Seq)
		for i := range prefix {
			g.Process(&prefix[i])
		}
		g.Replan(p)
		deliver = emit
		return g
	}
	return m
}

// replanPrefix is the stream a re-planned engine runs before it is
// re-planned: 200 events of the pattern's position types, a tick or two
// apart, with every attribute a predicate reads drawn from {0, 1, 2}, so
// that equalities hold often — keyed places fill several buckets — and
// negated and Kleene positions are buffered.
func replanPrefix(pat *pattern.Pattern) []event.Event {
	attrs := 2
	for _, pr := range pat.Preds {
		attrs = max(attrs, pr.AttrL+1, pr.AttrR+1)
	}
	r := rand.New(rand.NewSource(int64(len(pat.Positions))))
	evs := make([]event.Event, 200)
	var ts event.Time
	for i := range evs {
		ts += event.Time(1 + r.Intn(2))
		vals := make([]float64, attrs)
		for k := range vals {
			vals[k] = float64(r.Intn(3))
		}
		evs[i] = event.Event{Type: pat.Positions[r.Intn(len(pat.Positions))].Type, TS: ts, Seq: uint64(i + 1), Attrs: vals}
	}
	return evs
}

// scenario is one row of the table and the check it makes.
type scenario struct {
	name string
	run  func(Model, *testing.T)
}

// scenarios is the table: the oracle cases (Cases), the work cases, and
// the cases that script a stream event by event.
func scenarios() []scenario {
	var out []scenario
	for _, c := range Cases() {
		out = append(out, scenario{c.Name, func(m Model, t *testing.T) { m.requireOracle(t, c) }})
	}
	for _, w := range workCases() {
		out = append(out, scenario{w.name, func(m Model, t *testing.T) { m.requireCheaper(t, w) }})
	}
	return append(out,
		scenario{"work/look-back", Model.lookBack},
		scenario{"expiry", Model.expiry},
		scenario{"introspection", Model.introspection},
		scenario{"introspection/look-back", Model.introspectionLookBack},
		scenario{"stale-bound", Model.staleBound},
		scenario{"index-needs-equality", Model.indexNeedsEquality},
		scenario{"allocs/no-match", Model.allocsNoMatch},
		scenario{"allocs/matching", Model.allocsMatching},
		scenario{"allocs/kleene", Model.allocsKleene},
		scenario{"allocs/key-churn", Model.allocsKeyChurn},
	)
}

// Cases returns the table's oracle cases: hand-written streams with
// their matches pinned, seeded random trials of the chain, conjunction,
// negation and Kleene shapes, and KeyedCases.
func Cases() []Case {
	xs := []*event.Schema{nil, SchemaX(1), SchemaX(2), SchemaX(3), SchemaX(4)}
	ev := func(typ int, ts event.Time, seq uint64, x float64) event.Event {
		return event.Event{Type: typ, TS: ts, Seq: seq, Attrs: []float64{x}}
	}
	// Sixty events alternating A and B one tick apart, all at Seq 0.
	var seqZero []event.Event
	for i := range 60 {
		seqZero = append(seqZero, ev(i%2, event.Time(i+1), 0, 0))
	}
	cases := []Case{
		// SEQ(A,B,C) with person_id equality, the paper's Example 1: the
		// C of person 9 has no B.
		{Name: "paper-example", Pat: EqChain(xs[3], 3, 100), Events: []event.Event{
			ev(0, 10, 1, 7), ev(1, 20, 2, 7), ev(0, 25, 3, 9), ev(2, 30, 4, 7), ev(2, 40, 5, 9),
		}, Matches: []string{"1,2,4,"}},
		// The window bounds a match's span inclusively: 51 apart is out,
		// 30 and exactly 50 apart are in.
		{Name: "window", Pat: EqChain(xs[2], 2, 50), Events: []event.Event{
			ev(0, 10, 1, 1), ev(1, 61, 2, 1), ev(0, 70, 3, 1), ev(1, 100, 4, 1), ev(0, 110, 5, 1), ev(1, 160, 6, 1),
		}, Matches: []string{"3,4,", "5,6,"}},
		{Name: "single-position", Pat: EqChain(xs[1], 1, 100), Events: []event.Event{
			ev(0, 1, 1, 0), ev(0, 2, 2, 0),
		}, Matches: []string{"1,", "2,"}},
		// SEQ(A, A): an event fills one position of a match, so only the
		// three ordered pairs of distinct events match.
		{Name: "identity/type-twice", Pat: build(xs[1], pattern.Seq, 100, []int{0, 0}, -1, -1), Events: []event.Event{
			ev(0, 10, 1, 0), ev(0, 20, 2, 0), ev(0, 30, 3, 0),
		}, Matches: []string{"1,2,", "1,3,", "2,3,"}},
		// Distinct events are distinct with one Seq too: each A pairs with
		// the Bs 1, 3 and 5 ticks later.
		{Name: "identity/seq-zero", Pat: build(xs[2], pattern.Seq, 6, []int{0, 1}, -1, -1), Events: seqZero,
			Matches: slices.Repeat([]string{"0,0,"}, 28*3+2+1)},
		// Unordered, each A pairs with the Bs 1, 3 and 5 ticks before and
		// after it, nine fewer at the stream's ends.
		{Name: "identity/seq-zero-and", Pat: build(xs[2], pattern.And, 6, []int{0, 1}, -1, -1), Events: seqZero,
			Matches: slices.Repeat([]string{"0,0,"}, 30*6-9)},
		// Of (1,2), (1,4) and (3,4), the filter at 3 withholds (3,4).
		{Name: "emit-filter", Pat: EqChain(xs[2], 2, 100), Events: []event.Event{
			ev(0, 10, 1, 1), ev(1, 20, 2, 1), ev(0, 30, 3, 1), ev(1, 40, 4, 1),
		}, Matches: []string{"1,2,", "1,4,", "3,4,"}, EmitBefore: 3, Suppressed: 1},
	}
	// n streams from one seed over the schema of len(weights) types.
	trials := func(name string, pat *pattern.Pattern, seed int64, n int, weights []int, count, xmod int, gap event.Time) {
		r := rand.New(rand.NewSource(seed))
		for i := range n {
			cases = append(cases, Case{Name: fmt.Sprintf("%s/%d", name, i), Pat: pat,
				Events: Weighted(r, xs[len(weights)], weights, count, xmod, gap)})
		}
	}
	trials("chain3", EqChain(xs[3], 3, 60), 99, 10, []int{3, 2, 1}, 120, 3, 4)
	trials("chain4", EqChain(xs[4], 4, 60), 41, 5, []int{2, 2, 1, 1}, 110, 2, 4)
	trials("chain4/w80", EqChain(xs[4], 4, 80), 71, 1, []int{1, 1, 1, 1}, 140, 2, 3)
	trials("and3", build(xs[3], pattern.And, 60, []int{0, 1, 2}, -1, -1, eq(0, 1, 0)), 7, 6, []int{2, 2, 1}, 90, 3, 4)
	trials("negation", build(xs[3], pattern.Seq, 60, []int{0, 1, 2}, 1, -1, eq(1, 0, 0)), 13, 8, []int{2, 1, 2}, 100, 2, 4)
	trials("kleene", build(xs[3], pattern.Seq, 60, []int{0, 1, 2}, -1, 1, eq(1, 0, 0)), 21, 8, []int{1, 3, 1}, 100, 2, 4)
	for _, c := range KeyedCases() {
		c.Name = "keyed/" + c.Name
		cases = append(cases, c)
	}
	return cases
}

// run drives one configuration of the model over the stream; emitBefore,
// when set, turns the emit filter on. Stats().Emitted must count the
// matches delivered. Re-planned, the engine must do a new engine's work
// exactly.
func (m Model) run(t testing.TB, pat *pattern.Pattern, p plan.Plan, evs []event.Event, indexed bool, emitBefore uint64) Work {
	t.Helper()
	if m.fresh != nil {
		want := Model{New: m.fresh, Indexed: m.Indexed}.run(t, pat, p, evs, indexed, emitBefore)
		got := Model{New: m.New, Indexed: m.Indexed}.run(t, pat, p, evs, indexed, emitBefore)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v on %v re-planned: %+v; a new engine: %+v", p, pat, got, want)
		}
		return got
	}
	var out []*match.Match
	g := m.New(pat, p, func(mm *match.Match) { out = append(out, mm) }, indexed)
	if emitBefore > 0 {
		g.SetEmitOnlyBefore(emitBefore)
	}
	for i := range evs {
		g.Process(&evs[i])
	}
	g.Finish()
	if st := g.Stats(); st.Emitted != uint64(len(out)) {
		t.Fatalf("%v on %v: Stats().Emitted = %d, %d matches delivered", p, pat, st.Emitted, len(out))
	}
	places := 0
	if indexed {
		for _, on := range m.Indexed(g) {
			if on {
				places++
			}
		}
	}
	return WorkOf(Keys(out), g.Stats(), places)
}

// requirePlan runs pat over evs under p, single-bucket and indexed: the
// reference must find want, the oracle's matches, and the indexed engine
// do its work (RequireSameWork when strict, else no more predicate
// evaluations). It returns both runs; a model without Indexed runs once.
func (m Model) requirePlan(t testing.TB, pat *pattern.Pattern, p plan.Plan, evs []event.Event, want []string, strict bool) (ref, got Work) {
	t.Helper()
	ref = m.run(t, pat, p, evs, false, 0)
	if !reflect.DeepEqual(ref.Keys, want) {
		if len(want)+len(ref.Keys) > 32 {
			t.Fatalf("%v on %v: single-bucket engine found %d matches, oracle %d", p, pat, len(ref.Keys), len(want))
		}
		t.Fatalf("%v on %v: single-bucket engine found %v, oracle %v", p, pat, ref.Keys, want)
	}
	if m.Indexed == nil {
		return ref, ref
	}
	got = m.run(t, pat, p, evs, true, 0)
	requireWork(t, fmt.Sprintf("%v on %v", p, pat), got, ref, strict)
	return ref, got
}

// plans lists every plan of the model over the core positions, the
// declaration-order one first.
func (m Model) plans(core []int) []plan.Plan {
	var out []plan.Plan
	for _, order := range Permutations(core) {
		out = append(out, m.Shapes(order)...)
	}
	return out
}

// requireOracle holds every plan of the model to the oracle on c, the
// indexed engine to its single-bucket reference, and the first plan to
// the emit filter when c sets one.
func (m Model) requireOracle(t *testing.T, c Case) {
	oms := oracle.Matches(c.Pat, c.Events)
	want := Keys(oms)
	if len(want) == 0 {
		t.Fatalf("%s: oracle found no matches; the case is vacuous", c.Name)
	}
	if c.Matches != nil && !reflect.DeepEqual(want, c.Matches) {
		t.Fatalf("%s: oracle found %v, the case pins %v", c.Name, want, c.Matches)
	}
	plans := m.plans(c.Pat.Core())
	var first Work // the first plan's single-bucket run
	engaged := false
	for i, p := range plans {
		ref, got := m.requirePlan(t, c.Pat, p, c.Events, want, c.Keyed)
		engaged = engaged || got.Indexed > 0
		if i == 0 {
			first = ref
		}
	}
	if c.Keyed && !engaged {
		t.Fatalf("%s: no plan engaged the index", c.Name)
	}
	if c.EmitBefore == 0 {
		return
	}
	var kept []*match.Match
	for _, om := range oms {
		if slices.ContainsFunc(om.Events, func(e *event.Event) bool { return e != nil && e.Seq < c.EmitBefore }) {
			kept = append(kept, om)
		}
	}
	ref := m.run(t, c.Pat, plans[0], c.Events, false, c.EmitBefore)
	label := fmt.Sprintf("%s %v emit-before %d", c.Name, plans[0], c.EmitBefore)
	switch {
	case !reflect.DeepEqual(ref.Keys, Keys(kept)):
		t.Fatalf("%s: %d matches, oracle %d with a core event before it", label, len(ref.Keys), len(kept))
	case ref.Suppressed == 0:
		t.Fatalf("%s: the filter suppressed nothing", label)
	case ref.Suppressed+ref.Emitted+ref.Dropped != first.Emitted+first.Dropped:
		t.Fatalf("%s: %d suppressed, %d emitted and %d dropped; unfiltered, %d core-complete", label, ref.Suppressed, ref.Emitted, ref.Dropped, first.Emitted+first.Dropped)
	case c.Suppressed > 0 && ref.Suppressed != c.Suppressed:
		t.Fatalf("%s: Suppressed = %d; want %d", label, ref.Suppressed, c.Suppressed)
	}
	requireWork(t, label, m.run(t, c.Pat, plans[0], c.Events, true, c.EmitBefore), ref, c.Keyed)
}

// workCase says that joining in order cheap creates fewer partial
// matches than in order dear, for the same matches: skewed rates make the
// plan matter, the quantity the planners minimise.
type workCase struct {
	name        string
	pat         *pattern.Pattern
	events      []event.Event
	cheap, dear []int
}

func workCases() []workCase {
	x3, x4 := SchemaX(3), SchemaX(4)
	and4 := build(x4, pattern.And, 100, []int{0, 1, 2, 3}, -1, -1)
	return []workCase{
		{"work/seq-rare-first", EqChain(x3, 3, 200), Weighted(rand.New(rand.NewSource(5)), x3, []int{20, 4, 1}, 2000, 2, 2),
			[]int{2, 1, 0}, []int{0, 1, 2}},
		{"work/and-rare-first", and4, Weighted(rand.New(rand.NewSource(61)), x4, []int{10, 10, 1, 1}, 1500, 2, 2),
			[]int{2, 3, 0, 1}, []int{0, 1, 2, 3}},
	}
}

func (m Model) requireCheaper(t *testing.T, w workCase) {
	run := func(order []int) match.Stats {
		var delivered uint64
		g := m.New(w.pat, m.Chain(order), func(*match.Match) { delivered++ }, true)
		g.SetOwnedEmit(true)
		for i := range w.events {
			g.Process(&w.events[i])
		}
		g.Finish()
		if st := g.Stats(); st.Emitted != delivered {
			t.Fatalf("%s joining %v: Stats().Emitted = %d, %d matches delivered", w.name, order, st.Emitted, delivered)
		}
		return g.Stats()
	}
	cheap, dear := run(w.cheap), run(w.dear)
	if cheap.Emitted == 0 || cheap.Emitted != dear.Emitted {
		t.Fatalf("%s: %d matches joining %v, %d joining %v; want the same, some", w.name, cheap.Emitted, w.cheap, dear.Emitted, w.dear)
	}
	if cheap.PMCreated >= dear.PMCreated {
		t.Fatalf("%s: %d partial matches joining %v, %d joining %v; want fewer", w.name, cheap.PMCreated, w.cheap, dear.PMCreated, w.dear)
	}
}

// lookBack joins SEQ(A, B, C) with a.x < b.x < c.x in the order A, C, B:
// an arriving B would have to precede the C each partial match (or tuple)
// it meets holds, and the engines offer it to none, where each meeting
// would first have evaluated a.x < b.x. The matches are the oracle's, and
// both models evaluate predicates only where an A, C pair meets an earlier
// B: 4993 times, where offering each arriving B too made it 8564.
func (m Model) lookBack(t *testing.T) {
	s := SchemaX(3)
	pat := LTChain(s, 3, 30, -1)
	evs := Weighted(rand.New(rand.NewSource(17)), s, []int{2, 2, 1}, 600, 6, 2)
	want := Keys(oracle.Matches(pat, evs))
	var out []*match.Match
	g := m.New(pat, m.Chain([]int{0, 2, 1}), func(mm *match.Match) { out = append(out, mm) }, true)
	for i := range evs {
		g.Process(&evs[i])
	}
	g.Finish()
	if got := Keys(out); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("joining A, C, B: %d matches, oracle %d", len(got), len(want))
	}
	if got := g.Stats().PredEvals; got != 4993 {
		t.Fatalf("joining A, C, B: %d predicate evaluations; want 4993", got)
	}
}

// expiry: a burst of five As pairs with a B inside the window, and a B
// long past it meets none of them; the expired partial matches are gone
// once it passes.
func (m Model) expiry(t *testing.T) {
	s := SchemaX(2)
	matches := 0
	g := m.New(EqChain(s, 2, 10), m.Chain([]int{0, 1}), func(*match.Match) { matches++ }, true)
	var seq uint64
	feed := func(typ int, ts event.Time) {
		seq++
		e := s.MustNew(typ, ts, 1)
		e.Seq = seq
		g.Process(&e)
	}
	for ts := event.Time(1); ts <= 5; ts++ {
		feed(0, ts)
	}
	if st := g.Stats(); st.PMCreated != 5 || st.LivePMs != 5 || g.LivePMs() != 5 {
		t.Fatalf("after five As: %+v, LivePMs %d; want 5 created and live", st, g.LivePMs())
	}
	feed(1, 6)
	if matches != 5 {
		t.Fatalf("%d matches after a B inside the window; want 5", matches)
	}
	feed(1, 500)
	g.Finish()
	if matches != 5 {
		t.Fatal("an expired partial match paired with the late B")
	}
	if st := g.Stats(); st.LivePMs != m.Expect.ExpiredLive || st.PredEvals == 0 || st.Emitted != 5 {
		t.Fatalf("after expiry: %+v; want %d live, predicates counted and 5 emitted", st, m.Expect.ExpiredLive)
	}
	if g.Plan() == nil {
		t.Fatal("Plan() nil")
	}
}

// introspection drives SEQ(A, B, C) in declaration order through an A
// and a B of one key and reads the shedding hooks after each.
func (m Model) introspection(t *testing.T) {
	s := SchemaX(3)
	g := m.New(EqChain(s, 3, 100), m.Chain([]int{0, 1, 2}), func(*match.Match) {}, true)
	look := func() Look {
		l := Look{Live: g.LivePMs()}
		mark := make([]bool, 3)
		g.HotTypes(mark)
		for typ, hot := range mark {
			if hot {
				l.Hot = append(l.Hot, typ)
			}
		}
		g.HotKeys(func(ev *event.Event) uint64 { return uint64(ev.Attrs[0]) }, func(k uint64) {
			if !slices.Contains(l.Keys, k) {
				l.Keys = append(l.Keys, k)
			}
		})
		slices.Sort(l.Keys)
		return l
	}
	got := [3]Look{look()}
	for i, typ := range []int{0, 1} {
		e := s.MustNew(typ, event.Time(10*(i+1)), 7)
		e.Seq = uint64(i + 1)
		g.Process(&e)
		got[i+1] = look()
	}
	if !reflect.DeepEqual(got, m.Expect.Intro) {
		t.Fatalf("introspection before any event, after A, after B: %+v; want %+v", got, m.Expect.Intro)
	}
}

// introspectionLookBack joins SEQ(A, B) in the order B, A. No arriving A
// extends the B parked after one B — it would have to precede it — yet
// HotTypes marks A: an A kept now is what the next B's scan of the
// history finds, and the pattern-aware shedder loses recall without it
// (DESIGN.md, the offer rule).
func (m Model) introspectionLookBack(t *testing.T) {
	s := SchemaX(2)
	g := m.New(EqChain(s, 2, 100), m.Chain([]int{1, 0}), func(*match.Match) {}, true)
	e := s.MustNew(1, 10, 7)
	e.Seq = 1
	g.Process(&e)
	mark := make([]bool, 2)
	g.HotTypes(mark)
	if g.LivePMs() != 1 || !mark[0] || mark[1] {
		t.Fatalf("after one B under order B, A: %d live, hot %v; want 1 live and A hot", g.LivePMs(), mark)
	}
}

// staleBound pins what LivePMs and HotKeys may report on indexed places:
// every A carries a key of its own and every B one no A has, so no bucket
// holding a partial match is ever probed and nothing but the prune
// reclaims them. One that expired is still counted, but only until the
// next prune — never more than half a window past its expiry.
func (m Model) staleBound(t *testing.T) {
	s := SchemaX(3)
	const window = 100
	g := m.New(EqChain(s, 3, window), m.Chain([]int{0, 1, 2}), func(*match.Match) {}, true)
	created := []uint64{0} // created[ts]: PMCreated once the event at ts is in
	at := func(ts event.Time) int { return int(created[max(ts, 0)]) }
	sawStale := false
	for ts := event.Time(1); ts <= 1000; ts++ {
		e := s.MustNew(int(ts%2), ts, float64(ts)*float64(1-2*(ts%2)))
		e.Seq = uint64(ts)
		g.Process(&e)
		created = append(created, g.Stats().PMCreated)
		stale := g.LivePMs() - (at(ts) - at(ts-window-1))
		if bound := at(ts-window-1) - at(ts-window-window/2-1); stale < 0 || stale > bound {
			t.Fatalf("at ts %d LivePMs = %d: %d expired ones counted, want 0..%d (those at most half a window past expiry)", ts, g.LivePMs(), stale, bound)
		}
		sawStale = sawStale || stale > 0
		reported := 0
		g.HotKeys(func(ev *event.Event) uint64 { return uint64(ev.TS) }, func(first uint64) {
			reported++
			if age := ts - event.Time(first); age > window+window/2 {
				t.Fatalf("at ts %d a partial match from %d is still reported: %d past its expiry, want <= %d", ts, first, age-window, window/2)
			}
		})
		if m.Expect.HotKeysAll && reported != g.LivePMs() {
			t.Fatalf("at ts %d HotKeys reported %d partial matches, LivePMs %d", ts, reported, g.LivePMs())
		}
	}
	if !sawStale {
		t.Fatal("no expired partial match was ever counted; the bound was not exercised")
	}
}

// indexNeedsEquality: a place is keyed only where an equality joins it
// to what probes it. SEQ(A,B,C) with a.k=b.k and b.k=c.k implies a.k=c.k,
// but joining A with C first puts no predicate between them.
func (m Model) indexNeedsEquality(t *testing.T) {
	pat := build(Schema(3), pattern.Seq, 40, []int{0, 1, 2}, -1, -1, eq(0, 1, 0), eq(1, 2, 0))
	g := m.New(pat, m.Chain([]int{0, 2, 1}), func(*match.Match) {}, true)
	if got := m.Indexed(g); !reflect.DeepEqual(got, m.Expect.Indexed) {
		t.Fatalf("places keyed joining A, C, B: %v; want %v", got, m.Expect.Indexed)
	}
}

// stepper feeds batches of round-robin-typed events A, B, C to an engine
// through the owner of their storage (Owner: one copy of each event, in
// blocks reused behind the engine's Floor — so the allocation cases also
// hold Floor to its contract), reusing one event struct. sign picks
// x = Seq, increasing and matching an LTChain — what Intact checks in
// every delivered match — or x = −Seq, decreasing and never matching.
type stepper struct {
	o    *Owner
	ev   event.Event
	seq  uint64
	sign float64
}

func newStepper(g Engine, sign float64) *stepper {
	return &stepper{o: NewOwner(g), ev: event.Event{Attrs: make([]float64, 1)}, sign: sign}
}

func (s *stepper) run(events int) {
	for range events {
		s.seq++
		s.ev.Type = int(s.seq) % 3
		s.ev.TS = event.Time(s.seq)
		s.ev.Seq = s.seq
		s.ev.Attrs[0] = s.sign * float64(s.seq)
		s.o.Process(&s.ev)
	}
}

// allocsNoMatch: after warm-up, a stream that never matches drives the
// hot path — dispatch, partial-match creation, extension attempts,
// history appends, pruning — and its owner's interning and block turnover
// with no heap allocation at all. Any new per-event allocation fails it.
func (m Model) allocsNoMatch(t *testing.T) {
	g := m.New(LTChain(SchemaX(3), 3, 60, -1), m.Chain([]int{0, 1, 2}), func(*match.Match) {
		t.Fatal("no-match stream produced a match")
	}, true)
	g.SetOwnedEmit(true)
	st := newStepper(g, -1)
	st.run(20000) // reach steady state: buffers, places and blocks at capacity
	if allocs := testing.AllocsPerRun(10, func() { st.run(2000) }); allocs != 0 {
		t.Fatalf("steady-state no-match Process allocated %.2f times per 2000-event run; want 0", allocs)
	}
}

// allocsBounded holds a densely matching stream (every in-window
// combination completes) to a small constant allocation budget per event
// in owned-emit mode: completion, residual resolution and emission run
// off pools.
func (m Model) allocsBounded(t *testing.T, pat *pattern.Pattern, order []int, check func(*match.Match)) {
	var matches uint64
	g := m.New(pat, m.Chain(order), func(mm *match.Match) {
		matches++
		Intact(t, mm)
		check(mm)
	}, true)
	g.SetOwnedEmit(true)
	st := newStepper(g, 1)
	st.run(20000)
	if matches == 0 {
		t.Fatal("matching stream produced no matches; the bound would be vacuous")
	}
	const perRun = 2000
	allocs := testing.AllocsPerRun(10, func() { st.run(perRun) })
	if perEvent := allocs / perRun; perEvent > 0.05 {
		t.Fatalf("steady-state matching Process allocated %.4f/event; want <= 0.05", perEvent)
	}
}

func (m Model) allocsMatching(t *testing.T) {
	m.allocsBounded(t, LTChain(SchemaX(3), 3, 24, -1), []int{0, 1, 2}, func(*match.Match) {})
}

// allocsKleene exercises the residual path: Kleene resolution parks
// matches, scans residual buffers and emits Kleene sets, all from the
// resolver's pools in owned mode.
func (m Model) allocsKleene(t *testing.T) {
	m.allocsBounded(t, LTChain(SchemaX(3), 3, 24, 1), []int{0, 2}, func(mm *match.Match) {
		if mm.Kleene == nil || len(mm.Kleene[1]) == 0 {
			t.Fatal("kleene match without a set")
		}
	})
}

// allocsKeyChurn: the equality index under key churn. The pattern joins
// on a key every place is keyed on (and on an x ordering the stream never
// satisfies, so nothing matches); each key lives for three events and
// never returns — over 100,000 distinct keys across the run. Buckets come
// and go with their keys, so the steady state allocates nothing, in the
// declaration order and its reverse; Model.Churn then bounds the buckets.
func (m Model) allocsKeyChurn(t *testing.T) {
	s := schema(3, "x", "k")
	const window = 60
	b := pattern.NewBuilder(s, pattern.Seq, window)
	for i := range 3 {
		b.Event(i)
	}
	for i := 0; i+1 < 3; i++ {
		b.WherePred(pattern.Pred{L: i, R: i + 1, AttrL: 1, AttrR: 1, Op: pattern.EQ})
		b.WherePred(pattern.Pred{L: i, R: i + 1, AttrL: 0, AttrR: 0, Op: pattern.LT})
	}
	pat := b.MustBuild()
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		g := m.New(pat, m.Chain(order), func(*match.Match) {
			t.Fatal("no-match stream produced a match")
		}, true)
		g.SetOwnedEmit(true)
		o := NewOwner(g)
		ev := event.Event{Attrs: make([]float64, 2)}
		var seq uint64
		run := func(events int) {
			for range events {
				ev.Type = int(seq % 3)
				ev.Attrs[1] = float64(seq / 3) // the key: one A, B and C each
				seq++
				ev.TS = event.Time(seq)
				ev.Seq = seq
				ev.Attrs[0] = -float64(seq)
				o.Process(&ev)
			}
		}
		run(250000)
		before := g.Stats().PredEvals
		if allocs := testing.AllocsPerRun(10, func() { run(5000) }); allocs != 0 {
			t.Fatalf("order %v: steady-state Process under key churn allocated %.2f times per 5000-event run; want 0", order, allocs)
		}
		if seq/3 < 100000 {
			t.Fatalf("order %v: only %d distinct keys over the run; want 100000", order, seq/3)
		}
		// An event meets only the partial matches of its own key: two
		// predicate evaluations per three events, where a single bucket
		// asked every one in the window.
		if per := float64(g.Stats().PredEvals-before) / 55000; per > 1 {
			t.Fatalf("order %v: %.2f predicate evaluations per event; the index is not selecting", order, per)
		}
		m.Churn(t, g, order, window)
	}
}

// BenchProcess measures event processing on a size-4 SEQ chain over
// skewed rates, joining the rare types first and the frequent ones first:
// the cost gap plan quality makes, the quantity adaptation optimises.
// EqChain's small key buckets keep most arrivals from meeting a partial
// match at all; the lt-chain cases, an LTChain with nothing to key on,
// join under plans whose every later place looks back, so an engine that
// offered each arrival there would meet every partial match in the
// window. Rare-first checks the order relation first; last-first, the
// shape of the greedy planner's orders on skewed traffic, would evaluate
// a predicate against an earlier position before it.
func (m Model) BenchProcess(b *testing.B) {
	s := SchemaX(4)
	r := rand.New(rand.NewSource(1))
	eqEvs := Weighted(r, s, []int{12, 6, 2, 1}, 50000, 3, 2)
	ltEvs := Weighted(r, s, []int{12, 6, 2, 1}, 50000, 8, 2)
	eq, lt := EqChain(s, 4, 100), LTChain(s, 4, 100, -1)
	for _, tc := range []struct {
		name  string
		pat   *pattern.Pattern
		evs   []event.Event
		order []int
	}{
		{"rare-first", eq, eqEvs, []int{3, 2, 1, 0}},
		{"frequent-first", eq, eqEvs, []int{0, 1, 2, 3}},
		{"lt-chain/rare-first", lt, ltEvs, []int{3, 2, 1, 0}},
		{"lt-chain/last-first", lt, ltEvs, []int{3, 0, 1, 2}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var evals uint64
			for range b.N {
				g := m.New(tc.pat, m.Chain(tc.order), func(*match.Match) {}, true)
				for j := range tc.evs {
					g.Process(&tc.evs[j])
				}
				g.Finish()
				evals = g.Stats().PredEvals
			}
			b.SetBytes(int64(len(tc.evs)))
			b.ReportMetric(float64(evals)/float64(len(tc.evs)), "pred-evals/event")
		})
	}
}

// BenchKeyed measures the equality index: SEQ of three over keyed traffic
// shaped like the cost ladder's stream K (ten Zipf-rated types, window
// 2400), joined in declaration order, with the key domain swept from one
// key — every partial match in one bucket, the single-bucket store's
// cost — up to more keys than a window holds events. No workload of the
// repository's benchmark runs the tree on a keyed stream, so this is where
// the tree's share of the gain is measured.
func (m Model) BenchKeyed(b *testing.B) {
	for _, keys := range []int{1, 8, 64, 4096} {
		w := gen.Traffic(gen.TrafficConfig{Types: 10, Events: 50000, Seed: 1, Keys: keys})
		pat, err := w.Pattern(gen.Sequence, 3, 2400)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			var evals uint64
			for range b.N {
				g := m.New(pat, m.Chain(pat.Core()), func(*match.Match) {}, true)
				g.SetOwnedEmit(true)
				for j := range w.Events {
					g.Process(&w.Events[j])
				}
				g.Finish()
				evals = g.Stats().PredEvals
			}
			n := float64(len(w.Events))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
			b.ReportMetric(float64(evals)/n, "pred-evals/event")
		})
	}
}

package tree

import (
	"math/rand"
	"reflect"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/nfa"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
)

func mkSchema(n int) *event.Schema {
	s := event.NewSchema()
	for i := 0; i < n; i++ {
		s.MustAddType(string(rune('A'+i)), "x")
	}
	return s
}

func genStream(r *rand.Rand, s *event.Schema, weights []int, count, xmod int, gap event.Time) []event.Event {
	total := 0
	for _, w := range weights {
		total += w
	}
	var evs []event.Event
	ts := event.Time(0)
	var seq uint64
	for i := 0; i < count; i++ {
		ts += event.Time(1 + r.Intn(int(gap)))
		pick := r.Intn(total)
		typ := 0
		for pick >= weights[typ] {
			pick -= weights[typ]
			typ++
		}
		e := s.MustNew(typ, ts, float64(r.Intn(xmod)))
		seq++
		e.Seq = seq
		evs = append(evs, e)
	}
	return evs
}

func seqChainPattern(s *event.Schema, n int, window event.Time) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, window)
	for i := 0; i < n; i++ {
		b.Event(i)
	}
	for i := 0; i+1 < n; i++ {
		b.WherePred(pattern.Pred{L: i, R: i + 1, AttrL: 0, AttrR: 0, Op: pattern.EQ})
	}
	return b.MustBuild()
}

func runTree(pat *pattern.Pattern, tp *plan.TreePlan, evs []event.Event) ([]*match.Match, match.Stats) {
	var out []*match.Match
	g := New(pat, tp, func(m *match.Match) { out = append(out, m) })
	for i := range evs {
		g.Process(&evs[i])
	}
	g.Finish()
	return out, g.Stats()
}

// allShapes3 enumerates the tree shapes over positions {0,1,2} in order.
func allShapes3() []*plan.TreePlan {
	return []*plan.TreePlan{
		plan.NewTreePlan(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2))),
		plan.NewTreePlan(plan.Join(plan.Leaf(0), plan.Join(plan.Leaf(1), plan.Leaf(2)))),
	}
}

func TestTreePaperExample(t *testing.T) {
	s := mkSchema(3)
	pat := seqChainPattern(s, 3, 100)
	evs := []event.Event{
		{Type: 0, TS: 10, Seq: 1, Attrs: []float64{7}},
		{Type: 1, TS: 20, Seq: 2, Attrs: []float64{7}},
		{Type: 0, TS: 25, Seq: 3, Attrs: []float64{9}},
		{Type: 2, TS: 30, Seq: 4, Attrs: []float64{7}},
		{Type: 2, TS: 40, Seq: 5, Attrs: []float64{9}},
	}
	for _, tp := range allShapes3() {
		out, _ := runTree(pat, tp, evs)
		if len(out) != 1 {
			t.Fatalf("%v: %d matches; want 1", tp, len(out))
		}
		m := out[0]
		if m.Events[0].Seq != 1 || m.Events[1].Seq != 2 || m.Events[2].Seq != 4 {
			t.Fatalf("%v: wrong match %v", tp, m)
		}
	}
}

func TestTreeAllShapesAgreeWithOracle(t *testing.T) {
	s := mkSchema(3)
	pat := seqChainPattern(s, 3, 60)
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		evs := genStream(r, s, []int{3, 2, 1}, 120, 3, 4)
		want := oracle.Keys(oracle.Matches(pat, evs))
		for _, tp := range allShapes3() {
			out, _ := runTree(pat, tp, evs)
			if got := oracle.Keys(out); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v: got %d matches, oracle %d", trial, tp, len(got), len(want))
			}
		}
	}
}

func TestTreeMatchesNFA(t *testing.T) {
	// Cross-engine equivalence on conjunctions, negation and Kleene.
	s := mkSchema(4)
	r := rand.New(rand.NewSource(41))

	build := func(f func(b *pattern.Builder)) *pattern.Pattern {
		b := pattern.NewBuilder(s, pattern.Seq, 60)
		f(b)
		return b.MustBuild()
	}
	pats := []*pattern.Pattern{
		seqChainPattern(s, 4, 60),
		build(func(b *pattern.Builder) { // negation
			b.Event(0)
			n := b.Event(1)
			b.Event(2)
			b.Negate(n)
			b.WherePred(pattern.Pred{L: n, R: 0, Op: pattern.EQ})
		}),
		build(func(b *pattern.Builder) { // kleene
			b.Event(0)
			k := b.Event(1)
			b.Event(2)
			b.Kleene(k)
			b.WherePred(pattern.Pred{L: k, R: 0, Op: pattern.EQ})
		}),
	}
	for pi, pat := range pats {
		core := pat.Core()
		// NFA in declaration order; tree left-deep over core positions.
		op := plan.NewOrderPlan(core)
		node := plan.Leaf(core[0])
		for _, p := range core[1:] {
			node = plan.Join(node, plan.Leaf(p))
		}
		tp := plan.NewTreePlan(node)
		for trial := 0; trial < 5; trial++ {
			evs := genStream(r, s, []int{2, 2, 1, 1}, 110, 2, 4)
			var nfaOut []*match.Match
			ng := nfa.New(pat, op, func(m *match.Match) { nfaOut = append(nfaOut, m) })
			for i := range evs {
				ng.Process(&evs[i])
			}
			ng.Finish()
			treeOut, _ := runTree(pat, tp, evs)
			if !reflect.DeepEqual(oracle.Keys(treeOut), oracle.Keys(nfaOut)) {
				t.Fatalf("pattern %d trial %d: tree %d matches, nfa %d",
					pi, trial, len(treeOut), len(nfaOut))
			}
		}
	}
}

func TestTreeShapeAffectsWork(t *testing.T) {
	// Join the two rare types first -> fewer intermediate tuples than
	// joining the two frequent types first.
	s := mkSchema(4)
	b := pattern.NewBuilder(s, pattern.And, 100)
	for i := 0; i < 4; i++ {
		b.Event(i)
	}
	pat := b.MustBuild()
	r := rand.New(rand.NewSource(61))
	evs := genStream(r, s, []int{10, 10, 1, 1}, 1500, 2, 2)

	rareFirst := plan.NewTreePlan(plan.Join(plan.Join(plan.Join(plan.Leaf(2), plan.Leaf(3)), plan.Leaf(0)), plan.Leaf(1)))
	freqFirst := plan.NewTreePlan(plan.Join(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)), plan.Leaf(3)))
	outRare, stRare := runTree(pat, rareFirst, evs)
	outFreq, stFreq := runTree(pat, freqFirst, evs)
	if len(outRare) != len(outFreq) {
		t.Fatalf("shape changed semantics: %d vs %d", len(outRare), len(outFreq))
	}
	if stRare.PMCreated >= stFreq.PMCreated {
		t.Fatalf("rare-first tuples %d >= freq-first %d", stRare.PMCreated, stFreq.PMCreated)
	}
}

func TestTreeEmitFilter(t *testing.T) {
	s := mkSchema(2)
	pat := seqChainPattern(s, 2, 100)
	tp := plan.NewTreePlan(plan.Join(plan.Leaf(0), plan.Leaf(1)))
	evs := []event.Event{
		{Type: 0, TS: 10, Seq: 1, Attrs: []float64{1}},
		{Type: 1, TS: 20, Seq: 2, Attrs: []float64{1}},
		{Type: 0, TS: 30, Seq: 3, Attrs: []float64{1}},
		{Type: 1, TS: 40, Seq: 4, Attrs: []float64{1}},
	}
	var out []*match.Match
	g := New(pat, tp, func(m *match.Match) { out = append(out, m) })
	g.SetEmitOnlyBefore(3)
	for i := range evs {
		g.Process(&evs[i])
	}
	g.Finish()
	if len(out) != 2 {
		t.Fatalf("%d matches; want 2", len(out))
	}
	if g.Stats().Suppressed != 1 {
		t.Fatalf("Suppressed = %d", g.Stats().Suppressed)
	}
}

func TestTreeExpiryPrunes(t *testing.T) {
	s := mkSchema(2)
	pat := seqChainPattern(s, 2, 10)
	tp := plan.NewTreePlan(plan.Join(plan.Leaf(0), plan.Leaf(1)))
	var out []*match.Match
	g := New(pat, tp, func(m *match.Match) { out = append(out, m) })
	var seq uint64
	for ts := event.Time(1); ts <= 5; ts++ {
		seq++
		e := s.MustNew(0, ts, 1)
		e.Seq = seq
		g.Process(&e)
	}
	if g.Stats().LivePMs != 5 {
		t.Fatalf("LivePMs = %d; want 5", g.Stats().LivePMs)
	}
	seq++
	late := s.MustNew(1, 500, 1)
	late.Seq = seq
	g.Process(&late)
	g.Finish()
	if len(out) != 0 {
		t.Fatal("expired tuple matched")
	}
	if g.Stats().LivePMs > 1 { // only the late B's leaf tuple survives
		t.Fatalf("LivePMs = %d after expiry", g.Stats().LivePMs)
	}
	if g.Plan() == nil {
		t.Fatal("Plan() nil")
	}
}

func TestTreeSingleLeafRoot(t *testing.T) {
	s := mkSchema(1)
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	b.Event(0)
	pat := b.MustBuild()
	tp := plan.NewTreePlan(plan.Leaf(0))
	evs := []event.Event{
		{Type: 0, TS: 1, Seq: 1, Attrs: []float64{0}},
		{Type: 0, TS: 2, Seq: 2, Attrs: []float64{0}},
	}
	out, st := runTree(pat, tp, evs)
	if len(out) != 2 || st.Emitted != 2 {
		t.Fatalf("%d matches; want 2", len(out))
	}
}

func TestTreeBushyFourLeaves(t *testing.T) {
	s := mkSchema(4)
	pat := seqChainPattern(s, 4, 80)
	r := rand.New(rand.NewSource(71))
	evs := genStream(r, s, []int{1, 1, 1, 1}, 140, 2, 3)
	want := oracle.Keys(oracle.Matches(pat, evs))
	shapes := []*plan.TreePlan{
		plan.NewTreePlan(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Join(plan.Leaf(2), plan.Leaf(3)))),
		plan.NewTreePlan(plan.Join(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)), plan.Leaf(3))),
		plan.NewTreePlan(plan.Join(plan.Leaf(0), plan.Join(plan.Leaf(1), plan.Join(plan.Leaf(2), plan.Leaf(3))))),
	}
	for _, tp := range shapes {
		out, _ := runTree(pat, tp, evs)
		if got := oracle.Keys(out); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: got %d matches, oracle %d", tp, len(got), len(want))
		}
	}
}

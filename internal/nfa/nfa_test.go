package nfa

import (
	"math/rand"
	"reflect"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
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

// genStream produces a random timestamp-ordered stream where type i
// appears with relative weight weights[i] and x is drawn from {0..xmod-1}.
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

func runEngine(pat *pattern.Pattern, op *plan.OrderPlan, evs []event.Event) ([]*match.Match, match.Stats) {
	var out []*match.Match
	g := New(pat, op, func(m *match.Match) { out = append(out, m) })
	for i := range evs {
		g.Process(&evs[i])
	}
	g.Finish()
	return out, g.Stats()
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

func TestNFAPaperExample(t *testing.T) {
	// SEQ(A,B,C) with person_id equality, paper Example 1.
	s := mkSchema(3)
	pat := seqChainPattern(s, 3, 100)
	evs := []event.Event{
		{Type: 0, TS: 10, Seq: 1, Attrs: []float64{7}}, // A person 7
		{Type: 1, TS: 20, Seq: 2, Attrs: []float64{7}}, // B person 7
		{Type: 0, TS: 25, Seq: 3, Attrs: []float64{9}}, // A person 9
		{Type: 2, TS: 30, Seq: 4, Attrs: []float64{7}}, // C person 7 -> match
		{Type: 2, TS: 40, Seq: 5, Attrs: []float64{9}}, // C person 9, no B
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}} {
		out, _ := runEngine(pat, plan.NewOrderPlan(order), evs)
		if len(out) != 1 {
			t.Fatalf("order %v: %d matches; want 1", order, len(out))
		}
		m := out[0]
		if m.Events[0].Seq != 1 || m.Events[1].Seq != 2 || m.Events[2].Seq != 4 {
			t.Fatalf("order %v: wrong match %v", order, m)
		}
	}
}

func TestNFAWindowExpiry(t *testing.T) {
	s := mkSchema(2)
	pat := seqChainPattern(s, 2, 50)
	evs := []event.Event{
		{Type: 0, TS: 10, Seq: 1, Attrs: []float64{1}},
		{Type: 1, TS: 61, Seq: 2, Attrs: []float64{1}}, // 51 > W: no match
		{Type: 0, TS: 70, Seq: 3, Attrs: []float64{1}},
		{Type: 1, TS: 100, Seq: 4, Attrs: []float64{1}}, // within window of A@70
	}
	out, _ := runEngine(pat, plan.NewOrderPlan([]int{0, 1}), evs)
	if len(out) != 1 {
		t.Fatalf("%d matches; want 1", len(out))
	}
	if out[0].Events[0].Seq != 3 {
		t.Fatalf("wrong A matched: %v", out[0])
	}
	// Window boundary is inclusive: exactly W apart matches.
	evs2 := []event.Event{
		{Type: 0, TS: 10, Seq: 1, Attrs: []float64{1}},
		{Type: 1, TS: 60, Seq: 2, Attrs: []float64{1}},
	}
	out2, _ := runEngine(pat, plan.NewOrderPlan([]int{0, 1}), evs2)
	if len(out2) != 1 {
		t.Fatalf("boundary match missed")
	}
}

func TestNFAAllOrdersAgreeWithOracle(t *testing.T) {
	// The emitted match set must be identical for every plan order and
	// equal to the brute-force oracle.
	s := mkSchema(3)
	pat := seqChainPattern(s, 3, 60)
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		evs := genStream(r, s, []int{3, 2, 1}, 120, 3, 4)
		want := oracle.Keys(oracle.Matches(pat, evs))
		for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			out, _ := runEngine(pat, plan.NewOrderPlan(order), evs)
			got := oracle.Keys(out)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d order %v: got %d matches, oracle %d\ngot:  %v\nwant: %v",
					trial, order, len(got), len(want), got, want)
			}
		}
	}
}

func TestNFAConjunction(t *testing.T) {
	s := mkSchema(3)
	b := pattern.NewBuilder(s, pattern.And, 60)
	for i := 0; i < 3; i++ {
		b.Event(i)
	}
	b.WherePred(pattern.Pred{L: 0, R: 1, Op: pattern.EQ})
	pat := b.MustBuild()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		evs := genStream(r, s, []int{2, 2, 1}, 90, 3, 4)
		want := oracle.Keys(oracle.Matches(pat, evs))
		for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
			out, _ := runEngine(pat, plan.NewOrderPlan(order), evs)
			if got := oracle.Keys(out); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d order %v: engine/oracle mismatch (%d vs %d)",
					trial, order, len(got), len(want))
			}
		}
	}
}

func TestNFANegationAgainstOracle(t *testing.T) {
	s := mkSchema(3)
	b := pattern.NewBuilder(s, pattern.Seq, 60)
	b.Event(0)
	n := b.Event(1)
	b.Event(2)
	b.Negate(n)
	b.WherePred(pattern.Pred{L: n, R: 0, Op: pattern.EQ})
	pat := b.MustBuild()
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		evs := genStream(r, s, []int{2, 1, 2}, 100, 2, 4)
		want := oracle.Keys(oracle.Matches(pat, evs))
		out, _ := runEngine(pat, plan.NewOrderPlan([]int{0, 2}), evs)
		if got := oracle.Keys(out); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: negation mismatch: got %d want %d", trial, len(got), len(want))
		}
	}
}

func TestNFAKleeneAgainstOracle(t *testing.T) {
	s := mkSchema(3)
	b := pattern.NewBuilder(s, pattern.Seq, 60)
	b.Event(0)
	k := b.Event(1)
	b.Event(2)
	b.Kleene(k)
	b.WherePred(pattern.Pred{L: k, R: 0, Op: pattern.EQ})
	pat := b.MustBuild()
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		evs := genStream(r, s, []int{1, 3, 1}, 100, 2, 4)
		wantMs := oracle.Matches(pat, evs)
		want := oracle.Keys(wantMs)
		var out []*match.Match
		g := New(pat, plan.NewOrderPlan([]int{0, 2}), func(m *match.Match) { out = append(out, m) })
		for i := range evs {
			g.Process(&evs[i])
		}
		g.Finish()
		if got := oracle.Keys(out); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: kleene core mismatch: got %d want %d", trial, len(got), len(want))
		}
		// Kleene sets must match too: index oracle by key.
		oracleBy := map[string][]uint64{}
		for _, m := range wantMs {
			var seqs []uint64
			for _, e := range m.Kleene[1] {
				seqs = append(seqs, e.Seq)
			}
			oracleBy[m.Key()] = seqs
		}
		for _, m := range out {
			var seqs []uint64
			for _, e := range m.Kleene[1] {
				seqs = append(seqs, e.Seq)
			}
			if !reflect.DeepEqual(seqs, oracleBy[m.Key()]) {
				t.Fatalf("trial %d: kleene set mismatch for %s: %v vs %v",
					trial, m.Key(), seqs, oracleBy[m.Key()])
			}
		}
	}
}

func TestNFADuplicateTypeAcrossPositions(t *testing.T) {
	// SEQ(A, A): same type at two positions; an event must not pair with
	// itself.
	s := mkSchema(1)
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	b.Event(0)
	b.Event(0)
	pat := b.MustBuild()
	evs := []event.Event{
		{Type: 0, TS: 10, Seq: 1, Attrs: []float64{0}},
		{Type: 0, TS: 20, Seq: 2, Attrs: []float64{0}},
		{Type: 0, TS: 30, Seq: 3, Attrs: []float64{0}},
	}
	want := oracle.Keys(oracle.Matches(pat, evs))
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		out, _ := runEngine(pat, plan.NewOrderPlan(order), evs)
		if got := oracle.Keys(out); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v: got %v want %v", order, got, want)
		}
	}
	// 3 ordered pairs: (1,2), (1,3), (2,3).
	if len(want) != 3 {
		t.Fatalf("oracle found %d; want 3", len(want))
	}
}

func TestNFAEmitFilter(t *testing.T) {
	s := mkSchema(2)
	pat := seqChainPattern(s, 2, 100)
	evs := []event.Event{
		{Type: 0, TS: 10, Seq: 1, Attrs: []float64{1}},
		{Type: 1, TS: 20, Seq: 2, Attrs: []float64{1}},
		{Type: 0, TS: 30, Seq: 3, Attrs: []float64{1}},
		{Type: 1, TS: 40, Seq: 4, Attrs: []float64{1}},
	}
	var out []*match.Match
	g := New(pat, plan.NewOrderPlan([]int{0, 1}), func(m *match.Match) { out = append(out, m) })
	g.SetEmitOnlyBefore(3) // only matches touching events 1 or 2
	for i := range evs {
		g.Process(&evs[i])
	}
	g.Finish()
	// Full set would be (1,2), (1,4), (3,4); filter drops (3,4).
	if len(out) != 2 {
		t.Fatalf("%d matches; want 2", len(out))
	}
	if g.Stats().Suppressed != 1 {
		t.Fatalf("Suppressed = %d; want 1", g.Stats().Suppressed)
	}
}

func TestNFAStatsAndExpiry(t *testing.T) {
	s := mkSchema(2)
	pat := seqChainPattern(s, 2, 10)
	var out []*match.Match
	g := New(pat, plan.NewOrderPlan([]int{0, 1}), func(m *match.Match) { out = append(out, m) })
	// Burst of As, then silence long past the window, then a B.
	var seq uint64
	for ts := event.Time(1); ts <= 5; ts++ {
		seq++
		e := s.MustNew(0, ts, 1)
		e.Seq = seq
		g.Process(&e)
	}
	st := g.Stats()
	if st.PMCreated != 5 || st.LivePMs != 5 {
		t.Fatalf("after burst: %+v", st)
	}
	// A B inside the window pairs with all five As.
	seq++
	b := s.MustNew(1, 6, 1)
	b.Seq = seq
	g.Process(&b)
	if len(out) != 5 {
		t.Fatalf("%d matches; want 5", len(out))
	}
	seq++
	late := s.MustNew(1, 500, 1)
	late.Seq = seq
	g.Process(&late)
	g.Finish()
	if len(out) != 5 {
		t.Fatal("expired PM matched the late B")
	}
	st = g.Stats()
	if st.LivePMs != 0 {
		t.Fatalf("PMs not pruned: %+v", st)
	}
	if st.PredEvals == 0 {
		t.Fatal("no predicate evaluations counted")
	}
	if g.Plan() == nil {
		t.Fatal("Plan() nil")
	}
}

func TestNFAPlanOrderAffectsWork(t *testing.T) {
	// With skewed rates, starting from the rare type must create far
	// fewer PMs than starting from the frequent type (the paper's core
	// motivation).
	s := mkSchema(3)
	pat := seqChainPattern(s, 3, 200)
	r := rand.New(rand.NewSource(5))
	evs := genStream(r, s, []int{20, 4, 1}, 2000, 2, 2)
	_, ascStats := runEngine(pat, plan.NewOrderPlan([]int{2, 1, 0}), evs)
	_, descStats := runEngine(pat, plan.NewOrderPlan([]int{0, 1, 2}), evs)
	if ascStats.Emitted != descStats.Emitted {
		t.Fatalf("order changed semantics: %d vs %d", ascStats.Emitted, descStats.Emitted)
	}
	if ascStats.PMCreated >= descStats.PMCreated {
		t.Fatalf("ascending order PMs %d >= descending %d", ascStats.PMCreated, descStats.PMCreated)
	}
}

func TestNFASinglePosition(t *testing.T) {
	s := mkSchema(1)
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	b.Event(0)
	pat := b.MustBuild()
	evs := []event.Event{
		{Type: 0, TS: 1, Seq: 1, Attrs: []float64{0}},
		{Type: 0, TS: 2, Seq: 2, Attrs: []float64{0}},
	}
	out, st := runEngine(pat, plan.NewOrderPlan([]int{0}), evs)
	if len(out) != 2 || st.Emitted != 2 {
		t.Fatalf("%d matches; want 2", len(out))
	}
}

package planner

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"acep/internal/event"
	"acep/internal/pattern"
	"acep/internal/plan"
	"acep/internal/stats"
)

// seqPattern builds SEQ(T0, ..., Tn-1) with, when chain is true, an
// equality predicate chain between adjacent positions and a unary
// predicate on every even position.
func seqPattern(t testing.TB, n int, chain bool) *pattern.Pattern {
	t.Helper()
	s := event.NewSchema()
	for i := 0; i < n; i++ {
		s.MustAddType(string(rune('A'+i)), "x")
	}
	b := pattern.NewBuilder(s, pattern.Seq, 10*event.Second)
	for i := 0; i < n; i++ {
		b.Event(i)
	}
	if chain {
		for i := 0; i+1 < n; i++ {
			b.WherePred(pattern.Pred{L: i, R: i + 1, Op: pattern.EQ})
		}
		for i := 0; i < n; i += 2 {
			b.WherePred(pattern.Pred{L: i, R: pattern.Unary, Op: pattern.GT})
		}
	}
	return b.MustBuild()
}

// paperSnapshot is Example 1's statistics: rates A=100, B=15, C=10, no
// predicates.
func paperSnapshot() *stats.Snapshot {
	s := stats.NewSnapshot(3)
	s.Rates = []float64{100, 15, 10}
	return s
}

func TestGreedyPaperExample(t *testing.T) {
	pat := seqPattern(t, 3, false)
	res := Greedy{}.Generate(pat, paperSnapshot())
	op, ok := res.Plan.(*plan.OrderPlan)
	if !ok {
		t.Fatalf("plan type %T", res.Plan)
	}
	// Ascending rates: C(2), B(1), A(0).
	want := []int{2, 1, 0}
	for i, p := range want {
		if op.Order[i] != p {
			t.Fatalf("order = %v; want %v", op.Order, want)
		}
	}
	// DCS structure from the paper (Figure 4):
	// DCS1 = {rateC < rateB, rateC < rateA}; DCS2 = {rateB < rateA};
	// DCS3 = {}.
	if len(res.Trace.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(res.Trace.Blocks))
	}
	if got := len(res.Trace.Blocks[0].Conds); got != 2 {
		t.Errorf("DCS1 size = %d; want 2", got)
	}
	if got := len(res.Trace.Blocks[1].Conds); got != 1 {
		t.Errorf("DCS2 size = %d; want 1", got)
	}
	if got := len(res.Trace.Blocks[2].Conds); got != 0 {
		t.Errorf("DCS3 size = %d; want 0", got)
	}
	// All recorded conditions must hold at creation (gap >= 0).
	snap := paperSnapshot()
	for _, b := range res.Trace.Blocks {
		for _, c := range b.Conds {
			if c.Gap(snap) < 0 {
				t.Errorf("condition %s violated at creation", c)
			}
		}
	}
	// The DCS2 condition is rateB < rateA: 15 < 100, gap 85.
	if g := res.Trace.Blocks[1].Conds[0].Gap(snap); math.Abs(g-85) > 1e-9 {
		t.Errorf("DCS2 gap = %g; want 85", g)
	}
}

func TestGreedyUsesSelectivities(t *testing.T) {
	pat := seqPattern(t, 3, true)
	s := stats.NewSnapshot(3)
	s.Rates = []float64{10, 12, 100}
	// A joins B with tiny selectivity; after choosing A (lowest rate),
	// candidate B scores 12*0.01 = 0.12 but C scores 100*1 = 100 -> B next.
	s.SetSym(0, 1, 0.01)
	s.SetSym(1, 2, 0.5)
	res := Greedy{}.Generate(pat, s)
	op := res.Plan.(*plan.OrderPlan)
	want := []int{0, 1, 2}
	for i := range want {
		if op.Order[i] != want[i] {
			t.Fatalf("order = %v; want %v", op.Order, want)
		}
	}
	// Now make the A-B join useless and C cheap: after A, C (rate 5)
	// should precede B.
	s2 := stats.NewSnapshot(3)
	s2.Rates = []float64{10, 12, 5}
	s2.SetSym(0, 1, 1)
	res2 := Greedy{}.Generate(pat, s2)
	op2 := res2.Plan.(*plan.OrderPlan)
	if op2.Order[0] != 2 { // C has the lowest rate now
		t.Fatalf("order = %v; want C first", op2.Order)
	}
}

func TestGreedySkipsResidualPositions(t *testing.T) {
	s := event.NewSchema()
	for i := 0; i < 4; i++ {
		s.MustAddType(string(rune('A'+i)), "x")
	}
	b := pattern.NewBuilder(s, pattern.Seq, event.Second)
	b.Event(0)
	neg := b.Event(1)
	b.Event(2)
	kl := b.Event(3)
	b.Negate(neg).Kleene(kl)
	pat := b.MustBuild()
	snap := stats.NewSnapshot(4)
	snap.Rates = []float64{5, 1, 3, 1}
	res := Greedy{}.Generate(pat, snap)
	op := res.Plan.(*plan.OrderPlan)
	if len(op.Order) != 2 {
		t.Fatalf("order = %v; want only core positions", op.Order)
	}
	for _, p := range op.Order {
		if p == neg || p == kl {
			t.Fatalf("residual position %d in order %v", p, op.Order)
		}
	}
}

func TestGreedySinglePosition(t *testing.T) {
	pat := seqPattern(t, 1, false)
	snap := stats.NewSnapshot(1)
	snap.Rates[0] = 7
	res := Greedy{}.Generate(pat, snap)
	op := res.Plan.(*plan.OrderPlan)
	if len(op.Order) != 1 || op.Order[0] != 0 {
		t.Fatalf("order = %v", op.Order)
	}
	if res.Trace.NumConditions() != 0 {
		t.Error("single-position plan must have no conditions")
	}
}

func TestGreedyDeterminism(t *testing.T) {
	pat := seqPattern(t, 5, true)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		s := randomSnapshot(r, pat)
		a := Greedy{}.Generate(pat, s)
		b := Greedy{}.Generate(pat, s)
		if !a.Plan.Equal(b.Plan) {
			t.Fatal("greedy not deterministic")
		}
		if a.Trace.NumConditions() != b.Trace.NumConditions() {
			t.Fatal("trace not deterministic")
		}
	}
}

// randomSnapshot draws random rates for all positions and random
// selectivities for exactly the positions with unary predicates and the
// position pairs connected by predicates, honoring the Snapshot contract
// (Sel == 1 on predicate-free pairs).
func randomSnapshot(r *rand.Rand, pat *pattern.Pattern) *stats.Snapshot {
	n := pat.NumPositions()
	s := stats.NewSnapshot(n)
	for i := 0; i < n; i++ {
		s.Rates[i] = 1 + r.Float64()*99
		if len(pat.Unary(i)) > 0 {
			s.Sel[i][i] = 0.05 + r.Float64()*0.95
		}
		for j := i + 1; j < n; j++ {
			if len(pat.PredsBetween(i, j)) > 0 {
				s.SetSym(i, j, 0.05+r.Float64()*0.95)
			}
		}
	}
	return s
}

// TestGreedyTheorem2 checks both directions of Theorem 2 for the greedy
// algorithm with the full deciding-condition sets: the plan produced
// under new statistics differs from the old plan if and only if some
// recorded condition is violated under the new statistics.
func TestGreedyTheorem2(t *testing.T) {
	pat := seqPattern(t, 5, true)
	r := rand.New(rand.NewSource(11))
	diffs, same := 0, 0
	for trial := 0; trial < 300; trial++ {
		s0 := randomSnapshot(r, pat)
		res := Greedy{}.Generate(pat, s0)
		// Perturb: small chance of large changes.
		s1 := s0.Clone()
		for i := range s1.Rates {
			if r.Intn(3) == 0 {
				s1.Rates[i] *= 0.2 + r.Float64()*3
			}
		}
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				if len(pat.PredsBetween(i, j)) > 0 && r.Intn(4) == 0 {
					v := s1.Sel[i][j] * (0.3 + r.Float64()*2)
					if v > 1 {
						v = 1
					}
					s1.SetSym(i, j, v)
				}
			}
		}
		violated := res.Trace.AnyViolated(s1, 0)
		res2 := Greedy{}.Generate(pat, s1)
		changed := !res.Plan.Equal(res2.Plan)
		if changed != violated {
			t.Fatalf("trial %d: changed=%v violated=%v\nold=%v new=%v",
				trial, changed, violated, res.Plan, res2.Plan)
		}
		if changed {
			diffs++
		} else {
			same++
		}
	}
	if diffs == 0 || same == 0 {
		t.Fatalf("degenerate test: diffs=%d same=%d", diffs, same)
	}
}

func TestZStreamPaperShape(t *testing.T) {
	pat := seqPattern(t, 3, true)
	s := stats.NewSnapshot(3)
	s.Rates = []float64{100, 15, 10}
	s.SetSym(0, 1, 0.5)
	s.SetSym(1, 2, 0.2)
	res := ZStream{}.Generate(pat, s)
	tp, ok := res.Plan.(*plan.TreePlan)
	if !ok {
		t.Fatalf("plan type %T", res.Plan)
	}
	// Right-deep (0 (1 2)) costs 1655 vs left-deep 2375 (see plan tests).
	want := plan.NewTreePlan(plan.Join(plan.Leaf(0), plan.Join(plan.Leaf(1), plan.Leaf(2))))
	if !tp.Equal(want) {
		t.Fatalf("plan = %v; want %v", tp, want)
	}
	// DP cost must agree with the plan package's recursive cost.
	if got, w := tp.Cost(s), 1655.0; math.Abs(got-w) > 1e-6 {
		t.Errorf("cost = %g; want %g", got, w)
	}
	// Trace: two internal nodes; the bottom node (1 2) had no
	// alternatives (size 2), the root chose between two splits.
	if len(res.Trace.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(res.Trace.Blocks))
	}
	if got := len(res.Trace.Blocks[0].Conds); got != 0 {
		t.Errorf("bottom DCS size = %d; want 0", got)
	}
	if got := len(res.Trace.Blocks[1].Conds); got != 1 {
		t.Errorf("root DCS size = %d; want 1", got)
	}
	// The root condition must hold at creation with gap 2375-1655 = 720.
	if g := res.Trace.Blocks[1].Conds[0].Gap(s); math.Abs(g-720) > 1e-6 {
		t.Errorf("root gap = %g; want 720", g)
	}
}

func TestZStreamOptimalOverContiguousTrees(t *testing.T) {
	// For n=4 enumerate all contiguous-range binary trees and confirm the
	// DP result is the cheapest.
	pat := seqPattern(t, 4, true)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		s := randomSnapshot(r, pat)
		res := ZStream{}.Generate(pat, s)
		got := res.Plan.Cost(s)
		best := math.Inf(1)
		var enumerate func(lo, hi int) []*plan.TreeNode
		enumerate = func(lo, hi int) []*plan.TreeNode {
			if hi-lo == 1 {
				return []*plan.TreeNode{plan.Leaf(lo)}
			}
			var out []*plan.TreeNode
			for k := lo + 1; k < hi; k++ {
				for _, l := range enumerate(lo, k) {
					for _, rr := range enumerate(k, hi) {
						out = append(out, plan.Join(l, rr))
					}
				}
			}
			return out
		}
		for _, root := range enumerate(0, 4) {
			c := plan.SubtreeCost(root, s)
			if c < best {
				best = c
			}
		}
		if got > best*(1+1e-9) {
			t.Fatalf("trial %d: DP cost %g > enumerated best %g", trial, got, best)
		}
	}
}

func TestZStreamConditionsHoldAtCreation(t *testing.T) {
	pat := seqPattern(t, 6, true)
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		s := randomSnapshot(r, pat)
		res := ZStream{}.Generate(pat, s)
		for _, b := range res.Trace.Blocks {
			for _, c := range b.Conds {
				if c.Gap(s) < -1e-9 {
					t.Fatalf("condition %s has negative gap %g at creation", c, c.Gap(s))
				}
			}
		}
		// Expression evaluation at the creation snapshot must reproduce
		// the winner's DP cost on the LHS of every root condition.
		if len(res.Trace.Blocks) > 0 {
			last := res.Trace.Blocks[len(res.Trace.Blocks)-1]
			for _, c := range last.Conds {
				if math.Abs(c.LHS.Eval(s)-res.Plan.Cost(s)) > 1e-6*res.Plan.Cost(s) {
					t.Fatalf("root LHS %g != plan cost %g", c.LHS.Eval(s), res.Plan.Cost(s))
				}
			}
		}
	}
}

func TestZStreamDeterminism(t *testing.T) {
	pat := seqPattern(t, 5, true)
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		s := randomSnapshot(r, pat)
		a := ZStream{}.Generate(pat, s)
		b := ZStream{}.Generate(pat, s)
		if !a.Plan.Equal(b.Plan) {
			t.Fatal("zstream not deterministic")
		}
	}
}

func TestZStreamSingleLeaf(t *testing.T) {
	pat := seqPattern(t, 1, false)
	s := stats.NewSnapshot(1)
	s.Rates[0] = 3
	res := ZStream{}.Generate(pat, s)
	tp := res.Plan.(*plan.TreePlan)
	if !tp.Root.IsLeaf() || tp.Root.Pos != 0 {
		t.Fatalf("plan = %v", tp)
	}
	if len(res.Trace.Blocks) != 0 {
		t.Error("single leaf must have no blocks")
	}
}

func TestAlgorithmNames(t *testing.T) {
	if (Greedy{}).Name() != "greedy" || (ZStream{}).Name() != "zstream" {
		t.Error("algorithm names wrong")
	}
}

func TestGreedyTraceQuick(t *testing.T) {
	// Property: for any snapshot, the greedy trace has n blocks with
	// n-1-i conditions at block i, and every condition holds at creation.
	pat := seqPattern(t, 4, true)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSnapshot(r, pat)
		res := Greedy{}.Generate(pat, s)
		if len(res.Trace.Blocks) != 4 {
			return false
		}
		for i, b := range res.Trace.Blocks {
			if len(b.Conds) != 4-1-i {
				return false
			}
			for _, c := range b.Conds {
				if c.Gap(s) < -1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package plan

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"acep/internal/stats"
)

func snap3() *stats.Snapshot {
	s := stats.NewSnapshot(3)
	s.Rates = []float64{100, 15, 10}
	s.SetSym(0, 1, 0.5)
	s.SetSym(1, 2, 0.2)
	s.SetSym(0, 2, 1.0)
	return s
}

func TestOrderPlanCost(t *testing.T) {
	s := snap3()
	// order [2 1 0]: cost = 10 + 10*15*0.2 + 10*15*0.2*100*1*0.5
	p := NewOrderPlan([]int{2, 1, 0})
	want := 10.0 + 30.0 + 1500.0
	if got := p.Cost(s); math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost = %g; want %g", got, want)
	}
	// ascending-rate order must beat descending for this snapshot
	asc := NewOrderPlan([]int{2, 1, 0})
	desc := NewOrderPlan([]int{0, 1, 2})
	if asc.Cost(s) >= desc.Cost(s) {
		t.Errorf("ascending order cost %g >= descending %g", asc.Cost(s), desc.Cost(s))
	}
}

func TestOrderPlanCostUnarySel(t *testing.T) {
	s := snap3()
	s.Sel[0][0] = 0.1 // unary filter on position 0
	p := NewOrderPlan([]int{0})
	if got := p.Cost(s); math.Abs(got-10) > 1e-9 {
		t.Errorf("Cost = %g; want 10 (rate 100 * unary 0.1)", got)
	}
}

func TestOrderPlanEqual(t *testing.T) {
	a := NewOrderPlan([]int{0, 1, 2})
	b := NewOrderPlan([]int{0, 1, 2})
	c := NewOrderPlan([]int{0, 2, 1})
	d := NewOrderPlan([]int{0, 1})
	if !a.Equal(b) {
		t.Error("identical plans unequal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different plans equal")
	}
	if a.Equal(NewTreePlan(Leaf(0))) {
		t.Error("order plan equal to tree plan")
	}
}

func TestOrderPlanBasics(t *testing.T) {
	p := NewOrderPlan([]int{2, 0, 1})
	if got := p.String(); got != "order[2 0 1]" {
		t.Errorf("String = %q", got)
	}
	// NewOrderPlan must copy its argument.
	src := []int{1, 2}
	q := NewOrderPlan(src)
	src[0] = 9
	if q.Order[0] != 1 {
		t.Error("NewOrderPlan must copy")
	}
}

func TestTreeCardinalityAndCost(t *testing.T) {
	s := snap3()
	// ((0 1) 2): Card(0,1) = 100*15*0.5 = 750
	// Card(root) = 750 * 10 * sel(0,2)*sel(1,2) = 750*10*1*0.2 = 1500
	// Cost = (100+15+750) + 10 + 1500 = 2375
	tr := NewTreePlan(Join(Join(Leaf(0), Leaf(1)), Leaf(2)))
	if got := Cardinality(tr.Root, s); math.Abs(got-1500) > 1e-9 {
		t.Errorf("root cardinality = %g; want 1500", got)
	}
	if got := tr.Cost(s); math.Abs(got-2375) > 1e-9 {
		t.Errorf("Cost = %g; want 2375", got)
	}
	// (0 (1 2)): Card(1,2) = 15*10*0.2 = 30; root = 100*30*0.5*1 = 1500
	// Cost = 100 + (15+10+30) + 1500 = 1655 -> right-deep wins here.
	tr2 := NewTreePlan(Join(Leaf(0), Join(Leaf(1), Leaf(2))))
	if got := tr2.Cost(s); math.Abs(got-1655) > 1e-9 {
		t.Errorf("Cost = %g; want 1655", got)
	}
	if tr2.Cost(s) >= tr.Cost(s) {
		t.Error("right-deep should win for this snapshot")
	}
}

// TestTreeCostUnarySel: a leaf's cardinality is its rate scaled by its
// unary selectivity, and the scaled value feeds every node above it.
func TestTreeCostUnarySel(t *testing.T) {
	s := snap3()
	s.Sel[2][2] = 0.5 // unary filter on position 2: leaf cardinality 10*0.5 = 5
	// (0 (1 2)): Card(1,2) = 15*5*0.2 = 15; root = 100*15*0.5*1 = 750.
	// Cost = 100 + (15+5+15) + 750 = 885.
	tr := NewTreePlan(Join(Leaf(0), Join(Leaf(1), Leaf(2))))
	if got := Cardinality(tr.Root, s); math.Abs(got-750) > 1e-9 {
		t.Errorf("root cardinality = %g; want 750", got)
	}
	if got := SubtreeCost(tr.Root, s); math.Abs(got-885) > 1e-9 {
		t.Errorf("Cost = %g; want 885", got)
	}
}

func TestTreeString(t *testing.T) {
	tr := NewTreePlan(Join(Join(Leaf(2), Leaf(0)), Leaf(1)))
	if got := tr.String(); got != "tree((2 0) 1)" {
		t.Errorf("String = %q", got)
	}
}

func TestTreeEqual(t *testing.T) {
	a := NewTreePlan(Join(Join(Leaf(0), Leaf(1)), Leaf(2)))
	b := NewTreePlan(Join(Join(Leaf(0), Leaf(1)), Leaf(2)))
	c := NewTreePlan(Join(Leaf(0), Join(Leaf(1), Leaf(2))))
	d := NewTreePlan(Join(Join(Leaf(1), Leaf(0)), Leaf(2)))
	if !a.Equal(b) {
		t.Error("identical trees unequal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different trees equal")
	}
	if a.Equal(NewOrderPlan([]int{0, 1, 2})) {
		t.Error("tree equal to order plan")
	}
}

// TestPlanClone: a clone equals its plan, costs what it costs — without
// allocating — and shares no storage with it: a plan built into a
// generator's scratch is cloned before it is deployed.
func TestPlanClone(t *testing.T) {
	s := snap3()
	for _, p := range []Plan{
		NewOrderPlan([]int{2, 1, 0}),
		NewTreePlan(Join(Leaf(0), Join(Leaf(1), Leaf(2)))),
	} {
		c := p.Clone()
		if !c.Equal(p) || c.Cost(s) != p.Cost(s) {
			t.Fatalf("clone %v of %v", c, p)
		}
		if got := testing.AllocsPerRun(10, func() { p.Cost(s) }); got != 0 {
			t.Errorf("%v: Cost allocated %v times, want 0", p, got)
		}
		switch p := p.(type) {
		case *OrderPlan:
			p.Order[0] = 1
		case *TreePlan:
			p.Root.Left.Pos = 2
		}
		if c.Equal(p) {
			t.Fatalf("%v: the clone changed with its plan", c)
		}
	}
}

func TestOrderCostPermutationInvariantTotalCard(t *testing.T) {
	// Property: the final prefix term (full cardinality) is identical for
	// every permutation; only intermediate terms differ.
	f := func(r0, r1, r2 uint8, s01, s12, s02 uint8) bool {
		s := stats.NewSnapshot(3)
		s.Rates = []float64{float64(r0%50) + 1, float64(r1%50) + 1, float64(r2%50) + 1}
		s.SetSym(0, 1, float64(s01%9+1)/10)
		s.SetSym(1, 2, float64(s12%9+1)/10)
		s.SetSym(0, 2, float64(s02%9+1)/10)
		perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		var finals []float64
		for _, perm := range perms {
			card := 1.0
			for i, pos := range perm {
				card *= s.Rates[pos] * s.Sel[pos][pos]
				for j := 0; j < i; j++ {
					card *= s.Sel[perm[j]][pos]
				}
			}
			finals = append(finals, card)
		}
		sort.Float64s(finals)
		return math.Abs(finals[0]-finals[len(finals)-1]) < 1e-6*math.Max(1, finals[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeCostPositive(t *testing.T) {
	// Property: tree cost is positive whenever all rates are positive.
	f := func(r0, r1, r2, r3 uint8) bool {
		s := stats.NewSnapshot(4)
		for i, r := range []uint8{r0, r1, r2, r3} {
			s.Rates[i] = float64(r%100) + 1
		}
		tr := NewTreePlan(Join(Join(Leaf(0), Leaf(1)), Join(Leaf(2), Leaf(3))))
		return tr.Cost(s) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

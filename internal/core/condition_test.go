package core

import (
	"math"
	"strings"
	"testing"

	"acep/internal/stats"
)

func snapABC(ra, rb, rc float64) *stats.Snapshot {
	s := stats.NewSnapshot(3)
	s.Rates = []float64{ra, rb, rc}
	return s
}

// rateExpr builds the trivial expression f(x) = rate_i.
func rateExpr(i int) Expr {
	return Expr{Terms: []Term{{Coef: 1, Rates: []int{i}}}}
}

func TestExprEval(t *testing.T) {
	s := snapABC(100, 15, 10)
	s.SetSym(0, 1, 0.5)
	s.Sel[2][2] = 0.25

	cases := []struct {
		e    Expr
		want float64
	}{
		{Expr{}, 0},
		{Expr{Add: 7}, 7},
		{rateExpr(0), 100},
		{Expr{Terms: []Term{{Coef: 2, Rates: []int{1}}}}, 30},
		{Expr{Terms: []Term{{Coef: 1, Rates: []int{0, 1}, Sels: [][2]int{{0, 1}}}}}, 750},
		{Expr{Add: 5, Terms: []Term{{Coef: 1, Rates: []int{2}, Sels: [][2]int{{2, 2}}}}}, 7.5},
		{Expr{Terms: []Term{{Coef: 1, Rates: []int{0}}, {Coef: 1, Rates: []int{1}}}}, 115},
	}
	for i, tc := range cases {
		if got := tc.e.Eval(s); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("case %d: Eval = %g; want %g", i, got, tc.want)
		}
	}
}

func TestConditionViolated(t *testing.T) {
	s := snapABC(100, 15, 10)
	c := Condition{LHS: rateExpr(2), RHS: rateExpr(1)} // 10 < 15
	if c.Violated(s, 0) {
		t.Error("holding condition reported violated")
	}
	s2 := snapABC(100, 15, 20) // rateC grew past rateB
	if !c.Violated(s2, 0) {
		t.Error("reversed condition not reported violated")
	}
	// Equality must not violate with d = 0 (ties stay stable).
	s3 := snapABC(100, 15, 15)
	if c.Violated(s3, 0) {
		t.Error("tie reported violated with d=0")
	}
}

func TestConditionDistance(t *testing.T) {
	c := Condition{LHS: rateExpr(2), RHS: rateExpr(1)}
	// Holding condition stays quiet at any d.
	s := snapABC(100, 15, 14)
	if c.Violated(s, 0) || c.Violated(s, 0.1) {
		t.Error("14 < 15 must hold at any d")
	}
	// A small reversal trips at d=0 but is absorbed by d=0.1 hysteresis:
	// violation requires LHS > (1+d)*RHS = 16.5.
	s2 := snapABC(100, 15, 15.5)
	if !c.Violated(s2, 0) {
		t.Error("15.5 vs 15 must trip at d=0")
	}
	if c.Violated(s2, 0.1) {
		t.Error("15.5 <= 16.5 must stay quiet at d=0.1")
	}
	// A large reversal overcomes the margin.
	s3 := snapABC(100, 15, 17)
	if !c.Violated(s3, 0.1) {
		t.Error("17 > 16.5 must trip at d=0.1")
	}
}

func TestConditionGapAndRelGap(t *testing.T) {
	s := snapABC(100, 15, 10)
	c := Condition{LHS: rateExpr(2), RHS: rateExpr(1)}
	if got := c.Gap(s); math.Abs(got-5) > 1e-12 {
		t.Errorf("Gap = %g; want 5", got)
	}
	if got := c.RelGap(s); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RelGap = %g; want 0.5 (5/10)", got)
	}
	// RelGap guards against nonpositive denominators.
	z := snapABC(0, 0, 0)
	if got := c.RelGap(z); got != 0 {
		t.Errorf("RelGap at zero = %g; want 0", got)
	}
}

func TestTraceAnyViolatedAndCount(t *testing.T) {
	tr := &Trace{Blocks: []DCS{
		{Conds: []Condition{
			{LHS: rateExpr(2), RHS: rateExpr(1)},
			{LHS: rateExpr(2), RHS: rateExpr(0)},
		}},
		{Conds: []Condition{
			{LHS: rateExpr(1), RHS: rateExpr(0)},
		}},
	}}
	if tr.NumConditions() != 3 {
		t.Fatalf("NumConditions = %d", tr.NumConditions())
	}
	if tr.AnyViolated(snapABC(100, 15, 10), 0) {
		t.Error("violated on consistent snapshot")
	}
	if !tr.AnyViolated(snapABC(100, 15, 16), 0) {
		t.Error("missed rateC > rateB")
	}
	if !tr.AnyViolated(snapABC(14, 15, 10), 0) {
		t.Error("missed rateB > rateA")
	}
}

func TestAvgRelDiff(t *testing.T) {
	// Gaps: (15-10)/10 = 0.5, (100-10)/10 = 9, (100-15)/15 ~= 5.6667.
	tr := &Trace{Blocks: []DCS{
		{Conds: []Condition{
			{LHS: rateExpr(2), RHS: rateExpr(1)},
			{LHS: rateExpr(2), RHS: rateExpr(0)},
		}},
		{Conds: []Condition{
			{LHS: rateExpr(1), RHS: rateExpr(0)},
		}},
	}}
	s := snapABC(100, 15, 10)
	want := (0.5 + 9 + 85.0/15) / 3
	if got := tr.AvgRelDiff(s); math.Abs(got-want) > 1e-9 {
		t.Errorf("AvgRelDiff = %g; want %g", got, want)
	}
	empty := &Trace{}
	if got := empty.AvgRelDiff(s); got != 0 {
		t.Errorf("empty AvgRelDiff = %g", got)
	}
}

func TestAvgRelDiffTightest(t *testing.T) {
	tr := &Trace{Blocks: []DCS{
		{Conds: []Condition{
			{LHS: rateExpr(2), RHS: rateExpr(1)}, // relgap 0.5
			{LHS: rateExpr(2), RHS: rateExpr(0)}, // relgap 9
		}},
		{Conds: []Condition{
			{LHS: rateExpr(1), RHS: rateExpr(0)}, // relgap 85/15
		}},
		{}, // empty DCS contributes nothing
	}}
	s := snapABC(100, 15, 10)
	want := (0.5 + 85.0/15) / 2
	if got := tr.AvgRelDiffTightest(s); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("AvgRelDiffTightest = %g; want %g", got, want)
	}
	empty := &Trace{}
	if got := empty.AvgRelDiffTightest(s); got != 0 {
		t.Errorf("empty AvgRelDiffTightest = %g", got)
	}
}

func TestExprString(t *testing.T) {
	e := Expr{Add: 3, Terms: []Term{{Coef: 2, Rates: []int{1}, Sels: [][2]int{{0, 1}}}}}
	str := e.String()
	for _, want := range []string{"3", "2", "r1", "sel0,1"} {
		if !strings.Contains(str, want) {
			t.Errorf("Expr.String() = %q; missing %q", str, want)
		}
	}
	if (Expr{}).String() != "0" {
		t.Errorf("zero Expr string = %q", (Expr{}).String())
	}
	c := Condition{LHS: rateExpr(0), RHS: rateExpr(1)}
	if !strings.Contains(c.String(), " < ") {
		t.Errorf("Condition.String() = %q", c.String())
	}
}

package core

import (
	"strings"
	"testing"

	"acep/internal/stats"
)

// paperTrace reproduces the Figure 4 trace for SEQ(A,B,C) with rates
// 100/15/10: DCS1 = {C<B, C<A}, DCS2 = {B<A}, DCS3 = {}.
func paperTrace() *Trace {
	return &Trace{Blocks: []DCS{
		{Conds: []Condition{ // C first
			{LHS: rateExpr(2), RHS: rateExpr(1)},
			{LHS: rateExpr(2), RHS: rateExpr(0)},
		}},
		{Conds: []Condition{ // B second
			{LHS: rateExpr(1), RHS: rateExpr(0)},
		}},
		{}, // A third
	}}
}

func TestStaticPolicy(t *testing.T) {
	var p Static
	p.Install(paperTrace(), snapABC(100, 15, 10))
	if p.ShouldReoptimize(snapABC(1, 2, 3)) {
		t.Error("static must never reoptimize")
	}
	if p.Name() != "static" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestUnconditionalPolicy(t *testing.T) {
	var p Unconditional
	p.Install(paperTrace(), snapABC(100, 15, 10))
	if !p.ShouldReoptimize(snapABC(100, 15, 10)) {
		t.Error("unconditional must always reoptimize")
	}
	if p.Name() != "unconditional" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestThresholdPolicy(t *testing.T) {
	p := &Threshold{T: 0.2}
	base := snapABC(100, 15, 10)
	p.Install(nil, base)
	if p.ShouldReoptimize(base.Clone()) {
		t.Error("no deviation must not trigger")
	}
	// 10% move: below threshold.
	if p.ShouldReoptimize(snapABC(110, 15, 10)) {
		t.Error("10% < t=20% must not trigger")
	}
	// 25% move on one statistic: trigger.
	if !p.ShouldReoptimize(snapABC(100, 15, 12.5)) {
		t.Error("25% >= t=20% must trigger")
	}
	if !strings.Contains(p.Name(), "0.2") {
		t.Errorf("Name = %q", p.Name())
	}
}

// TestThresholdMotivatingScenario reproduces the paper's introduction
// example: rates A=100, B=15, C=10. A threshold t > 6/15 misses C
// overtaking B, while t small enough to catch it also fires on harmless
// fluctuations of A. The invariant policy handles both correctly.
func TestThresholdMotivatingScenario(t *testing.T) {
	base := snapABC(100, 15, 10)

	// C grows to 16 (overtakes B: reopt genuinely needed). Relative
	// change: 60% on C. A threshold of 0.7 misses it.
	grown := snapABC(100, 15, 16)
	// A fluctuates by 65% (harmless: order C,B,A unchanged).
	fluct := snapABC(35, 15, 10)

	coarse := &Threshold{T: 0.7}
	coarse.Install(nil, base)
	if coarse.ShouldReoptimize(grown) {
		t.Error("coarse threshold unexpectedly caught the C change")
	}

	fine := &Threshold{T: 0.5}
	fine.Install(nil, base)
	if !fine.ShouldReoptimize(grown) {
		t.Error("fine threshold must catch the C change")
	}
	if !fine.ShouldReoptimize(fluct) {
		t.Error("fine threshold fires on the harmless A fluctuation (expected false positive)")
	}

	inv := &Invariant{}
	inv.Install(paperTrace(), base)
	if !inv.ShouldReoptimize(grown) {
		t.Error("invariant policy must catch C overtaking B")
	}
	if inv.ShouldReoptimize(fluct) {
		t.Error("invariant policy must ignore the harmless A fluctuation")
	}
}

func TestInvariantSelectsTightest(t *testing.T) {
	p := &Invariant{}
	p.Install(paperTrace(), snapABC(100, 15, 10))
	// K=1: one invariant for DCS1 (the tightest: C<B, gap 5) and one for
	// DCS2 (B<A); DCS3 empty.
	if p.NumInvariants() != 2 {
		t.Fatalf("NumInvariants = %d; want 2", p.NumInvariants())
	}
	// rateA drops to 12: violates B<A (selected) -> caught even though
	// DCS1's selected invariant C<B still holds.
	if !p.ShouldReoptimize(snapABC(12, 15, 10)) {
		t.Error("B overtaking A must trip the DCS2 invariant")
	}
	// rateA drops to 50: C<A (unselected, gap 90) untouched; no
	// violation of the kept invariants -> no reoptimization.
	if p.ShouldReoptimize(snapABC(50, 15, 10)) {
		t.Error("harmless A drop must not trip")
	}
}

func TestInvariantKMethod(t *testing.T) {
	// With K=1 a violation of the non-tightest DCS1 condition (C<A) is a
	// false negative; K=2 keeps both conditions and catches it.
	// Scenario: A collapses below C while B stays above both - the plan
	// should start with A, but the tightest invariant C<B still holds.
	base := snapABC(100, 15, 10)
	after := snapABC(8, 15, 10) // A now smallest: plan must change

	k1 := &Invariant{K: 1}
	k1.Install(paperTrace(), base)
	// B<A (DCS2 invariant) IS violated here (15 > 8) so K=1 catches it
	// through a later block; drop that block to isolate the K effect.
	soloDCS1 := &Trace{Blocks: []DCS{paperTrace().Blocks[0]}}
	k1.Install(soloDCS1, base)
	if k1.ShouldReoptimize(after) {
		t.Error("K=1 kept only C<B and should miss the C<A violation")
	}

	k2 := &Invariant{K: 2}
	k2.Install(soloDCS1, base)
	if k2.NumInvariants() != 2 {
		t.Fatalf("K=2 invariants = %d; want 2", k2.NumInvariants())
	}
	if !k2.ShouldReoptimize(after) {
		t.Error("K=2 must catch the C<A violation")
	}
}

func TestInvariantDistance(t *testing.T) {
	p := &Invariant{D: 0.5}
	p.Install(paperTrace(), snapABC(100, 15, 10))
	// C creeps just past B: absorbed by the margin.
	if p.ShouldReoptimize(snapABC(100, 15, 16)) {
		t.Error("d=0.5 must absorb a 7% reversal")
	}
	// C doubles past B.
	if !p.ShouldReoptimize(snapABC(100, 15, 31)) {
		t.Error("d=0.5 must catch a 2x reversal")
	}
	if p.Distance() != 0.5 {
		t.Errorf("Distance = %g", p.Distance())
	}
}

func TestInvariantAutoDistance(t *testing.T) {
	p := &Invariant{AutoDistance: true}
	s := snapABC(100, 15, 10)
	p.Install(paperTrace(), s)
	// Tightest condition per DCS: C<B (relgap 0.5) and B<A (relgap 85/15).
	want := (0.5 + 85.0/15) / 2
	if got := p.Distance(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("auto distance = %g; want %g", got, want)
	}
	if !strings.Contains(p.Name(), "d=avg") {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Installs() != 1 {
		t.Errorf("Installs = %d", p.Installs())
	}
}

func TestInvariantReinstallResets(t *testing.T) {
	p := &Invariant{}
	p.Install(paperTrace(), snapABC(100, 15, 10))
	if p.NumInvariants() != 2 {
		t.Fatalf("first install: %d invariants", p.NumInvariants())
	}
	// New plan with a single block.
	p.Install(&Trace{Blocks: []DCS{paperTrace().Blocks[1]}}, snapABC(100, 15, 10))
	if p.NumInvariants() != 1 {
		t.Fatalf("after reinstall: %d invariants; want 1", p.NumInvariants())
	}
	if p.Installs() != 2 {
		t.Errorf("Installs = %d", p.Installs())
	}
}

func TestSelectors(t *testing.T) {
	s := snapABC(100, 15, 10)
	dcs := paperTrace().Blocks[0] // conds: C<B (gap 5, rel 0.5), C<A (gap 90, rel 9)
	got := TightestGap(nil, dcs, s, 1)
	if len(got) != 1 || got[0].RHS.Eval(s) != 15 {
		t.Errorf("TightestGap picked RHS=%g; want rateB", got[0].RHS.Eval(s))
	}
	got = TightestRelGap(nil, dcs, s, 1)
	if len(got) != 1 || got[0].RHS.Eval(s) != 15 {
		t.Errorf("TightestRelGap picked RHS=%g; want rateB", got[0].RHS.Eval(s))
	}
	if got := All(nil, dcs, s, 1); len(got) != 2 {
		t.Errorf("All returned %d conds", len(got))
	}
	// k larger than the set size returns everything.
	if got := TightestGap(nil, dcs, s, 5); len(got) != 2 {
		t.Errorf("k=5 returned %d conds", len(got))
	}
	// k <= 0 coerces to 1.
	if got := TightestGap(nil, dcs, s, 0); len(got) != 1 {
		t.Errorf("k=0 returned %d conds", len(got))
	}
}

func TestInvariantFullDCSMatchesTraceAnyViolated(t *testing.T) {
	// With Select=All the policy must agree with Trace.AnyViolated on any
	// snapshot (Theorem 2's decision function).
	tr := paperTrace()
	base := snapABC(100, 15, 10)
	p := &Invariant{Select: All}
	p.Install(tr, base)
	snaps := []*stats.Snapshot{
		snapABC(100, 15, 10),
		snapABC(100, 15, 16),
		snapABC(8, 15, 10),
		snapABC(50, 15, 10),
		snapABC(14, 15, 10),
		snapABC(9, 9, 9),
	}
	for i, s := range snaps {
		if p.ShouldReoptimize(s) != tr.AnyViolated(s, 0) {
			t.Errorf("snapshot %d: policy and trace disagree", i)
		}
	}
}

func TestThresholdShapeChange(t *testing.T) {
	p := &Threshold{T: 0.5}
	p.Install(nil, snapABC(1, 2, 3))
	if !p.ShouldReoptimize(stats.NewSnapshot(2)) {
		t.Error("statistic-vector shape change must trigger")
	}
}

func TestThresholdZeroBaseline(t *testing.T) {
	p := &Threshold{T: 0.1}
	base := stats.NewSnapshot(2)
	p.Install(nil, base) // all rates zero
	if p.ShouldReoptimize(base.Clone()) {
		t.Error("zero->zero must not trigger")
	}
	moved := stats.NewSnapshot(2)
	moved.Rates[0] = 1
	if !p.ShouldReoptimize(moved) {
		t.Error("zero->nonzero must trigger")
	}
}

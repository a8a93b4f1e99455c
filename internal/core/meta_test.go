package core

import (
	"strings"
	"testing"
)

// TestMetaInvariantZeroValueStartsAtDefault: a zero MetaInvariant starts
// at d = 0.1.
func TestMetaInvariantZeroValueStartsAtDefault(t *testing.T) {
	p := &MetaInvariant{}
	p.Install(paperTrace(), snapABC(100, 15, 10))
	if d := p.Distance(); d != 0.1 {
		t.Fatalf("initial d = %g; want 0.1", d)
	}
}

func TestMetaInvariantGrowsOnWastedAttempts(t *testing.T) {
	p := &MetaInvariant{InitialD: 0.1}
	p.Install(paperTrace(), snapABC(100, 15, 10))
	if d := p.Distance(); d != 0.1 {
		t.Fatalf("initial d = %g", d)
	}
	// Wasted attempts (no gain): d grows geometrically up to the cap.
	for i := 0; i < 20; i++ {
		p.ObserveOutcome(0)
	}
	if d := p.Distance(); d != 2.0 {
		t.Fatalf("d after wasted attempts = %g; want capped 2.0", d)
	}
	// A productive attempt decays d.
	p.ObserveOutcome(0.5)
	if d := p.Distance(); d >= 2.0 {
		t.Fatalf("d did not shrink: %g", d)
	}
	// Repeated productive attempts floor at InitialD.
	for i := 0; i < 30; i++ {
		p.ObserveOutcome(0.5)
	}
	if d := p.Distance(); d != 0.1 {
		t.Fatalf("d floor = %g; want 0.1", d)
	}
}

func TestMetaInvariantAppliesTunedDistance(t *testing.T) {
	p := &MetaInvariant{InitialD: 0.1}
	base := snapABC(100, 15, 10)
	p.Install(paperTrace(), base)
	// A 20% reversal of C over B trips at d=0.1.
	burst := snapABC(100, 15, 18)
	if !p.ShouldReoptimize(burst) {
		t.Fatal("d=0.1 must trip on a 20% reversal")
	}
	// Grow d past the reversal; after reinstall the same snapshot stays
	// quiet.
	for i := 0; i < 5; i++ {
		p.ObserveOutcome(0)
	}
	p.Install(paperTrace(), base)
	if p.ShouldReoptimize(burst) {
		t.Fatalf("grown d=%g should absorb the 20%% reversal", p.Distance())
	}
	if !strings.Contains(p.Name(), "meta-invariant") {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestMetaInvariantMarginalGainCountsAsWasted(t *testing.T) {
	p := &MetaInvariant{InitialD: 0.1}
	p.Install(paperTrace(), snapABC(100, 15, 10))
	p.ObserveOutcome(0.05) // below the 0.1 marginal-gain bound
	if d := p.Distance(); d <= 0.1 {
		t.Fatalf("marginal gain must grow d; d = %g", d)
	}
}

package core

import (
	"fmt"

	"acep/internal/stats"
)

// MetaInvariant is the meta-adaptive variant sketched in §3.4(3): it
// wraps the invariant method and tunes the violation distance d
// on-the-fly. The controller observes the outcome of each
// reoptimization attempt it triggered — reported by the
// detection-adaptation loop through ObserveOutcome — and adjusts d:
// an attempt that did not improve the plan (or improved it marginally)
// means d was too permissive, so d grows; a genuine improvement means
// the opportunity was real and d decays back towards its initial value
// so future opportunities are not missed.
type MetaInvariant struct {
	// InitialD seeds the distance (default 0.1).
	InitialD float64

	// inner is the wrapped invariant policy at its default K and
	// selection; its D is managed by the controller.
	inner Invariant
}

// The controller's constants: an attempt whose relative plan-cost
// improvement is below metaMarginal is marginal, and grows d by metaGrow
// up to metaMaxD; a productive one shrinks d by metaShrink down to
// InitialD.
const (
	metaMarginal = 0.1
	metaGrow     = 1.5
	metaShrink   = 0.8
	metaMaxD     = 2.0
)

// Name implements Policy.
func (p *MetaInvariant) Name() string {
	return fmt.Sprintf("meta-invariant(d=%.3g)", p.inner.D)
}

func (p *MetaInvariant) defaults() {
	if p.InitialD <= 0 {
		p.InitialD = 0.1
	}
	if p.inner.D == 0 {
		p.inner.D = p.InitialD
	}
}

// Install implements Policy.
func (p *MetaInvariant) Install(t *Trace, s *stats.Snapshot) {
	p.defaults()
	p.inner.Install(t, s)
	// Install resets the invariant list; keep the tuned distance.
	p.inner.d = p.inner.D
}

// ShouldReoptimize implements Policy.
func (p *MetaInvariant) ShouldReoptimize(s *stats.Snapshot) bool {
	p.defaults()
	return p.inner.ShouldReoptimize(s)
}

// ObserveOutcome implements OutcomeObserver: the loop reports the
// relative cost improvement of the plan produced after this policy fired
// (0 when the plan was unchanged or not better).
func (p *MetaInvariant) ObserveOutcome(relGain float64) {
	p.defaults()
	if relGain < metaMarginal {
		p.inner.D = min(p.inner.D*metaGrow, metaMaxD)
	} else {
		p.inner.D = max(p.inner.D*metaShrink, p.InitialD)
	}
	p.inner.d = p.inner.D
}

// Distance reports the current tuned distance.
func (p *MetaInvariant) Distance() float64 {
	p.defaults()
	return p.inner.D
}

// OutcomeObserver is implemented by policies that adapt to the outcomes
// of the reoptimization attempts they trigger. After a positive decision
// the loop reports the relative cost improvement of A's new plan over the
// deployed one (0 when no better plan was found).
type OutcomeObserver interface {
	ObserveOutcome(relGain float64)
}

package core

import (
	"fmt"
	"math"
	"sort"

	"acep/internal/stats"
)

// Policy is a reoptimizing decision function D together with its
// installation lifecycle. The detection-adaptation loop calls Install
// whenever a plan produced by A is deployed (passing A's instrumentation
// trace and the snapshot A optimized for) and then calls ShouldReoptimize
// with fresh statistics on every adaptation check.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Install resets the policy for a newly deployed plan.
	Install(t *Trace, s *stats.Snapshot)
	// ShouldReoptimize is D: true requests a re-run of A.
	ShouldReoptimize(s *stats.Snapshot) bool
}

// PolicyFromString parses an adaptation policy by name into the
// per-engine constructor engine.Config.NewPolicy takes: static,
// unconditional, threshold (with threshold t) or invariant (with k
// invariants per building block and distance d).
func PolicyFromString(s string, t, d float64, k int) (func() Policy, error) {
	switch s {
	case "static":
		return func() Policy { return Static{} }, nil
	case "unconditional":
		return func() Policy { return Unconditional{} }, nil
	case "threshold":
		return func() Policy { return &Threshold{T: t} }, nil
	case "invariant":
		return func() Policy { return &Invariant{K: k, D: d} }, nil
	}
	return nil, fmt.Errorf("core: unknown adaptation policy %q (want static, unconditional, threshold or invariant)", s)
}

// Static is the no-adaptation baseline: D constantly returns false and
// the initial plan is kept forever.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Install implements Policy.
func (Static) Install(*Trace, *stats.Snapshot) {}

// ShouldReoptimize implements Policy.
func (Static) ShouldReoptimize(*stats.Snapshot) bool { return false }

// Unconditional is the baseline of the tree-based lazy NFA (paper ref
// [36]): D constantly returns true, so A runs on every adaptation check
// regardless of whether the statistics moved.
type Unconditional struct{}

// Name implements Policy.
func (Unconditional) Name() string { return "unconditional" }

// Install implements Policy.
func (Unconditional) Install(*Trace, *stats.Snapshot) {}

// ShouldReoptimize implements Policy.
func (Unconditional) ShouldReoptimize(*stats.Snapshot) bool { return true }

// Threshold is the ZStream baseline (paper ref [42]): a single constant
// threshold T for all monitored statistics. D returns true iff some
// statistic deviates from its value at plan-installation time by a
// relative factor of at least T.
type Threshold struct {
	T float64

	base []float64
	cur  []float64
}

// Name implements Policy.
func (p *Threshold) Name() string { return fmt.Sprintf("threshold(%g)", p.T) }

// Install implements Policy.
func (p *Threshold) Install(_ *Trace, s *stats.Snapshot) {
	p.base = s.Flatten(p.base[:0])
}

// ShouldReoptimize implements Policy.
func (p *Threshold) ShouldReoptimize(s *stats.Snapshot) bool {
	p.cur = s.Flatten(p.cur[:0])
	if len(p.cur) != len(p.base) {
		return true // shape changed; be safe
	}
	for i, b := range p.base {
		d := math.Abs(p.cur[i] - b)
		den := math.Abs(b)
		if den < 1e-12 {
			if d > 1e-12 {
				return true
			}
			continue
		}
		if d/den >= p.T {
			return true
		}
	}
	return false
}

// Selector picks up to k conditions from a deciding condition set to act
// as the block's invariants, given the plan-creation snapshot. The
// default TightestGap implements §3.1's tightest-condition strategy;
// TightestRelGap is the §3.5 alternative that normalizes by magnitude.
type Selector func(dcs DCS, s *stats.Snapshot, k int) []Condition

// TightestGap selects the k conditions with the smallest absolute slack
// RHS-LHS at creation time (§3.1).
func TightestGap(dcs DCS, s *stats.Snapshot, k int) []Condition {
	return selectBy(dcs, k, func(c Condition) float64 { return c.Gap(s) })
}

// TightestRelGap selects the k conditions with the smallest relative
// slack, an instance of the alternative selection strategies discussed in
// §3.5 (conditions between small values are as fragile as conditions
// between large ones).
func TightestRelGap(dcs DCS, s *stats.Snapshot, k int) []Condition {
	return selectBy(dcs, k, func(c Condition) float64 { return c.RelGap(s) })
}

// All selects every condition in the DCS, realizing the full-DCS decision
// function of Theorem 2 regardless of k.
func All(dcs DCS, _ *stats.Snapshot, _ int) []Condition {
	return append([]Condition(nil), dcs.Conds...)
}

func selectBy(dcs DCS, k int, score func(Condition) float64) []Condition {
	if k <= 0 {
		k = 1
	}
	idx := make([]int, len(dcs.Conds))
	for i := range idx {
		idx[i] = i
	}
	scores := make([]float64, len(dcs.Conds))
	for i, c := range dcs.Conds {
		scores[i] = score(c)
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]Condition, 0, k)
	for _, i := range idx[:k] {
		out = append(out, dcs.Conds[i])
	}
	return out
}

// Invariant is the paper's invariant-based reoptimizing decision function.
// On Install it distills the trace into an ordered invariant list — up to
// K conditions per building block chosen by Select (the K-invariant
// method of §3.3; K=1 is the basic method) — and ShouldReoptimize returns
// true exactly when some invariant is violated under the current
// statistics with minimal relative distance D (§3.4).
type Invariant struct {
	// K caps the invariants kept per building block (default 1).
	K int
	// D is the minimal violation distance d: an invariant trips only when
	// (1+D)·LHS > RHS (default 0, the basic method).
	D float64
	// AutoDistance, when set, overrides D at every Install with the
	// average-relative-difference estimate d_avg computed from the new
	// trace over the monitored (tightest) conditions (§3.4, "data
	// analysis" approach).
	AutoDistance bool
	// Select picks the per-block invariants (default TightestGap).
	Select Selector

	invariants []Condition
	d          float64
	installs   int
}

// Name implements Policy.
func (p *Invariant) Name() string {
	if p.AutoDistance {
		return fmt.Sprintf("invariant(K=%d,d=avg)", p.kOrDefault())
	}
	return fmt.Sprintf("invariant(K=%d,d=%g)", p.kOrDefault(), p.D)
}

func (p *Invariant) kOrDefault() int {
	if p.K <= 0 {
		return 1
	}
	return p.K
}

// Install implements Policy: builds the invariant list for the new plan.
func (p *Invariant) Install(t *Trace, s *stats.Snapshot) {
	sel := p.Select
	if sel == nil {
		sel = TightestGap
	}
	p.invariants = p.invariants[:0]
	for _, dcs := range t.Blocks {
		if len(dcs.Conds) == 0 {
			continue
		}
		p.invariants = append(p.invariants, sel(dcs, s, p.kOrDefault())...)
	}
	p.d = p.D
	if p.AutoDistance {
		p.d = t.AvgRelDiffTightest(s)
	}
	p.installs++
}

// ShouldReoptimize implements Policy: verifies the invariants in plan
// order and trips on the first violation.
func (p *Invariant) ShouldReoptimize(s *stats.Snapshot) bool {
	for _, c := range p.invariants {
		if c.Violated(s, p.d) {
			return true
		}
	}
	return false
}

// NumInvariants reports the size of the currently installed invariant
// list.
func (p *Invariant) NumInvariants() int { return len(p.invariants) }

// Distance reports the violation distance currently in effect (useful
// when AutoDistance recomputes it per install).
func (p *Invariant) Distance() float64 { return p.d }

// Installs reports how many times a plan has been installed.
func (p *Invariant) Installs() int { return p.installs }

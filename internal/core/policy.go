package core

import (
	"fmt"
	"math"
	"slices"

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

// Selector appends up to k conditions from a deciding condition set to
// dst, to act as the block's invariants, given the plan-creation
// snapshot, and returns the extended slice. The default TightestGap
// implements §3.1's tightest-condition strategy; TightestRelGap is the
// §3.5 alternative that normalizes by magnitude.
type Selector func(dst []Condition, dcs DCS, s *stats.Snapshot, k int) []Condition

// TightestGap selects the k conditions with the smallest absolute slack
// RHS-LHS at creation time (§3.1).
func TightestGap(dst []Condition, dcs DCS, s *stats.Snapshot, k int) []Condition {
	return selectBy(dst, dcs, k, func(c Condition) float64 { return c.Gap(s) })
}

// TightestRelGap selects the k conditions with the smallest relative
// slack, an instance of the alternative selection strategies discussed in
// §3.5 (conditions between small values are as fragile as conditions
// between large ones).
func TightestRelGap(dst []Condition, dcs DCS, s *stats.Snapshot, k int) []Condition {
	return selectBy(dst, dcs, k, func(c Condition) float64 { return c.RelGap(s) })
}

// All selects every condition in the DCS, realizing the full-DCS decision
// function of Theorem 2 regardless of k.
func All(dst []Condition, dcs DCS, _ *stats.Snapshot, _ int) []Condition {
	return append(dst, dcs.Conds...)
}

// selectBy appends the k lowest-scoring conditions to dst, lowest first,
// ties in DCS order — what a stable sort by score would put first. At
// k = 1 that is an argmin whose first minimum wins; above, each condition
// is inserted behind every kept one it does not undercut.
func selectBy(dst []Condition, dcs DCS, k int, score func(Condition) float64) []Condition {
	if len(dcs.Conds) == 0 {
		return dst
	}
	if k <= 1 {
		best, bestScore := 0, score(dcs.Conds[0])
		for i := 1; i < len(dcs.Conds); i++ {
			if v := score(dcs.Conds[i]); v < bestScore {
				best, bestScore = i, v
			}
		}
		return append(dst, dcs.Conds[best])
	}
	at := len(dst)
	var buf [8]float64
	scores := buf[:0]
	for _, c := range dcs.Conds {
		v := score(c)
		i := len(scores)
		for i > 0 && v < scores[i-1] {
			i--
		}
		if i == k {
			continue
		}
		if len(scores) == k {
			scores, dst = scores[:k-1], dst[:at+k-1]
		}
		scores = slices.Insert(scores, i, v)
		dst = slices.Insert(dst, at+i, c)
	}
	return dst
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

	// invariants is the installed list; terms, rates and sels hold the
	// expressions its conditions compare, copied out of the trace.
	invariants []Condition
	terms      []Term
	rates      []int
	sels       [][2]int
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
// The list is the policy's own: Install copies every condition it keeps
// out of the trace, which the generator may refill once Install returns.
func (p *Invariant) Install(t *Trace, s *stats.Snapshot) {
	sel := p.Select
	if sel == nil {
		sel = TightestGap
	}
	p.invariants = p.invariants[:0]
	p.terms, p.rates, p.sels = p.terms[:0], p.rates[:0], p.sels[:0]
	for _, dcs := range t.Blocks {
		at := len(p.invariants)
		p.invariants = sel(p.invariants, dcs, s, p.kOrDefault())
		for i := at; i < len(p.invariants); i++ {
			c := &p.invariants[i]
			c.LHS, c.RHS = p.own(c.LHS), p.own(c.RHS)
		}
	}
	p.d = p.D
	if p.AutoDistance {
		p.d = t.AvgRelDiffTightest(s)
	}
	p.installs++
}

// own copies e's terms and their factors into the policy's storage.
func (p *Invariant) own(e Expr) Expr {
	t := len(p.terms)
	for _, term := range e.Terms {
		r, q := len(p.rates), len(p.sels)
		p.rates = append(p.rates, term.Rates...)
		p.sels = append(p.sels, term.Sels...)
		term.Rates, term.Sels = p.rates[r:len(p.rates):len(p.rates)], p.sels[q:len(p.sels):len(p.sels)]
		p.terms = append(p.terms, term)
	}
	e.Terms = p.terms[t:len(p.terms):len(p.terms)]
	return e
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

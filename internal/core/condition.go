// Package core implements the paper's contribution: the invariant-based
// method for the reoptimizing decision problem, together with the baseline
// decision functions it is evaluated against (static, unconditional and
// constant-threshold).
//
// During a run of the plan generation algorithm A, every block-building
// comparison (BBC) is captured as a deciding Condition — an inequality
// f1(stat1) < f2(stat2) between two constant-time-evaluable cost
// expressions. The conditions verified for one building block form its
// deciding condition set (DCS); a Trace is the ordered list of DCSs for
// the blocks of the produced plan. The invariant method distills a Trace
// into a small ordered list of invariants (the tightest condition(s) per
// block, §3.1/§3.3), optionally widened by a minimal violation distance d
// (§3.4), and declares a reoptimization opportunity exactly when some
// invariant is violated by the current statistics.
package core

import (
	"fmt"
	"strings"

	"acep/internal/stats"
)

// Term is one multiplicative term of a cost expression: a constant
// coefficient times a product of arrival rates and selectivities looked up
// in a statistics snapshot.
type Term struct {
	Coef  float64
	Rates []int    // rate indices (pattern positions)
	Sels  [][2]int // selectivity indices (i,j); (i,i) selects the unary product
}

// Expr is a cost expression: an additive constant (used to freeze subtree
// costs per §4.2) plus a sum of terms. Evaluation is O(pattern size), the
// paper's "near-constant time".
type Expr struct {
	Add   float64
	Terms []Term
}

// Eval computes the expression's value under the snapshot.
func (e Expr) Eval(s *stats.Snapshot) float64 {
	v := e.Add
	for _, t := range e.Terms {
		tv := t.Coef
		for _, r := range t.Rates {
			tv *= s.Rates[r]
		}
		for _, ij := range t.Sels {
			tv *= s.Sel[ij[0]][ij[1]]
		}
		v += tv
	}
	return v
}

// String renders the expression for diagnostics.
func (e Expr) String() string {
	var b strings.Builder
	first := true
	if e.Add != 0 || len(e.Terms) == 0 {
		fmt.Fprintf(&b, "%.4g", e.Add)
		first = false
	}
	for _, t := range e.Terms {
		if !first {
			b.WriteString(" + ")
		}
		first = false
		fmt.Fprintf(&b, "%.4g", t.Coef)
		for _, r := range t.Rates {
			fmt.Fprintf(&b, "·r%d", r)
		}
		for _, ij := range t.Sels {
			fmt.Fprintf(&b, "·sel%d,%d", ij[0], ij[1])
		}
	}
	return b.String()
}

// Condition is a deciding condition "LHS < RHS" recorded at a
// block-building comparison: the winner's cost expression on the left, the
// rejected alternative's on the right. At recording time LHS <= RHS held.
type Condition struct {
	LHS, RHS Expr
}

// Violated reports whether the condition no longer holds under the
// snapshot, with minimal relative distance d (§3.4): the condition is
// violated iff LHS > (1+d)·RHS, i.e. a violation requires the inequality
// to reverse by at least the relative margin d. With d = 0 this is a
// strict reversal, so recording-time ties do not self-trigger.
//
// Note: the paper's §3.4 text writes the monitored invariant as
// "(1+d)·f1 < f2", which would make larger d values trip *earlier*; that
// contradicts both the stated motivation (suppressing oscillation-driven
// replans) and the Figure 5 narrative ("for distances higher than d_opt,
// too many changes in the statistics are undetected"). We therefore
// implement the semantics those descriptions require: d is hysteresis on
// the violation side.
func (c Condition) Violated(s *stats.Snapshot, d float64) bool {
	return c.LHS.Eval(s) > (1+d)*c.RHS.Eval(s)
}

// Gap returns RHS - LHS under the snapshot: the slack that the
// tightest-condition selection strategy minimizes (§3.1).
func (c Condition) Gap(s *stats.Snapshot) float64 {
	return c.RHS.Eval(s) - c.LHS.Eval(s)
}

// RelGap returns the relative slack |RHS-LHS| / min(LHS,RHS), the
// quantity averaged by the d_avg estimator (§3.4).
func (c Condition) RelGap(s *stats.Snapshot) float64 {
	l, r := c.LHS.Eval(s), c.RHS.Eval(s)
	min := l
	if r < min {
		min = r
	}
	if min <= 0 {
		return 0
	}
	diff := r - l
	if diff < 0 {
		diff = -diff
	}
	return diff / min
}

// String renders the condition.
func (c Condition) String() string {
	return c.LHS.String() + " < " + c.RHS.String()
}

// DCS is the deciding condition set of one building block: every
// condition whose verification led A to include the block in the plan.
// Blocks are told apart by their position in the Trace.
type DCS struct {
	Conds []Condition
}

// Trace is the full instrumentation record of one run of A: the DCSs of
// the produced plan's building blocks, ordered in the plan's verification
// order (step order for order-based plans, leaves-to-root for tree-based
// plans).
type Trace struct {
	Blocks []DCS
}

// NumConditions counts all recorded deciding conditions.
func (t *Trace) NumConditions() int {
	n := 0
	for _, b := range t.Blocks {
		n += len(b.Conds)
	}
	return n
}

// AnyViolated reports whether any recorded condition (across all DCSs) is
// violated under the snapshot — the full-DCS decision of Theorem 2.
func (t *Trace) AnyViolated(s *stats.Snapshot, d float64) bool {
	for _, b := range t.Blocks {
		for _, c := range b.Conds {
			if c.Violated(s, d) {
				return true
			}
		}
	}
	return false
}

// AvgRelDiff computes the d_avg distance estimate of §3.4: the average
// relative difference between the two sides of every deciding condition
// in the trace, evaluated at the creation-time snapshot. It returns 0
// when the trace holds no conditions.
func (t *Trace) AvgRelDiff(s *stats.Snapshot) float64 {
	sum, n := 0.0, 0
	for _, b := range t.Blocks {
		for _, c := range b.Conds {
			sum += c.RelGap(s)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AvgRelDiffTightest is the d_avg variant averaged over only the tightest
// condition of each deciding condition set — i.e. over the conditions the
// basic invariant method actually monitors. With winner-versus-all DCS
// capture, averaging over all conditions is dominated by the huge slack
// of hopeless alternatives (a rare type versus the most frequent one) and
// wildly overestimates a useful distance; the monitored conditions are
// the ones whose oscillation d must absorb.
func (t *Trace) AvgRelDiffTightest(s *stats.Snapshot) float64 {
	sum, n := 0.0, 0
	for _, b := range t.Blocks {
		best, ok := 0.0, false
		for _, c := range b.Conds {
			if g := c.RelGap(s); !ok || g < best {
				best, ok = g, true
			}
		}
		if ok {
			sum += best
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

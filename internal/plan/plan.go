// Package plan defines the evaluation-plan structures produced by the
// plan generation algorithms and consumed by the evaluation engines: the
// order-based plans of the lazy-NFA model and the tree-based plans of the
// ZStream model, together with the cost model used to compare them.
//
// Plans range over the pattern's core positions only (negated and
// Kleene-closure positions are residual constraints applied at match
// emission; see the pattern package). Costs follow the paper: an
// order-based plan is charged the expected number of partial matches
// accumulated at every prefix, and a tree-based plan is charged
// Cost(L) + Cost(R) + Card(L,R) per internal node, with leaf cardinality
// equal to the position's arrival rate scaled by its unary selectivity.
// These costs are unitless model quantities used for plan comparison, not
// throughput predictions.
package plan

import (
	"fmt"
	"strings"

	"acep/internal/stats"
)

// Plan is an evaluation plan of either structure.
type Plan interface {
	// Cost evaluates the model cost under the given statistics.
	Cost(s *stats.Snapshot) float64
	// Equal reports structural equality with another plan.
	Equal(other Plan) bool
	// Clone returns a deep copy, sharing no storage with the plan: a plan
	// built into a generator's scratch is cloned before it is deployed.
	Clone() Plan
	// CopyTo is Clone into dst's storage when dst is a plan of the same
	// structure, other than this one, and not in use: dst is overwritten
	// and returned. Any other dst (nil among them) is left alone, and the
	// copy is a new plan.
	CopyTo(dst Plan) Plan
	// String renders the plan for logs and experiment output.
	String() string
}

// OrderPlan is a processing order over the pattern's core positions: the
// chain of the lazy NFA. Order[0] is detected first (the NFA's initial
// state accepts that type); subsequent entries are matched against the
// history buffers.
type OrderPlan struct {
	Order []int
}

// NewOrderPlan copies the order slice into a fresh plan.
func NewOrderPlan(order []int) *OrderPlan {
	return &OrderPlan{Order: append([]int(nil), order...)}
}

// Cost implements the paper's order-plan cost: the sum over prefixes of
// the expected partial-match cardinality
//
//	sum_{i=1..n}  prod_{j<=i} r_{p_j}·sel_{p_j,p_j} · prod_{j<k<=i} sel_{p_j,p_k}.
func (p *OrderPlan) Cost(s *stats.Snapshot) float64 {
	total := 0.0
	card := 1.0
	for i, pos := range p.Order {
		card *= s.Rates[pos] * s.Sel[pos][pos]
		for j := 0; j < i; j++ {
			card *= s.Sel[p.Order[j]][pos]
		}
		total += card
	}
	return total
}

// Clone implements Plan.
func (p *OrderPlan) Clone() Plan { return p.CopyTo(nil) }

// CopyTo implements Plan.
func (p *OrderPlan) CopyTo(dst Plan) Plan {
	d, ok := dst.(*OrderPlan)
	if !ok || d == nil {
		d = &OrderPlan{}
	}
	d.Order = append(d.Order[:0], p.Order...)
	return d
}

// Equal reports whether other is an OrderPlan with the identical order.
func (p *OrderPlan) Equal(other Plan) bool {
	o, ok := other.(*OrderPlan)
	if !ok || len(o.Order) != len(p.Order) {
		return false
	}
	for i := range p.Order {
		if p.Order[i] != o.Order[i] {
			return false
		}
	}
	return true
}

// String renders the order, e.g. "order[2 0 1]".
func (p *OrderPlan) String() string {
	var b strings.Builder
	b.WriteString("order[")
	for i, pos := range p.Order {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", pos)
	}
	b.WriteString("]")
	return b.String()
}

package planner

import (
	"acep/internal/core"
	"acep/internal/pattern"
	"acep/internal/stats"
)

// Greedy is the greedy order-based plan generation algorithm (paper
// Algorithm 2). At each step it selects, among the core positions not yet
// placed, the one minimizing
//
//	r_j · sel_{j,j} · prod_{k<i} sel_{p_k,j},
//
// i.e. the marginal growth of the expected partial-match cardinality.
// Negated and Kleene positions are excluded from the order (they are
// post-processed residual constraints; paper §4.1).
//
// Instrumentation: the building block of step i is "process position p_i
// at step i"; its DCS holds one condition per rejected candidate j',
// stating cost(p_i) < cost(j') with both sides expressed over live
// statistics. Ties are broken toward the lower position index, keeping
// the algorithm deterministic.
type Greedy struct {
	// Scratch is what Generate builds into (nil: a fresh one per call).
	Scratch *Scratch
}

// Name implements Algorithm.
func (Greedy) Name() string { return "greedy" }

// stepExprs appends the live cost expression of every candidate at a step
// given the previously chosen positions — r_j · sel_{j,j} · prod
// sel_{chosen,j} — and returns them. A step's expressions serve both its
// argmin and its DCS, so each step has a region of its own.
func (sc *Scratch) stepExprs(cands, chosen []int) []core.Expr {
	at := len(sc.exprs)
	for _, j := range cands {
		r, q := len(sc.rates), len(sc.sels)
		sc.rates = append(sc.rates, j)
		sc.sels = append(sc.sels, [2]int{j, j})
		for _, k := range chosen {
			sc.sels = append(sc.sels, [2]int{min(k, j), max(k, j)})
		}
		t := len(sc.terms)
		sc.terms = append(sc.terms, core.Term{Coef: 1, Rates: from(sc.rates, r), Sels: from(sc.sels, q)})
		sc.exprs = append(sc.exprs, core.Expr{Terms: from(sc.terms, t)})
	}
	return from(sc.exprs, at)
}

// Generate implements Algorithm.
func (g Greedy) Generate(pat *pattern.Pattern, s *stats.Snapshot) Result {
	sc := g.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	sc.reset()
	remaining := append(sc.remaining[:0], pat.Core()...)
	chosen := sc.order.Order[:0]
	for len(remaining) > 0 {
		// Find the argmin candidate under the current snapshot.
		exprs := sc.stepExprs(remaining, chosen)
		best := 0
		bestVal := exprs[0].Eval(s)
		for c := 1; c < len(remaining); c++ {
			v := exprs[c].Eval(s)
			if v < bestVal {
				best, bestVal = c, v
			}
		}
		// The DCS of this block: winner beats every other candidate.
		at := len(sc.conds)
		for c := range remaining {
			if c != best {
				sc.conds = append(sc.conds, core.Condition{LHS: exprs[best], RHS: exprs[c]})
			}
		}
		sc.blocks = append(sc.blocks, core.DCS{Conds: from(sc.conds, at)})
		chosen = append(chosen, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	sc.remaining, sc.order.Order = remaining, chosen
	return sc.result(&sc.order)
}

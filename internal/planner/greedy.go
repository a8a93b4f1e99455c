package planner

import (
	"fmt"

	"acep/internal/core"
	"acep/internal/pattern"
	"acep/internal/plan"
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
type Greedy struct{}

// Name implements Algorithm.
func (Greedy) Name() string { return "greedy" }

// stepExprs builds the live cost expression of every candidate at step i
// given the previously chosen positions: r_j · sel_{j,j} · prod
// sel_{chosen,j}. A step's expressions serve both its argmin and its DCS,
// and share three backing arrays, each slice capped at its own length.
func stepExprs(cands, chosen []int) []core.Expr {
	n, w := len(cands), 1+len(chosen)
	exprs := make([]core.Expr, n)
	terms := make([]core.Term, n)
	rates := make([]int, n)
	sels := make([][2]int, 0, n*w)
	for c, j := range cands {
		rates[c] = j
		at := len(sels)
		sels = append(sels, [2]int{j, j})
		for _, k := range chosen {
			a, b := k, j
			if a > b {
				a, b = b, a
			}
			sels = append(sels, [2]int{a, b})
		}
		terms[c] = core.Term{Coef: 1, Rates: rates[c : c+1 : c+1], Sels: sels[at:len(sels):len(sels)]}
		exprs[c] = core.Expr{Terms: terms[c : c+1 : c+1]}
	}
	return exprs
}

// Generate implements Algorithm.
func (g Greedy) Generate(pat *pattern.Pattern, s *stats.Snapshot) Result {
	corePos := pat.Core()
	remaining := append([]int(nil), corePos...)
	chosen := make([]int, 0, len(corePos))
	trace := &core.Trace{Blocks: make([]core.DCS, 0, len(corePos))}

	for len(remaining) > 0 {
		// Find the argmin candidate under the current snapshot.
		exprs := stepExprs(remaining, chosen)
		best := 0
		bestVal := exprs[0].Eval(s)
		for c := 1; c < len(remaining); c++ {
			v := exprs[c].Eval(s)
			if v < bestVal {
				best, bestVal = c, v
			}
		}
		winner := remaining[best]
		// The DCS of this block: winner beats every other candidate.
		dcs := core.DCS{
			Block: fmt.Sprintf("step %d: pos %d", len(chosen), winner),
			Conds: make([]core.Condition, 0, len(remaining)-1),
		}
		for c := range remaining {
			if c != best {
				dcs.Conds = append(dcs.Conds, core.Condition{LHS: exprs[best], RHS: exprs[c]})
			}
		}
		trace.Blocks = append(trace.Blocks, dcs)
		chosen = append(chosen, winner)
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return Result{Plan: plan.NewOrderPlan(chosen), Trace: trace}
}

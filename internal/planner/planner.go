// Package planner implements the two evaluation-plan generation
// algorithms the paper applies the invariant-based method to: the greedy
// order-based algorithm (paper Algorithm 2, after Swami '89 and the lazy
// NFA of DEBS '15) and the ZStream dynamic-programming algorithm for
// tree-based plans (paper Algorithm 3).
//
// Both algorithms are instrumented: alongside the plan they emit a
// core.Trace recording, per building block of the returned plan, the
// deciding conditions verified by the block-building comparisons that
// selected it. The trace is the raw material of the invariant method.
//
// An adaptation loop runs A over and over, so both build into a Scratch
// their caller owns: a run refills the storage the previous run left, and
// in steady state allocates nothing.
package planner

import (
	"acep/internal/core"
	"acep/internal/pattern"
	"acep/internal/plan"
	"acep/internal/stats"
)

// Result couples a generated plan with its instrumentation trace. The
// trace's blocks are ordered in the plan's invariant-verification order.
// Both live in the generator's Scratch and are valid until its next
// Generate: a caller installs the trace before generating again, and
// clones a plan it deploys (plan.Plan.Clone).
type Result struct {
	Plan  plan.Plan
	Trace *core.Trace
}

// Algorithm is a deterministic plan generation algorithm A: given a
// pattern and a statistics snapshot it produces an evaluation plan and
// the trace of deciding conditions. Implementations must be deterministic
// functions of (pattern, snapshot) — the correctness guarantees of the
// invariant method (Theorems 1 and 2) depend on it.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Generate produces the plan for the pattern under the snapshot.
	Generate(pat *pattern.Pattern, s *stats.Snapshot) Result
}

// Scratch is the storage a generator builds a Result into: the trace's
// blocks, their conditions and the cost expressions those compare, the
// plan, and the working state of the search. The zero value is ready; a
// generator with none builds into a fresh one.
type Scratch struct {
	trace  core.Trace
	blocks []core.DCS
	conds  []core.Condition
	exprs  []core.Expr
	terms  []core.Term
	rates  []int
	sels   [][2]int

	// Greedy: the candidates left, and the plan.
	remaining []int
	order     plan.OrderPlan

	// ZStream: the memo, one range's candidates, the winners' nodes, and
	// the plan.
	cells []zcell
	cands []zcand
	nodes []plan.TreeNode
	tree  plan.TreePlan
}

// reset empties the scratch for a new run, keeping its arrays.
func (sc *Scratch) reset() {
	sc.blocks, sc.conds, sc.exprs = sc.blocks[:0], sc.conds[:0], sc.exprs[:0]
	sc.terms, sc.rates, sc.sels = sc.terms[:0], sc.rates[:0], sc.sels[:0]
}

// result returns p with the blocks built since reset as its trace.
func (sc *Scratch) result(p plan.Plan) Result {
	sc.trace.Blocks = sc.blocks
	return Result{Plan: p, Trace: &sc.trace}
}

// from returns s[at:] capped at its length, so that appending to s never
// writes through what from returned.
func from[T any](s []T, at int) []T { return s[at:len(s):len(s)] }

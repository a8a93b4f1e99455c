package planner

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"acep/internal/pattern"
	"acep/internal/plan"
	"acep/internal/stats"
)

// algorithms builds each generator over a scratch (nil: a fresh one per
// call).
var algorithms = []func(*Scratch) Algorithm{
	func(sc *Scratch) Algorithm { return Greedy{Scratch: sc} },
	func(sc *Scratch) Algorithm { return ZStream{Scratch: sc} },
}

// traceString renders every condition of a trace, block by block.
func traceString(res Result) string {
	var b strings.Builder
	for i, dcs := range res.Trace.Blocks {
		for _, c := range dcs.Conds {
			b.WriteString(string(rune('0' + i)))
			b.WriteString(": ")
			b.WriteString(c.String())
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestScratchReuse: a Result built into a scratch that earlier runs
// filled — over other snapshots and other pattern sizes — reads what one
// built into a fresh scratch reads: the same plan and the same conditions.
func TestScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pats := map[int]*pattern.Pattern{}
	for n := 1; n <= 6; n++ {
		pats[n] = seqPattern(t, n, n%2 == 0)
	}
	for _, alg := range algorithms {
		var sc Scratch
		for trial := 0; trial < 120; trial++ {
			pat := pats[1+r.Intn(6)]
			s := randomSnapshot(r, pat)
			got := alg(&sc).Generate(pat, s)
			want := alg(nil).Generate(pat, s)
			if !got.Plan.Equal(want.Plan) {
				t.Fatalf("%s, trial %d: plan %v from the reused scratch, %v from a fresh one", alg(nil).Name(), trial, got.Plan, want.Plan)
			}
			if g, w := traceString(got), traceString(want); g != w {
				t.Fatalf("%s, trial %d: trace from the reused scratch\n%s\nfrom a fresh one\n%s", alg(nil).Name(), trial, g, w)
			}
		}
	}
}

// TestGreedyStepCosts: block i's conditions compare step i's costs. Every
// LHS evaluates, bit for bit, to the cost of the position placed at step
// i given those placed before it, and every RHS to the cost of a position
// placed later; a step whose expressions a later step overwrote reads
// another step's costs.
func TestGreedyStepCosts(t *testing.T) {
	pat := seqPattern(t, 6, true)
	r := rand.New(rand.NewSource(29))
	var sc Scratch
	// stepCost multiplies in Expr.Eval's order: rate, unary, then the
	// placed positions in placement order.
	stepCost := func(s *stats.Snapshot, placed []int, j int) float64 {
		v := 1 * s.Rates[j] * s.Sel[j][j]
		for _, k := range placed {
			v *= s.Sel[min(k, j)][max(k, j)]
		}
		return v
	}
	for trial := 0; trial < 100; trial++ {
		s := randomSnapshot(r, pat)
		res := Greedy{Scratch: &sc}.Generate(pat, s)
		order := res.Plan.(*plan.OrderPlan).Order
		for i, dcs := range res.Trace.Blocks {
			want := stepCost(s, order[:i], order[i])
			for _, c := range dcs.Conds {
				if got := c.LHS.Eval(s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d, block %d: LHS %s reads %v, step %d's winner costs %v", trial, i, c.LHS, got, i, want)
				}
				rhs, found := c.RHS.Eval(s), false
				for _, j := range order[i+1:] {
					found = found || math.Float64bits(rhs) == math.Float64bits(stepCost(s, order[:i], j))
				}
				if !found {
					t.Fatalf("trial %d, block %d: RHS %s reads %v, no later position's step-%d cost", trial, i, c.RHS, rhs, i)
				}
			}
		}
	}
}

// TestGenerateAllocs: with its scratch warm, a generator allocates
// nothing — not the trace, not the plan, not a block label.
func TestGenerateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 3, 5, 8} {
		pat := seqPattern(t, n, true)
		s := randomSnapshot(r, pat)
		for _, alg := range algorithms {
			a := alg(new(Scratch))
			a.Generate(pat, s)
			if got := testing.AllocsPerRun(20, func() { a.Generate(pat, s) }); got != 0 {
				t.Errorf("%s, n=%d: %v allocations per Generate, want 0", a.Name(), n, got)
			}
		}
	}
}

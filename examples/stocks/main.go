// Stocks: tree-based (ZStream) adaptive detection on the near-uniform,
// slowly drifting workload that stands in for the paper's NASDAQ
// dataset. The pattern is the paper's conjunction example: three stock
// identifiers whose price deltas are strictly increasing,
// AND(A,B,C) WHERE A.diff < B.diff < C.diff. The demo contrasts the
// constant-threshold baseline with the invariant method, highlighting the
// regime in which the two are closest (§5.2).
package main

import (
	"fmt"
	"time"

	"acep"
)

func main() {
	w := acep.NewStocksWorkload(acep.StocksConfig{
		Types:  8,
		Events: 150000,
		Seed:   7,
	})
	pat, err := w.Pattern(acep.ConjunctionPatterns, 3, 100*acep.Millisecond)
	if err != nil {
		panic(err)
	}
	fmt.Println("pattern:", pat)

	policies := []struct {
		name string
		mk   func() acep.Policy
	}{
		{"threshold t=0.3", func() acep.Policy { return acep.NewThresholdPolicy(0.3) }},
		{"invariant d=0.3", func() acep.Policy {
			return acep.NewInvariantPolicy(acep.InvariantOptions{Distance: 0.3})
		}},
		{"invariant K=3, auto-d", func() acep.Policy {
			return acep.NewInvariantPolicy(acep.InvariantOptions{K: 3, AutoDistance: true})
		}},
	}
	for _, p := range policies {
		var matches uint64
		eng, err := acep.NewEngine(pat, acep.Config{
			Model:     acep.ZStreamTree, // tree-based plans, DP planner
			NewPolicy: p.mk,
			OnMatch:   func(*acep.Match) { matches++ },
		})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
		elapsed := time.Since(start)
		m := eng.Metrics()
		fmt.Printf("%-24s %9.0f ev/s  matches=%d  replans=%d  plan=%v\n",
			p.name,
			float64(len(w.Events))/elapsed.Seconds(),
			matches, m.Reoptimizations, eng.CurrentPlans()[0])
	}
}

package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/plan"
)

// BenchmarkProcess measures tree-engine event processing under a
// rare-first versus frequent-first join order.
func BenchmarkProcess(b *testing.B) {
	s := mkSchema(4)
	pat := seqChainPattern(s, 4, 100)
	r := rand.New(rand.NewSource(1))
	evs := genStream(r, s, []int{12, 6, 2, 1}, 50000, 3, 2)
	shapes := []struct {
		name string
		tp   *plan.TreePlan
	}{
		{"rare-first", plan.NewTreePlan(plan.Join(plan.Join(plan.Join(plan.Leaf(3), plan.Leaf(2)), plan.Leaf(1)), plan.Leaf(0)))},
		{"frequent-first", plan.NewTreePlan(plan.Join(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)), plan.Leaf(3)))},
	}
	for _, tc := range shapes {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := New(pat, tc.tp, func(*match.Match) {})
				for j := range evs {
					g.Process(&evs[j])
				}
				g.Finish()
			}
			b.SetBytes(int64(len(evs)))
		})
	}
}

// BenchmarkKeyed measures the equality index: SEQ of three over keyed
// traffic shaped like the cost ladder's stream K (ten Zipf-rated types,
// window 2400), left-deep in declaration order, with the key domain swept
// from one key — every tuple in one bucket, the single-bucket store's
// cost — up to more keys than a window holds events. No workload of the
// repository's benchmark runs the tree on a keyed stream, so this is
// where the tree's share of the gain is measured.
func BenchmarkKeyed(b *testing.B) {
	for _, keys := range []int{1, 8, 64, 4096} {
		w := gen.Traffic(gen.TrafficConfig{Types: 10, Events: 50000, Seed: 1, Keys: keys})
		pat, err := w.Pattern(gen.Sequence, 3, 2400)
		if err != nil {
			b.Fatal(err)
		}
		tp := plan.NewTreePlan(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)))
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			var evals uint64
			for i := 0; i < b.N; i++ {
				g := New(pat, tp, func(*match.Match) {})
				g.SetOwnedEmit(true)
				for j := range w.Events {
					g.Process(&w.Events[j])
				}
				g.Finish()
				evals = g.Stats().PredEvals
			}
			n := float64(len(w.Events))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
			b.ReportMetric(float64(evals)/n, "pred-evals/event")
		})
	}
}

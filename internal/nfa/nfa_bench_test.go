package nfa

import (
	"fmt"
	"math/rand"
	"testing"

	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/plan"
)

// BenchmarkProcess measures raw event processing on a size-4 sequence
// pattern under ascending- and descending-rate plan orders, exposing the
// cost gap that plan quality creates (the quantity adaptation optimizes).
func BenchmarkProcess(b *testing.B) {
	s := mkSchema(4)
	pat := seqChainPattern(s, 4, 100)
	r := rand.New(rand.NewSource(1))
	evs := genStream(r, s, []int{12, 6, 2, 1}, 50000, 3, 2)
	for _, tc := range []struct {
		name  string
		order []int
	}{
		{"ascending-rates", []int{3, 2, 1, 0}},
		{"descending-rates", []int{0, 1, 2, 3}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := New(pat, plan.NewOrderPlan(tc.order), func(*match.Match) {})
				for j := range evs {
					g.Process(&evs[j])
				}
				g.Finish()
			}
			b.SetBytes(int64(len(evs)))
		})
	}
}

// BenchmarkExtend isolates the partial-match extension path.
func BenchmarkExtend(b *testing.B) {
	s := mkSchema(2)
	pat := seqChainPattern(s, 2, 1000)
	r := rand.New(rand.NewSource(2))
	evs := genStream(r, s, []int{1, 1}, 20000, 2, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(pat, plan.NewOrderPlan([]int{0, 1}), func(*match.Match) {})
		for j := range evs {
			g.Process(&evs[j])
		}
		g.Finish()
	}
}

// BenchmarkKeyed measures the equality index: SEQ of three over keyed
// traffic shaped like the cost ladder's stream K (ten Zipf-rated types,
// window 2400), in declaration order, with the key domain swept from one
// key — every PM in one bucket, the single-bucket store's cost — up to
// more keys than a window holds events.
func BenchmarkKeyed(b *testing.B) {
	for _, keys := range []int{1, 8, 64, 4096} {
		w := gen.Traffic(gen.TrafficConfig{Types: 10, Events: 50000, Seed: 1, Keys: keys})
		pat, err := w.Pattern(gen.Sequence, 3, 2400)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			var evals uint64
			for i := 0; i < b.N; i++ {
				g := New(pat, plan.NewOrderPlan(pat.Core()), func(*match.Match) {})
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

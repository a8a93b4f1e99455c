package planner

import (
	"math/rand"
	"testing"
)

// BenchmarkGenerate measures the cost of one plan-generation run (the A
// the adaptation loop pays for on every reoptimization attempt) across
// pattern sizes and algorithms, each building into one reused scratch as
// a runner's does.
func BenchmarkGenerate(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{3, 5, 8} {
		pat := seqPattern(b, n, true)
		snap := randomSnapshot(r, pat)
		for _, alg := range algorithms {
			b.Run(alg(nil).Name()+"/n="+string(rune('0'+n)), func(b *testing.B) {
				a := alg(new(Scratch))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := a.Generate(pat, snap)
					if res.Plan == nil {
						b.Fatal("nil plan")
					}
				}
			})
		}
	}
}

// Benchmarks that regenerate the paper's tables and figures. One
// benchmark per table/figure (series grouped per the paper's layout);
// each reports the headline series metrics via b.ReportMetric and prints
// the full table with -v through b.Log. The internal/bench harness and
// cmd/acep-bench expose the same experiments with adjustable scale.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig6 -benchtime=1x
package acep_test

import (
	"bytes"
	"fmt"
	"testing"

	"acep/internal/bench"
	"acep/internal/gen"
)

// benchScale keeps `go test -bench=.` affordable while preserving the
// qualitative shapes; use cmd/acep-bench -events to scale up.
func benchScale() bench.Scale {
	sc := bench.DefaultScale()
	sc.Events = 12000
	sc.Sizes = []int{3, 5}
	return sc
}

// BenchmarkFig5 regenerates Figure 5: invariant-method throughput as a
// function of pattern size and distance d, for all four combos.
func BenchmarkFig5(b *testing.B) {
	for _, c := range bench.Combos() {
		c := c
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := bench.NewHarness(benchScale())
				f5, err := h.Fig5(c, bench.DefaultDGrid())
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				f5.Write(&buf)
				b.Log("\n" + buf.String())
				b.ReportMetric(f5.BestD(), "d_opt")
			}
		})
	}
}

// BenchmarkTable1 regenerates Table 1: quality of the d_avg estimator
// against the empirically optimal distance.
func BenchmarkTable1(b *testing.B) {
	for _, c := range bench.Combos() {
		c := c
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := bench.NewHarness(benchScale())
				f5, err := h.Fig5(c, bench.DefaultDGrid())
				if err != nil {
					b.Fatal(err)
				}
				rows, err := h.Table1(c, f5)
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				bench.WriteTable1(&buf, rows)
				b.Log("\n" + buf.String())
				if len(rows) > 0 {
					b.ReportMetric(rows[len(rows)-1].Quality, "quality_maxsize")
				}
			}
		})
	}
}

// methodsFigure runs the four-panel adaptation-method comparison for one
// combo and one pattern-set selection (-1 = averaged over all sets).
func methodsFigure(b *testing.B, c bench.Combo, kinds []gen.Kind, kindIdx int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		h := bench.NewHarness(benchScale())
		f5, err := h.Fig5(c, []float64{0, 0.2, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		topt, err := h.ScanThreshold(c, []float64{0.1, 0.3, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		data, err := h.Methods(c, kinds, topt, f5.BestD())
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		data.WriteFigure(&buf, kindIdx)
		b.Log("\n" + buf.String())

		// Headline series: relative gain of the invariant method over the
		// static plan at the largest size, plus its reoptimization count.
		var grid [][]bench.Result
		if kindIdx < 0 {
			grid = data.Avg()
		} else {
			grid = data.Results[kindIdx]
		}
		last := grid[len(grid)-1]
		static, invariant := last[0], last[len(last)-1]
		if static.Throughput > 0 {
			b.ReportMetric(invariant.Throughput/static.Throughput, "x_gain_invariant")
		}
		b.ReportMetric(float64(invariant.Reopts), "reopts_invariant")
		b.ReportMetric(invariant.Overhead*100, "overhead_%")
	}
}

// BenchmarkFig6..BenchmarkFig9: the main adaptation-method comparison,
// averaged over all five pattern sets, per dataset-algorithm combo.
func BenchmarkFig6(b *testing.B) { methodsFigure(b, bench.Combos()[0], gen.Kinds(), -1) }
func BenchmarkFig7(b *testing.B) { methodsFigure(b, bench.Combos()[1], gen.Kinds(), -1) }
func BenchmarkFig8(b *testing.B) { methodsFigure(b, bench.Combos()[2], gen.Kinds(), -1) }
func BenchmarkFig9(b *testing.B) { methodsFigure(b, bench.Combos()[3], gen.Kinds(), -1) }

// appendixFigure regenerates one appendix figure (Figures 10-29): the
// method comparison restricted to a single pattern set.
func appendixFigure(b *testing.B, figID int) {
	b.Helper()
	kind := gen.Kinds()[(figID-10)/4]
	combo := bench.Combos()[(figID-10)%4]
	b.Run(fmt.Sprintf("%s/%s", combo, kind), func(b *testing.B) {
		methodsFigure(b, combo, []gen.Kind{kind}, 0)
	})
}

// BenchmarkFig10_13: sequence patterns (appendix set 1) on all combos.
func BenchmarkFig10_13(b *testing.B) {
	for fig := 10; fig <= 13; fig++ {
		appendixFigure(b, fig)
	}
}

// BenchmarkFig14_17: conjunction patterns (appendix set 2).
func BenchmarkFig14_17(b *testing.B) {
	for fig := 14; fig <= 17; fig++ {
		appendixFigure(b, fig)
	}
}

// BenchmarkFig18_21: negation patterns (appendix set 3).
func BenchmarkFig18_21(b *testing.B) {
	for fig := 18; fig <= 21; fig++ {
		appendixFigure(b, fig)
	}
}

// BenchmarkFig22_25: Kleene closure patterns (appendix set 4).
func BenchmarkFig22_25(b *testing.B) {
	for fig := 22; fig <= 25; fig++ {
		appendixFigure(b, fig)
	}
}

// BenchmarkFig26_29: composite (OR of three sequences) patterns
// (appendix set 5).
func BenchmarkFig26_29(b *testing.B) {
	for fig := 26; fig <= 29; fig++ {
		appendixFigure(b, fig)
	}
}

// BenchmarkAblationK sweeps the K-invariant method (§3.3): invariants
// kept per building block versus replan count and throughput.
func BenchmarkAblationK(b *testing.B) {
	for _, c := range []bench.Combo{bench.Combos()[1], bench.Combos()[2]} {
		c := c
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := bench.NewHarness(benchScale())
				rows, err := h.AblationK(c, 6, []int{1, 2, 3, 5}, 0.2)
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				bench.WriteAblationK(&buf, c, 6, rows)
				b.Log("\n" + buf.String())
				b.ReportMetric(float64(rows[0].Reopts), "replans_K1")
				b.ReportMetric(float64(rows[len(rows)-1].Reopts), "replans_Kmax")
			}
		})
	}
}

// BenchmarkAblationSelector compares §3.5 invariant-selection strategies
// (tightest absolute gap, tightest relative gap, full DCS).
func BenchmarkAblationSelector(b *testing.B) {
	for _, c := range []bench.Combo{bench.Combos()[0], bench.Combos()[3]} {
		c := c
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := bench.NewHarness(benchScale())
				rows, err := h.AblationSelector(c, 6, 0.2)
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				bench.WriteAblationSelector(&buf, c, 6, rows)
				b.Log("\n" + buf.String())
			}
		})
	}
}

package bench

import (
	"fmt"
	"io"
	"time"
)

// us renders d in microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Write prints the Figure 5 throughput matrix.
func (d *Fig5Data) Write(w io.Writer) {
	fmt.Fprintf(w, "Figure 5 — invariant-method throughput vs pattern size and distance d (%s)\n", d.Combo)
	fmt.Fprintf(w, "%-8s", "d\\size")
	for _, s := range d.Sizes {
		fmt.Fprintf(w, "%12d", s)
	}
	fmt.Fprintln(w)
	for i, dv := range d.Ds {
		fmt.Fprintf(w, "%-8.2f", dv)
		for _, tp := range d.Throughput[i] {
			fmt.Fprintf(w, "%12.0f", tp)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "d_opt = %.2f\n", d.BestD())
}

// WriteTable1 prints Table 1 rows.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1 — quality of the average-relative-difference distance estimate")
	fmt.Fprintf(w, "%-18s%8s%10s%10s%10s\n", "combo", "size", "d_avg", "d_opt", "quality")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s%8d%10.4f%10.2f%10.3f\n", r.Combo, r.Size, r.DAvg, r.DOpt, r.Quality)
	}
}

// WriteFigure prints the panels of an adaptation-method comparison.
// kindIdx selects a pattern set (Figures 10-29); pass -1 for the average
// over sets (Figures 6-9).
func (m *MethodsData) WriteFigure(w io.Writer, kindIdx int) {
	var grid [][]Result
	label := "all pattern sets (averaged)"
	if kindIdx >= 0 {
		grid = m.Results[kindIdx]
		label = m.Kinds[kindIdx].String() + " patterns"
	} else {
		grid = m.Avg()
	}
	fmt.Fprintf(w, "Adaptation methods on %s — %s (t_opt=%.2f, d_opt=%.2f)\n",
		m.Combo, label, m.TOpt, m.DOpt)

	// Each panel renders one method's result in its row; static is the
	// row's first method.
	panels := []struct {
		title string
		cell  func(r, static Result) string
	}{
		{"a: throughput, events/sec — higher is better", func(r, _ Result) string { return fmt.Sprintf("%15.0f", r.Throughput) }},
		{"b: relative throughput gain over static — higher is better", func(r, static Result) string {
			gain := 0.0
			if static.Throughput > 0 {
				gain = r.Throughput / static.Throughput
			}
			return fmt.Sprintf("%15.2f", gain)
		}},
		{"c: total number of plan reoptimizations", func(r, _ Result) string { return fmt.Sprintf("%15d", r.Reopts) }},
		{"d: computational overhead, % of run time — lower is better", func(r, _ Result) string { return fmt.Sprintf("%14.2f%%", r.Overhead*100) }},
		{"e: partial matches created", func(r, _ Result) string { return fmt.Sprintf("%15d", r.PMCreated) }},
		{"f: matches", func(r, _ Result) string { return fmt.Sprintf("%15d", r.Matches) }},
		{"g: statistics refresh, % of run time — lower is better", func(r, _ Result) string { return fmt.Sprintf("%14.2f%%", r.StatShare*100) }},
		{"h: per replacement, A's runs, µs", func(r, _ Result) string { return fmt.Sprintf("%15.1f", us(r.Replace.A)) }},
		{"h: per replacement, deploying the plan (re-plan or build, seed, advance), µs", func(r, _ Result) string { return fmt.Sprintf("%15.1f", us(r.Replace.Deploy)) }},
		{"h: per replacement, events handed to draining evaluators", func(r, _ Result) string { return fmt.Sprintf("%15.0f", r.Replace.DrainEvents) }},
		{"h: per replacement, drain-side completions withheld", func(r, _ Result) string { return fmt.Sprintf("%15.1f", r.Replace.Suppressed) }},
	}
	for _, p := range panels {
		fmt.Fprintf(w, "\n(%s)\n%-8s", p.title, "size")
		for _, name := range m.Methods {
			fmt.Fprintf(w, "%15s", name)
		}
		fmt.Fprintln(w)
		for si, size := range m.Sizes {
			fmt.Fprintf(w, "%-8d", size)
			for mi := range m.Methods {
				fmt.Fprint(w, p.cell(grid[si][mi], grid[si][0]))
			}
			fmt.Fprintln(w)
		}
	}
}

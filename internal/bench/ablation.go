package bench

import (
	"fmt"
	"io"

	"acep/internal/core"
	"acep/internal/gen"
)

// AblationK measures the K-invariant method (§3.3) across K values: more
// invariants per building block trade verification work for fewer false
// negatives (missed reoptimization opportunities that later surface as
// corrective replans).
type AblationKRow struct {
	K          int
	Throughput float64
	Reopts     uint64
	Overhead   float64
}

// AblationK sweeps K on a sequence pattern of the given size.
func (h *Harness) AblationK(c Combo, size int, ks []int, d float64) ([]AblationKRow, error) {
	pat, err := h.Pattern(c, gen.Sequence, size)
	if err != nil {
		return nil, err
	}
	var rows []AblationKRow
	for _, k := range ks {
		res, err := h.RunBest(c, pat, func() core.Policy { return &core.Invariant{K: k, D: d} }, 2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationKRow{K: k, Throughput: res.Throughput, Reopts: res.Reopts, Overhead: res.Overhead})
	}
	return rows, nil
}

// WriteAblationK prints the K sweep.
func WriteAblationK(w io.Writer, c Combo, size int, rows []AblationKRow) {
	fmt.Fprintf(w, "Ablation — K-invariant method (§3.3) on %s, sequence size %d\n", c, size)
	fmt.Fprintf(w, "%-6s%14s%10s%12s\n", "K", "events/sec", "replans", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d%14.0f%10d%11.2f%%\n", r.K, r.Throughput, r.Reopts, r.Overhead*100)
	}
}

// AblationSelectorRow compares invariant-selection strategies (§3.5).
type AblationSelectorRow struct {
	Name       string
	Throughput float64
	Reopts     uint64
}

// AblationSelector compares the tightest-absolute-gap heuristic (§3.1)
// with the relative-gap variant and with monitoring the full DCS
// (Theorem 2's decision function).
func (h *Harness) AblationSelector(c Combo, size int, d float64) ([]AblationSelectorRow, error) {
	pat, err := h.Pattern(c, gen.Sequence, size)
	if err != nil {
		return nil, err
	}
	selectors := []struct {
		name string
		sel  core.Selector
	}{
		{"tightest-gap", core.TightestGap},
		{"tightest-relgap", core.TightestRelGap},
		{"full-dcs", core.All},
	}
	var rows []AblationSelectorRow
	for _, s := range selectors {
		res, err := h.RunBest(c, pat, func() core.Policy {
			return &core.Invariant{D: d, Select: s.sel}
		}, 2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationSelectorRow{Name: s.name, Throughput: res.Throughput, Reopts: res.Reopts})
	}
	return rows, nil
}

// WriteAblationSelector prints the selector comparison.
func WriteAblationSelector(w io.Writer, c Combo, size int, rows []AblationSelectorRow) {
	fmt.Fprintf(w, "Ablation — invariant selection strategy (§3.5) on %s, sequence size %d\n", c, size)
	fmt.Fprintf(w, "%-18s%14s%10s\n", "selector", "events/sec", "replans")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s%14.0f%10d\n", r.Name, r.Throughput, r.Reopts)
	}
}

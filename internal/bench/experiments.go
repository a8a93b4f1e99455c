package bench

import (
	"time"

	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/gen"
)

// DefaultDGrid is the invariant-distance sweep of Figure 5.
func DefaultDGrid() []float64 { return []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5} }

// DefaultTGrid is the threshold sweep used to find t_opt for the
// constant-threshold baseline (the paper found t_opt empirically with "a
// similar series of runs").
func DefaultTGrid() []float64 { return []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8} }

// Fig5Data holds throughput of the invariant method as a function of
// pattern size and distance d for one combo (paper Figure 5).
type Fig5Data struct {
	Combo      Combo
	Ds         []float64
	Sizes      []int
	Throughput [][]float64 // [dIdx][sizeIdx]
}

// Fig5 measures the invariant method on sequence patterns over the d
// sweep.
func (h *Harness) Fig5(c Combo, ds []float64) (*Fig5Data, error) {
	data := &Fig5Data{Combo: c, Ds: ds, Sizes: h.Scale.Sizes}
	for _, d := range ds {
		row := make([]float64, 0, len(h.Scale.Sizes))
		for _, size := range h.Scale.Sizes {
			pat, err := h.Pattern(c, gen.Sequence, size)
			if err != nil {
				return nil, err
			}
			res, err := h.RunBest(c, pat, func() core.Policy { return &core.Invariant{D: d} }, 3)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Throughput)
		}
		data.Throughput = append(data.Throughput, row)
	}
	return data, nil
}

// BestD returns the d with the highest geometric-mean throughput across
// sizes: the combo's d_opt.
func (d *Fig5Data) BestD() float64 {
	best, bestScore := d.Ds[0], -1.0
	for i, dv := range d.Ds {
		score := 1.0
		for _, tp := range d.Throughput[i] {
			score *= tp
		}
		if score > bestScore {
			best, bestScore = dv, score
		}
	}
	return best
}

// Table1Row is one row of Table 1: the quality of the average-relative-
// difference estimate d_avg against the empirically optimal d_opt.
type Table1Row struct {
	Combo   Combo
	Size    int
	DAvg    float64
	DOpt    float64
	Quality float64 // min(davg/dopt, dopt/davg)
}

// Table1 computes d_avg for each pattern size by monitoring the initial
// execution of the plan generation algorithm on statistics estimated from
// a warmup prefix of the stream (§3.4), and compares it with d_opt taken
// from the Figure 5 sweep.
func (h *Harness) Table1(c Combo, f5 *Fig5Data) ([]Table1Row, error) {
	dopt := f5.BestD()
	var rows []Table1Row
	for _, size := range h.Scale.Sizes {
		if size < 4 {
			continue // the paper reports sizes 4..8
		}
		pat, err := h.Pattern(c, gen.Sequence, size)
		if err != nil {
			return nil, err
		}
		w := h.Workload(c.Dataset)
		warm := len(w.Events) / 10
		if warm < 1000 {
			warm = len(w.Events) / 2
		}
		// One check, at the prefix's last event, under a policy that runs
		// A at every check.
		var davg float64
		_, err = engine.Decisions(pat, engine.Config{
			Model: c.Model, CheckEvery: warm,
			NewPolicy: func() core.Policy { return core.Unconditional{} },
		}, w.Events[:warm], func(ck *engine.Check) {
			davg = ck.Trace.AvgRelDiffTightest(ck.Snapshot)
		})
		if err != nil {
			return nil, err
		}
		q := 0.0
		if davg > 0 && dopt > 0 {
			q = davg / dopt
			if q > 1 {
				q = 1 / q
			}
		}
		rows = append(rows, Table1Row{Combo: c, Size: size, DAvg: davg, DOpt: dopt, Quality: q})
	}
	return rows, nil
}

// MethodsData holds the four-panel comparison of adaptation methods for
// one combo (Figures 6-9 averaged over pattern sets; Figures 10-29 are
// the per-set views).
type MethodsData struct {
	Combo   Combo
	Kinds   []gen.Kind
	Sizes   []int
	Methods []string
	TOpt    float64
	DOpt    float64
	// Results[kindIdx][sizeIdx][methodIdx]
	Results [][][]Result
}

// MethodNames lists the compared adaptation methods in display order.
func MethodNames() []string {
	return []string{"static", "unconditional", "threshold", "invariant"}
}

// ScanThreshold finds t_opt for the combo by measuring the threshold
// method on a size-5 sequence pattern over the candidate grid.
func (h *Harness) ScanThreshold(c Combo, grid []float64) (float64, error) {
	pat, err := h.Pattern(c, gen.Sequence, 5)
	if err != nil {
		return 0, err
	}
	best, bestTp := grid[0], -1.0
	for _, t := range grid {
		res, err := h.RunBest(c, pat, func() core.Policy { return &core.Threshold{T: t} }, 3)
		if err != nil {
			return 0, err
		}
		if res.Throughput > bestTp {
			best, bestTp = t, res.Throughput
		}
	}
	return best, nil
}

// Methods runs the full adaptation-method comparison for one combo.
func (h *Harness) Methods(c Combo, kinds []gen.Kind, topt, dopt float64) (*MethodsData, error) {
	data := &MethodsData{
		Combo:   c,
		Kinds:   kinds,
		Sizes:   h.Scale.Sizes,
		Methods: MethodNames(),
		TOpt:    topt,
		DOpt:    dopt,
	}
	for _, kind := range kinds {
		perKind := make([][]Result, 0, len(h.Scale.Sizes))
		for _, size := range h.Scale.Sizes {
			pat, err := h.Pattern(c, kind, size)
			if err != nil {
				return nil, err
			}
			perSize := make([]Result, 0, len(data.Methods))
			for _, method := range data.Methods {
				newPolicy, err := core.PolicyFromString(method, topt, dopt, 0)
				if err != nil {
					return nil, err
				}
				res, err := h.Run(c, pat, newPolicy)
				if err != nil {
					return nil, err
				}
				perSize = append(perSize, res)
			}
			perKind = append(perKind, perSize)
		}
		data.Results = append(data.Results, perKind)
	}
	return data, nil
}

// Avg averages the results over the pattern kinds: Figures 6-9 report
// "averaged over all pattern sets". Throughputs, overheads, statistics
// shares, matches, partial matches created and reoptimization counts are
// arithmetic means (the counts rounded), and so are the replacement costs;
// Elapsed is the total.
func (m *MethodsData) Avg() [][]Result {
	out := make([][]Result, len(m.Sizes))
	n := float64(len(m.Kinds))
	mean := func(sum uint64) uint64 { return uint64(float64(sum)/n + 0.5) }
	for si := range m.Sizes {
		out[si] = make([]Result, len(m.Methods))
		for mi := range m.Methods {
			var acc Result
			for ki := range m.Kinds {
				r := m.Results[ki][si][mi]
				acc.Throughput += r.Throughput
				acc.Matches += r.Matches
				acc.Reopts += r.Reopts
				acc.Overhead += r.Overhead
				acc.StatShare += r.StatShare
				acc.PMCreated += r.PMCreated
				acc.Elapsed += r.Elapsed
				acc.Replace.A += r.Replace.A
				acc.Replace.Deploy += r.Replace.Deploy
				acc.Replace.DrainEvents += r.Replace.DrainEvents
				acc.Replace.Suppressed += r.Replace.Suppressed
			}
			acc.Throughput /= n
			acc.Overhead /= n
			acc.StatShare /= n
			acc.Replace.A = time.Duration(float64(acc.Replace.A) / n)
			acc.Replace.Deploy = time.Duration(float64(acc.Replace.Deploy) / n)
			acc.Replace.DrainEvents /= n
			acc.Replace.Suppressed /= n
			acc.Matches, acc.Reopts, acc.PMCreated = mean(acc.Matches), mean(acc.Reopts), mean(acc.PMCreated)
			out[si][mi] = acc
		}
	}
	return out
}

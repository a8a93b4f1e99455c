package bench

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"acep/internal/core"
	"acep/internal/gen"
	"acep/internal/pattern"
)

// DefaultDGrid is the invariant-distance sweep of Figure 5.
func DefaultDGrid() []float64 { return []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5} }

// DefaultTGrid is the threshold sweep used to find t_opt for the
// constant-threshold baseline (the paper found t_opt empirically with "a
// similar series of runs").
func DefaultTGrid() []float64 { return []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8} }

// sweepRepeats is how many times a sweep measures each (point, size).
const sweepRepeats = 3

// Point is one grid point of a sweep: its label and the policy it runs.
type Point struct {
	Label     string
	NewPolicy func() core.Policy
}

// DPoints is Figure 5's grid: the invariant method at each distance d.
func DPoints(ds []float64) []Point {
	return points(ds, "%.2f", func(d float64) core.Policy { return &core.Invariant{D: d} })
}

// TPoints is the t_opt scan's grid: the constant-threshold method at each
// threshold t.
func TPoints(ts []float64) []Point {
	return points(ts, "%.2f", func(t float64) core.Policy { return &core.Threshold{T: t} })
}

// KPoints is the K-invariant ablation's grid (§3.3): the invariant method
// at distance d keeping k invariants per building block, for each k. More
// invariants trade verification work for fewer missed reoptimizations.
func KPoints(ks []int, d float64) []Point {
	return points(ks, "%d", func(k int) core.Policy { return &core.Invariant{K: k, D: d} })
}

// points labels each value by format and runs policy(value) there.
func points[V any](vs []V, format string, policy func(V) core.Policy) []Point {
	out := make([]Point, len(vs))
	for i, v := range vs {
		out[i] = Point{fmt.Sprintf(format, v), func() core.Policy { return policy(v) }}
	}
	return out
}

// SelectorPoints is the invariant-selection ablation's grid (§3.5): the
// tightest-absolute-gap heuristic (§3.1), the relative-gap variant and
// monitoring the full DCS (Theorem 2's decision function), at distance d.
func SelectorPoints(d float64) []Point {
	sel := func(s core.Selector) func() core.Policy {
		return func() core.Policy { return &core.Invariant{D: d, Select: s} }
	}
	return []Point{
		{"tightest-gap", sel(core.TightestGap)},
		{"tightest-relgap", sel(core.TightestRelGap)},
		{"full-dcs", sel(core.All)},
	}
}

// Sweep is a sweep's measurements: every point on the sequence pattern of
// every size, sweepRepeats times.
type Sweep struct {
	Param  string // the swept parameter, named in the table's corner and as <Param>_opt
	Labels []string
	Sizes  []int
	// Throughput[point][size][repeat] is events/s, wall clock.
	Throughput [][][]float64
	// PMCreated and Reopts are each point's partial matches created and
	// plan replacements, summed over the sizes: exact, every repeat
	// counts the same.
	PMCreated, Reopts []uint64
}

// Sweep measures every point on the combo's sequence pattern of each
// size, round-robin: every (point, size) once, then again, sweepRepeats
// times, so a drift in the host's speed hits every point alike.
func (h *Harness) Sweep(param string, c Combo, sizes []int, points []Point) (*Sweep, error) {
	n := len(points)
	s := &Sweep{Param: param, Labels: make([]string, n), Sizes: sizes,
		Throughput: make([][][]float64, n), PMCreated: make([]uint64, n), Reopts: make([]uint64, n)}
	pats := make([]*pattern.Pattern, len(sizes))
	for si, size := range sizes {
		var err error
		if pats[si], err = h.Pattern(c, gen.Sequence, size); err != nil {
			return nil, err
		}
	}
	for p, pt := range points {
		s.Labels[p], s.Throughput[p] = pt.Label, make([][]float64, len(sizes))
	}
	for rep := 0; rep < sweepRepeats; rep++ {
		for p, pt := range points {
			var pms, reopts uint64
			for si, pat := range pats {
				res, err := h.Run(c, pat, pt.NewPolicy)
				if err != nil {
					return nil, err
				}
				s.Throughput[p][si] = append(s.Throughput[p][si], res.Throughput)
				pms, reopts = pms+res.PMCreated, reopts+res.Reopts
			}
			if rep > 0 && (pms != s.PMCreated[p] || reopts != s.Reopts[p]) {
				return nil, fmt.Errorf("bench: %s, %s = %s: the repeats' counters differ", c, param, pt.Label)
			}
			s.PMCreated[p], s.Reopts[p] = pms, reopts
		}
	}
	return s, nil
}

// Choice is the choice rule's outcome on a sweep.
type Choice struct {
	Best  int     // the chosen point
	Noise float64 // the widest (max − min) / median of any point's per-repeat scores
	Tied  []int   // the points whose median is within Noise of the best, in grid order
	By    string  // what decided among them
}

// Choose picks a sweep's point by throughput, as the paper picks d_opt
// and t_opt, but only as far as the sweep's own repeats resolve it. A
// point's score in a repeat is the geometric mean of its events/s over
// the sizes. It ties with the best median score when its median is at
// least best × (1 − Noise). Among tied points the least PMCreated wins,
// then the fewest replacements, then the first in grid order.
func (s *Sweep) Choose() Choice {
	var ch Choice
	med := make([]float64, len(s.Labels))
	for p := range med {
		scores := make([]float64, len(s.Throughput[p][0]))
		for r := range scores {
			logs := 0.0
			for si := range s.Sizes {
				logs += math.Log(s.Throughput[p][si][r])
			}
			scores[r] = math.Exp(logs / float64(len(s.Sizes)))
		}
		med[p] = median(scores)
		if sp := (slices.Max(scores) - slices.Min(scores)) / med[p]; p == 0 || sp > ch.Noise {
			ch.Noise = sp
		}
	}
	top := slices.Max(med)
	for p, m := range med {
		if m >= top*(1-ch.Noise) {
			ch.Tied = append(ch.Tied, p)
		}
	}
	order := slices.Clone(ch.Tied)
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(s.PMCreated[a], s.PMCreated[b]), cmp.Compare(s.Reopts[a], s.Reopts[b]))
	})
	// What decided is the first counter the choice and the runner-up differ on.
	ch.Best, ch.By = order[0], "throughput"
	if len(order) > 1 {
		a, b := order[0], order[1]
		switch {
		case s.PMCreated[a] != s.PMCreated[b]:
			ch.By = "PMCreated"
		case s.Reopts[a] != s.Reopts[b]:
			ch.By = "replacements"
		default:
			ch.By = "grid order"
		}
	}
	return ch
}

// median returns the median of vs, which it leaves unchanged.
func median(vs []float64) float64 {
	v := slices.Sorted(slices.Values(vs))
	return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
}

// Write prints the sweep under title: each point's median events/s at each
// size and its counters, then the choice and what made it.
func (s *Sweep) Write(w io.Writer, title string) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-16s", s.Param+`\size`)
	for _, size := range s.Sizes {
		fmt.Fprintf(w, "%12d", size)
	}
	fmt.Fprintf(w, "%12s%10s\n", "PMCreated", "replans")
	for p, label := range s.Labels {
		fmt.Fprintf(w, "%-16s", label)
		for si := range s.Sizes {
			fmt.Fprintf(w, "%12.0f", median(s.Throughput[p][si]))
		}
		fmt.Fprintf(w, "%12d%10d\n", s.PMCreated[p], s.Reopts[p])
	}
	ch := s.Choose()
	tied := make([]string, len(ch.Tied))
	for i, p := range ch.Tied {
		tied[i] = s.Labels[p]
	}
	fmt.Fprintf(w, "noise %.1f%% (widest spread of a point's %d repeats); tied with the best median: %s; decided by %s\n",
		ch.Noise*100, len(s.Throughput[0][0]), strings.Join(tied, ", "), ch.By)
	fmt.Fprintf(w, "%s_opt = %s\n", s.Param, s.Labels[ch.Best])
}

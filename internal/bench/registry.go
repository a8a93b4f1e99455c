package bench

import (
	"fmt"
	"io"
	"slices"

	"acep/internal/gen"
)

// Experiment is one row of the registry: what `acep-bench -list` prints,
// what `-exp all` iterates and what Runner.Run dispatches to.
type Experiment struct {
	ID  string
	Doc string
	run func(r *Runner, w io.Writer) error
}

// datasets are the two workload regimes every non-paper experiment runs
// on (as <family>-traffic and <family>-stocks).
var datasets = []string{"traffic", "stocks"}

// Experiments lists every runnable experiment: the paper's evaluation
// (fig5, table1, fig6-fig29) and its two ablations, the shedding recall
// frontier, and the four fault drills. Throughput and per-layer cost are
// not here: they come from benchmark/ (see benchmark/README.md).
func Experiments() []Experiment {
	out := []Experiment{
		{"fig5", "Figure 5: invariant-method throughput vs pattern size and distance d, per combo; yields d_opt", (*Runner).fig5},
		{"table1", "Table 1: quality of the d_avg estimate against the empirical d_opt", (*Runner).table1},
	}
	cs := Combos()
	for i, c := range cs {
		out = append(out, Experiment{
			fmt.Sprintf("fig%d", 6+i),
			fmt.Sprintf("Figure %d: adaptation methods on %s, averaged over all pattern sets", 6+i, c),
			func(r *Runner, w io.Writer) error { return r.methods(w, c, -1) },
		})
	}
	// Appendix: figs 10-29, grouped by pattern set, four combos each.
	for ki, kind := range gen.Kinds() {
		for ci, c := range cs {
			out = append(out, Experiment{
				fmt.Sprintf("fig%d", 10+4*ki+ci),
				fmt.Sprintf("Figure %d: adaptation methods on %s, %s patterns", 10+4*ki+ci, c, kind),
				func(r *Runner, w io.Writer) error { return r.methods(w, c, ki) },
			})
		}
	}
	out = append(out,
		Experiment{"ablation-k", "Ablation (§3.3): the K-invariant method's throughput, partial matches and replans for K = 1, 2, 3, 5, per combo, sequence patterns of the largest size",
			func(r *Runner, w io.Writer) error {
				return r.ablation(w, "K-invariant method (§3.3)", "K", KPoints([]int{1, 2, 3, 5}, ablationD))
			}},
		Experiment{"ablation-selector", "Ablation (§3.5): tightest-gap, tightest-relative-gap and full-DCS invariant selection, per combo, sequence patterns of the largest size",
			func(r *Runner, w io.Writer) error {
				return r.ablation(w, "invariant selection strategy (§3.5)", "selector", SelectorPoints(ablationD))
			}},
	)
	for _, ds := range datasets {
		out = append(out, Experiment{
			"shed-" + ds,
			"shedding: throughput-vs-recall frontier of every policy x drop target under forced overload, keyed " + ds,
			func(r *Runner, w io.Writer) error { return r.shedding(w, ds) },
		})
	}
	for _, dr := range drills {
		for _, ds := range datasets {
			out = append(out, Experiment{
				dr.name + "-" + ds,
				"drill, keyed " + ds + ": " + dr.doc,
				func(r *Runner, w io.Writer) error {
					rec, err := r.H.Drill(dr.name, ds)
					if err != nil {
						return err
					}
					rec.Write(w)
					return r.record(rec)
				},
			})
		}
	}
	return out
}

// tuned caches per-combo tuning (d_opt from the Figure 5 sweep, t_opt
// from the threshold sweep) and the full method-comparison data so the
// main figure and the five appendix figures of one combo share a single
// measurement pass.
type tuned struct {
	dopt, topt float64
	fig5       *Sweep
	methods    *MethodsData
}

// Runner executes experiments by id, caching tuning per combo.
type Runner struct {
	H *Harness
	// ShedPolicies narrows the shed-* experiments to the named policies
	// (nil: all); QueueCap > 0 runs them through bounded drop-newest shard
	// queues of that many events (see Harness.Shedding).
	ShedPolicies []string
	QueueCap     int
	// JSON, when non-nil, receives one record per run of an experiment
	// that has one (shed-* and the drills), in BENCH_*.json format.
	JSON io.Writer

	cache map[string]*tuned
}

// NewRunner wraps a harness.
func NewRunner(h *Harness) *Runner {
	return &Runner{H: h, cache: make(map[string]*tuned)}
}

// Run executes one experiment id and writes its tables to w.
func (r *Runner) Run(w io.Writer, id string) error {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.run(r, w)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (acep-bench -list shows the ids)", id)
}

func (r *Runner) record(v any) error {
	if r.JSON == nil {
		return nil
	}
	return WriteJSON(r.JSON, v)
}

// tune computes (or returns cached) d_opt and t_opt for a combo.
func (r *Runner) tune(c Combo) (*tuned, error) {
	if t, ok := r.cache[c.String()]; ok {
		return t, nil
	}
	ds, ts := DefaultDGrid(), DefaultTGrid()
	f5, err := r.H.Sweep("d", c, r.H.Scale.Sizes, DPoints(ds))
	if err != nil {
		return nil, err
	}
	tscan, err := r.H.Sweep("t", c, []int{5}, TPoints(ts))
	if err != nil {
		return nil, err
	}
	t := &tuned{dopt: ds[f5.Choose().Best], topt: ts[tscan.Choose().Best], fig5: f5}
	r.cache[c.String()] = t
	return t, nil
}

func (r *Runner) fig5(w io.Writer) error {
	for _, c := range Combos() {
		t, err := r.tune(c)
		if err != nil {
			return err
		}
		t.fig5.Write(w, fmt.Sprintf("Figure 5 — invariant-method throughput, median events/s, vs pattern size and distance d (%s)", c))
		fmt.Fprintln(w)
	}
	return nil
}

func (r *Runner) table1(w io.Writer) error {
	var rows []Table1Row
	for _, c := range Combos() {
		t, err := r.tune(c)
		if err != nil {
			return err
		}
		cr, err := r.H.Table1(c, t.dopt)
		if err != nil {
			return err
		}
		rows = append(rows, cr...)
	}
	WriteTable1(w, rows)
	return nil
}

// methods prints one method-comparison figure of a combo: kind < 0 is
// the average over all pattern sets (main figures 6-9), otherwise a
// single pattern set (appendix figures 10-29).
func (r *Runner) methods(w io.Writer, c Combo, kind int) error {
	t, err := r.tune(c)
	if err != nil {
		return err
	}
	if t.methods == nil {
		if t.methods, err = r.H.Methods(c, gen.Kinds(), t.topt, t.dopt); err != nil {
			return err
		}
	}
	t.methods.WriteFigure(w, kind)
	return nil
}

// ablationD is the invariant distance the ablations run at, as the root
// package's BenchmarkAblationK and BenchmarkAblationSelector do.
const ablationD = 0.2

// ablation sweeps the points on every combo at the scale's largest
// pattern size. The root package's benchmarks drive the same sweeps at a
// fixed size to report their headline metrics, as its BenchmarkFig*
// do for the figures this registry prints.
func (r *Runner) ablation(w io.Writer, what, param string, points []Point) error {
	size := slices.Max(r.H.Scale.Sizes)
	for _, c := range Combos() {
		s, err := r.H.Sweep(param, c, []int{size}, points)
		if err != nil {
			return err
		}
		s.Write(w, fmt.Sprintf("Ablation — %s on %s, sequence size %d", what, c, size))
		fmt.Fprintln(w)
	}
	return nil
}

func (r *Runner) shedding(w io.Writer, dataset string) error {
	d, err := r.H.Shedding(dataset, DefaultShedTargets(), r.ShedPolicies, r.QueueCap)
	if err != nil {
		return err
	}
	d.Write(w)
	return r.record(d)
}

// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5 and Appendix A) on the
// synthetic stand-in workloads. See DESIGN.md for the experiment index
// and EXPERIMENTS.md for recorded paper-vs-measured comparisons.
//
// All experiments are deterministic given a Scale (seed included); every
// compared adaptation method processes the identical event sequence.
package bench

import (
	"time"

	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/stats"
)

// Combo is a dataset-algorithm pair, the unit the paper's figures are
// organized by.
type Combo struct {
	Dataset string // "traffic" or "stocks"
	Model   engine.Model
}

// String renders e.g. "traffic/greedy".
func (c Combo) String() string {
	alg := "greedy"
	if c.Model == engine.ZStreamTree {
		alg = "zstream"
	}
	return c.Dataset + "/" + alg
}

// Combos lists the four dataset-algorithm pairs of the evaluation.
func Combos() []Combo {
	return []Combo{
		{"traffic", engine.GreedyNFA},
		{"traffic", engine.ZStreamTree},
		{"stocks", engine.GreedyNFA},
		{"stocks", engine.ZStreamTree},
	}
}

// Scale controls experiment size; the defaults keep a full figure under a
// minute while preserving the paper's qualitative shapes. The CLI scales
// them up.
type Scale struct {
	// Events per measured run.
	Events int
	// Sizes is the pattern-size sweep (paper: 3..8).
	Sizes []int
	// Seed drives workload generation.
	Seed int64
	// Window is the pattern time window in logical ms.
	Window event.Time
	// CheckEvery is the adaptation check interval in events.
	CheckEvery int
	// Types is the number of event types in the generated workloads.
	Types int
	// Keys is the number of distinct partition keys in the keyed workload
	// variants used by the shedding experiment and the fault drills (0
	// picks each one's default, tuned for nonzero match counts; see
	// keyedWorkload).
	Keys int
}

// DefaultScale returns the scaled-down defaults used by `go test -bench`.
func DefaultScale() Scale {
	return Scale{
		Events:     60000,
		Sizes:      []int{3, 4, 5, 6, 7, 8},
		Seed:       1,
		Window:     150,
		CheckEvery: 500,
		Types:      10,
	}
}

// workload generates a dataset; keys > 0 adds a partition-key attribute
// (see keyedWorkload).
func (s Scale) workload(dataset string, keys int) *gen.Workload {
	switch dataset {
	case "traffic":
		return gen.Traffic(gen.TrafficConfig{
			Types: s.Types, Events: s.Events, Seed: s.Seed, MeanGap: 2,
			Skew: 1.2, Shifts: 3, Keys: keys,
		})
	case "stocks":
		return gen.Stocks(gen.StocksConfig{
			Types: s.Types, Events: s.Events, Seed: s.Seed, MeanGap: 2,
			DriftEvery: 400, DriftMag: 0.12, Keys: keys,
		})
	default:
		panic("bench: unknown dataset " + dataset)
	}
}

// Result is the outcome of one measured run.
type Result struct {
	Throughput float64 // events/second (wall clock)
	Matches    uint64
	Reopts     uint64
	Overhead   float64 // fraction of wall time in D and A
	StatShare  float64 // fraction of wall time refreshing the statistics
	PMCreated  uint64
	Elapsed    time.Duration
	// Replace is what one plan replacement cost, on average (zero when the
	// run made none).
	Replace ReplaceCost
}

// ReplaceCost prices one plan replacement: A's time (every run of A, the
// ones that deployed nothing included, charged to the replacements), the
// time deploying the plan took (re-planning the retired evaluator or
// building one, seeding it and advancing it), the events handed to the
// draining evaluators, and the completions those withheld under the §2.2
// emit filter — work the new plan repeats.
type ReplaceCost struct {
	A, Deploy   time.Duration
	DrainEvents float64
	Suppressed  float64
}

// replaceCost divides the run's totals by its replacements.
func replaceCost(m engine.Metrics) ReplaceCost {
	if m.Reoptimizations == 0 {
		return ReplaceCost{}
	}
	n := float64(m.Reoptimizations)
	return ReplaceCost{
		A:           time.Duration(float64(m.PlanTime) / n),
		Deploy:      time.Duration(float64(m.MigrateTime) / n),
		DrainEvents: float64(m.DrainEvents) / n,
		Suppressed:  float64(m.Suppressed) / n,
	}
}

// Harness caches workloads so the many runs of one experiment share the
// generated streams.
type Harness struct {
	Scale     Scale
	workloads map[string]*gen.Workload
	initial   map[*pattern.Pattern]*stats.Snapshot
}

// NewHarness builds a harness at the given scale.
func NewHarness(s Scale) *Harness {
	return &Harness{
		Scale:     s,
		workloads: make(map[string]*gen.Workload),
		initial:   make(map[*pattern.Pattern]*stats.Snapshot),
	}
}

// initialStats computes (and caches) the a-priori statistics every
// policy's initial plan is built from: exact statistics over the first 5%
// of the stream. This matches the paper's setup, where each system starts
// from a plan optimized for the initial data characteristics; the static
// baseline then keeps that plan while the shifts invalidate it.
func (h *Harness) initialStats(dataset string, pat *pattern.Pattern) *stats.Snapshot {
	if s, ok := h.initial[pat]; ok {
		return s
	}
	w := h.Workload(dataset)
	warm := len(w.Events) / 20
	if warm < 500 {
		warm = len(w.Events) / 2
	}
	s := stats.Exact(pat, w.Events[:warm])
	h.initial[pat] = s
	return s
}

// Workload returns the cached dataset.
func (h *Harness) Workload(dataset string) *gen.Workload {
	w, ok := h.workloads[dataset]
	if !ok {
		w = h.Scale.workload(dataset, 0)
		h.workloads[dataset] = w
	}
	return w
}

// Pattern builds the pattern of a kind and size over the combo's dataset.
func (h *Harness) Pattern(c Combo, kind gen.Kind, size int) (*pattern.Pattern, error) {
	return h.Workload(c.Dataset).Pattern(kind, size, h.Scale.Window)
}

// config is the engine configuration of every Run: the combo's model,
// the policy, and the initial plan built from exact statistics over the
// stream's first 5%, whatever the policy.
func (h *Harness) config(c Combo, newPolicy func() core.Policy) engine.Config {
	return engine.Config{
		Model:      c.Model,
		NewPolicy:  newPolicy,
		CheckEvery: h.Scale.CheckEvery,
		InitialStats: func(sub *pattern.Pattern) *stats.Snapshot {
			return h.initialStats(c.Dataset, sub)
		},
		OnMatch: func(*match.Match) {},
	}
}

// Run measures one full pass of the combo's dataset through an adaptive
// engine with the given pattern and policy factory.
func (h *Harness) Run(c Combo, pat *pattern.Pattern, newPolicy func() core.Policy) (Result, error) {
	w := h.Workload(c.Dataset)
	eng, err := engine.New(pat, h.config(c, newPolicy))
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	elapsed := time.Since(start)
	m := eng.Metrics()
	r := Result{
		Throughput: float64(len(w.Events)) / elapsed.Seconds(),
		Matches:    m.Matches,
		Reopts:     m.Reoptimizations,
		Overhead:   m.Overhead(elapsed),
		StatShare:  m.StatShare(elapsed),
		PMCreated:  m.PMCreated,
		Elapsed:    elapsed,
		Replace:    replaceCost(m),
	}
	return r, nil
}

// RunBest measures the run repeats times and keeps the best throughput:
// the least-interference estimate, used by the tuning scans so that
// wall-clock noise does not distort d_opt / t_opt selection.
func (h *Harness) RunBest(c Combo, pat *pattern.Pattern, newPolicy func() core.Policy, repeats int) (Result, error) {
	var best Result
	for i := 0; i < repeats; i++ {
		r, err := h.Run(c, pat, newPolicy)
		if err != nil {
			return Result{}, err
		}
		if i == 0 || r.Throughput > best.Throughput {
			best = r
		}
	}
	return best, nil
}

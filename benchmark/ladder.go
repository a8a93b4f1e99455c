package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/multi"
)

// ladder is the order of the rungs on stream K: each adds one module to
// the rung beneath it, so the difference in CPU per event between two
// neighbours is that module's own cost.
var ladder = []rung{
	rungEngine, rungShardX1, rungShardX2, rungPipe, rungTCP, rungJournal, rungStandby, rungLeaseGate,
}

// reportsInFlight lists the rungs whose layer has a progress callback.
var reportsInFlight = map[string]bool{
	"shard.x1": true, "shard.x2": true, "cluster.pipe": true, "cluster.tcp": true, "recover.journal": true,
}

// rungMeasure is one per-rung metric. piped marks the ones that only
// mean something where events and matches travel between goroutines;
// the bottom rung is synchronous (its detection latency would be the
// stamp granularity, its feeder cannot be blocked, it has nothing to
// drain) and leaves them out.
type rungMeasure struct {
	name, unit, better string
	piped              bool
	value              func(result) float64
}

var rungMeasures = []rungMeasure{
	{"events_per_s", "events/s", "higher", false, result.eventsPerS},
	{"cpu_us_per_event", "us", "lower", false, result.cpuUSPerEvent},
	{"alloc_bytes_per_event", "B", "lower", false, result.allocBytesPerEvent},
	{"allocs_per_event", "count", "lower", false, result.allocsPerEvent},
	{"construct_ms", "ms", "lower", false, func(r result) float64 { return ms(r.construct) }},
	{"detect_latency_p50_ms", "ms", "lower", true, func(r result) float64 { return r.latencyMS(0.5) }},
	{"detect_latency_p99_ms", "ms", "lower", true, func(r result) float64 { return r.latencyMS(0.99) }},
	{"feed_stall_share", "share", "lower", true, func(r result) float64 { return r.stallShare }},
	{"finish_drain_ms", "ms", "lower", true, func(r result) float64 { return ms(r.finish) }},
}

// measuresOf lists the per-rung metrics of the i-th rung of the ladder.
func measuresOf(i int) []rungMeasure {
	var out []rungMeasure
	for _, m := range rungMeasures {
		if i > 0 || !m.piped {
			out = append(out, m)
		}
	}
	return out
}

// decl declares one metric the way BENCHMARK.json lists it.
type decl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayerDecls lists every metric a traced run prints, in print order.
func perLayerDecls() []decl {
	var out []decl
	for i, r := range ladder {
		for _, m := range measuresOf(i) {
			out = append(out, decl{r.name + "." + m.name, m.unit, m.better})
		}
		if i > 0 {
			out = append(out, decl{r.name + ".delta_cpu_us_per_event", "us", "lower"})
		}
		if reportsInFlight[r.name] {
			out = append(out, decl{r.name + ".inflight_events_p50", "count", "lower"})
		}
	}
	return append(out,
		decl{"shard.x1.share_of_engine", "share", "higher"},
		decl{"shard.x2.speedup_over_x1", "ratio", "higher"},
		decl{"cluster.tcp.share_of_shard_x2", "share", "higher"},
		decl{"trace.overhead_share", "share", "lower"},

		decl{"nfa.events_per_s", "events/s", "higher"},
		decl{"tree.events_per_s", "events/s", "higher"},
		decl{"nfa.cpu_us_per_event", "us", "lower"},
		decl{"tree.cpu_us_per_event", "us", "lower"},
		decl{"core.decision_calls", "count", "lower"},
		decl{"core.reoptimizations", "count", "lower"},
		decl{"planner.plan_generations", "count", "lower"},
		decl{"nfa.pm_created_per_event", "count", "lower"},
		decl{"nfa.pred_evals_per_event", "count", "lower"},
		decl{"nfa.peak_pms", "count", "lower"},
		decl{"engine.adapt_overhead_share", "share", "lower"},
		decl{"stats.stat_time_share", "share", "lower"},
		decl{"match.kleene_events_per_s", "events/s", "higher"},
		decl{"match.negation_events_per_s", "events/s", "higher"},
		decl{"multi.shared_events_per_s", "events/s", "higher"},
		decl{"multi.independent_events_per_s", "events/s", "higher"},
		decl{"multi.sharing_speedup", "ratio", "higher"},
		decl{"multi.n1_overhead_share", "share", "lower"},
		decl{"multi.analyze_ms", "ms", "lower"},

		decl{"wire.encode_ns_per_event", "ns", "lower"},
		decl{"wire.decode_ns_per_event", "ns", "lower"},
		decl{"wire.bytes_per_event", "B", "lower"},
		decl{"recover.append_ns_per_event", "ns", "lower"},
		decl{"lease.renew_rtt_us", "us", "lower"},
		decl{"shard.collector_ns_per_match", "ns", "lower"},
		decl{"process.peak_rss_mb", "MB", "lower"},
	)
}

// tracedRun carries what the traced passes share.
type tracedRun struct {
	tr     *tracer
	events int
	nextID int
	units  map[string]string // per declared metric
	rep    report
	out    io.Writer
}

// passes runs the rungs round-robin, n passes each, so that drift over
// the run hits every rung alike, and returns each rung's results by
// name.
func (t *tracedRun) passes(n int, in *inputs, rungs ...rung) (map[string][]result, error) {
	byName := make(map[string][]result, len(rungs))
	for p := 0; p < n; p++ {
		for _, r := range rungs {
			tr := t.tr
			if r.untraced {
				tr = nil
			}
			runtime.GC()
			res, err := measure(r, in, tr, t.nextID)
			t.nextID++
			if err != nil {
				return nil, err
			}
			if !t.rep.count(res) {
				fmt.Fprintf(t.out, "%s pass %d: delivered %d matches that differ from the reference's %d\n", r.name, p, res.d.n, in.ref.n)
			}
			if floor := matchFloor(t.events); res.d.n < floor {
				return nil, fmt.Errorf("%s pass %d is vacuous: %d matches, need %d", r.name, p, res.d.n, floor)
			}
			byName[r.name] = append(byName[r.name], res)
		}
	}
	return byName, nil
}

// emit records one per-layer metric and prints it.
func (t *tracedRun) emit(name string, v float64) {
	unit, ok := t.units[name]
	if !ok {
		panic("benchmark: undeclared per-layer metric " + name) // a bug in this file, nothing a run can cause
	}
	t.rep.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(t.out, "metric %s %.6g %s\n", name, v, unit)
}

// med is the median over passes of one measure.
func med(rs []result, f func(result) float64) float64 { return median(over(rs, f)) }

// runTraced is a traced run. It is the same for every workload but for
// the name of the trace file: the per-layer metrics describe the layers,
// and every workload is made of the same ones.
func runTraced(w io.Writer, wl *workload, seed int64, events, n int, dir string) (report, error) {
	t := &tracedRun{
		tr: newTracer(), events: events, out: w, units: map[string]string{},
		rep: report{Correct: true, Metrics: map[string]metric{}},
	}
	for _, d := range perLayerDecls() {
		t.units[d.Name] = d.Unit
	}
	keyed, err := prepareKeyed(events, seed)
	if err != nil {
		return report{}, err
	}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"ladder", func() error { return t.ladder(n, keyed) }},
		{"engine family", func() error { return t.engineFamily(n, seed) }},
		{"pattern set", func() error { return t.patternSet(n, seed) }},
		{"direct calls", func() error { return t.direct(keyed) }},
	} {
		start := time.Now()
		if err := step.run(); err != nil {
			return report{}, err
		}
		fmt.Fprintf(w, "%s: %.1f s\n", step.name, time.Since(start).Seconds())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	path := filepath.Join(dir, "trace-"+wl.name+".json")
	if err := t.tr.write(path, wl.name, seed); err != nil {
		return report{}, err
	}
	fmt.Fprintf(w, "trace: %d spans in %s\n", len(t.tr.spans), path)
	return t.rep, nil
}

// ladder measures every rung on stream K, and shard.x2 once more
// without the tracer.
func (t *tracedRun) ladder(n int, keyed *inputs) error {
	if err := referenceKeyed(keyed); err != nil {
		return err
	}
	plainX2 := rungShardX2
	plainX2.name, plainX2.untraced = "shard.x2.untraced", true
	rs, err := t.passes(n, keyed, append([]rung{plainX2}, ladder...)...)
	if err != nil {
		return err
	}
	for i, r := range ladder {
		for _, m := range measuresOf(i) {
			t.emit(r.name+"."+m.name, med(rs[r.name], m.value))
		}
		if i > 0 {
			t.emit(r.name+".delta_cpu_us_per_event",
				med(rs[r.name], result.cpuUSPerEvent)-med(rs[ladder[i-1].name], result.cpuUSPerEvent))
		}
		if reportsInFlight[r.name] {
			t.emit(r.name+".inflight_events_p50", med(rs[r.name], func(r result) float64 { return r.inflight }))
		}
	}
	eps := func(name string) float64 { return med(rs[name], result.eventsPerS) }
	t.emit("shard.x1.share_of_engine", eps("shard.x1")/eps("engine"))
	t.emit("shard.x2.speedup_over_x1", eps("shard.x2")/eps("shard.x1"))
	t.emit("cluster.tcp.share_of_shard_x2", eps("cluster.tcp")/eps("shard.x2"))
	t.emit("trace.overhead_share", 1-eps("shard.x2")/eps(plainX2.name))
	return nil
}

// engineFamily measures the engines by themselves on the engine-adapt
// stream: both evaluation models, the pattern as a set of one, and the
// residual paths (Kleene closure and negation, size 4, on the NFA).
func (t *tracedRun) engineFamily(n int, seed int64) error {
	adapt, err := workloadByName("engine-adapt").prepare(t.events, seed)
	if err != nil {
		return err
	}
	if err := referenceFrom(staticEngine)(adapt); err != nil {
		return err
	}
	nfa := rung{name: "nfa", build: withModel(engine.GreedyNFA)}
	tree := rung{name: "tree", build: withModel(engine.ZStreamTree)}
	rs, err := t.passes(n, adapt, nfa, tree)
	if err != nil {
		return err
	}
	one, err := t.passes(n, prepareSetOfOne(adapt), rung{name: "multi.n1", build: buildMulti})
	if err != nil {
		return err
	}
	nfaEPS := med(rs["nfa"], result.eventsPerS)
	t.emit("nfa.events_per_s", nfaEPS)
	t.emit("tree.events_per_s", med(rs["tree"], result.eventsPerS))
	t.emit("nfa.cpu_us_per_event", med(rs["nfa"], result.cpuUSPerEvent))
	t.emit("tree.cpu_us_per_event", med(rs["tree"], result.cpuUSPerEvent))
	em := rs["nfa"][0].em // counts: the same on every pass
	perEvent := func(c uint64) float64 { return float64(c) / float64(t.events) }
	t.emit("core.decision_calls", float64(em.DecisionCalls))
	t.emit("core.reoptimizations", float64(em.Reoptimizations))
	t.emit("planner.plan_generations", float64(em.PlanGenerations))
	t.emit("nfa.pm_created_per_event", perEvent(em.PMCreated))
	t.emit("nfa.pred_evals_per_event", perEvent(em.PredEvals))
	t.emit("nfa.peak_pms", float64(em.PeakPMs))
	t.emit("engine.adapt_overhead_share", med(rs["nfa"], func(r result) float64 { return r.em.Overhead(r.wall) }))
	t.emit("stats.stat_time_share", med(rs["nfa"], func(r result) float64 { return r.em.StatTime.Seconds() / r.wall.Seconds() }))
	t.emit("multi.n1_overhead_share", 1-med(one["multi.n1"], result.eventsPerS)/nfaEPS)

	for _, k := range []struct {
		kind gen.Kind
		name string
	}{{gen.Kleene, "match.kleene"}, {gen.Negation, "match.negation"}} {
		in, err := preparePattern(streamAdapt, k.kind, 4, 1000)(t.events, seed)
		if err != nil {
			return err
		}
		if err := referenceFrom(staticEngine)(in); err != nil {
			return err
		}
		rs, err := t.passes(n, in, rung{name: k.name, build: withModel(engine.GreedyNFA)})
		if err != nil {
			return err
		}
		t.emit(k.name+"_events_per_s", med(rs[k.name], result.eventsPerS))
	}
	return nil
}

// patternSet measures the 32-pattern set shared and independent. The
// independent run is the set's reference as well, and at 32 engines too
// slow to repeat: it is one pass, not a median.
func (t *tracedRun) patternSet(n int, seed int64) error {
	set, err := prepareSet(t.events, seed)
	if err != nil {
		return err
	}
	analyze := make([]float64, n)
	for i := range analyze {
		start := time.Now()
		if _, err := multi.Analyze(set.specs, set.w.Schema); err != nil {
			return err
		}
		analyze[i] = ms(time.Since(start))
	}
	runtime.GC()
	indep, err := measure(rung{name: "multi.independent", build: buildIndependent}, set, t.tr, t.nextID)
	t.nextID++
	if err != nil {
		return err
	}
	set.ref = indep.d
	rs, err := t.passes(n, set, rung{name: "multi.shared", build: buildMulti})
	if err != nil {
		return err
	}
	shared := med(rs["multi.shared"], result.eventsPerS)
	t.emit("multi.shared_events_per_s", shared)
	t.emit("multi.independent_events_per_s", indep.eventsPerS())
	t.emit("multi.sharing_speedup", shared/indep.eventsPerS())
	t.emit("multi.analyze_ms", median(analyze))
	return nil
}

// direct times single functions on stream K's cuts and reads the
// process's peak memory.
func (t *tracedRun) direct(keyed *inputs) error {
	values, err := directCalls(keyed)
	if err != nil {
		return err
	}
	for _, v := range values {
		t.emit(v.name, v.value)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	t.emit("process.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports kilobytes
	return nil
}

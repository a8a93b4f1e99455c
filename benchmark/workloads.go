package main

import (
	"fmt"
	"runtime"

	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/stats"
)

// defaultEvents is the stream length of every pass. -events shortens it
// for smoke runs only.
const defaultEvents = 500000

// The three streams. The scenario numbers were picked once, by scanning
// 1-10 for regimes in which the patterns below find thousands of matches
// per pass, not millions: on stream A the pattern finds about 5,500 and
// the Greedy-NFA sub-run replaces its plan about 130 times; the
// 32-pattern set finds about 24,000; stream K's pattern about 33,000.
var (
	// streamAdapt is unkeyed traffic with three regime shifts: the
	// paper's setting, where the statistics move under a running plan.
	streamAdapt = streamConfig{types: 10, shifts: 3, skew: 1.2, scenario: 1}
	// streamMulti is the narrow regime the overlap-3 pattern sets need
	// (seven types, two keys): wider ones starve the four-type chains.
	streamMulti = streamConfig{types: 7, keys: 2, shifts: 1, skew: 1.2, scenario: 1}
	// streamKeyed is stream K, the one stream every rung of the ladder
	// and the three distributed workloads share. Scenario 3 keeps the
	// per-shard engines cheap (0.5 us an event against 1.0 in scenario 1),
	// so that on the full HA path more than half the CPU is spent above
	// the engine, in the layers those workloads are there to watch.
	streamKeyed = streamConfig{types: 10, keys: 8, shifts: 3, skew: 1.2, scenario: 3}
)

// rung is one system under test on one stream: a name for spans and
// metrics, how to build it, and whether its delivery order is part of
// its contract (ordered) or only its match multiset is.
type rung struct {
	name    string
	build   builder
	ordered bool
	// untraced: measured without the tracer even in a traced run, to
	// price the tracing itself.
	untraced bool
}

// adaptiveConfig is the engine configuration of every single-pattern
// system: the invariant policy checked every 500 events, starting from
// the plan that exact statistics over the stream prefix give.
func adaptiveConfig(pat *pattern.Pattern, w *gen.Workload) engine.Config {
	initial := stats.Exact(pat, w.Events[:min(prefixEvents, len(w.Events))])
	return engine.Config{
		CheckEvery:   500,
		NewPolicy:    func() core.Policy { return &core.Invariant{} },
		InitialStats: func(*pattern.Pattern) *stats.Snapshot { return initial },
	}
}

// preparePattern generates a stream and one pattern over it.
func preparePattern(sc streamConfig, kind gen.Kind, size int, window event.Time) func(int, int64) (*inputs, error) {
	return func(events int, seed int64) (*inputs, error) {
		sized := sc
		sized.events = events
		w := sized.generate(seed)
		pat, err := w.Pattern(kind, size, window)
		if err != nil {
			return nil, err
		}
		return &inputs{w: w, pat: pat, cfg: adaptiveConfig(pat, w)}, nil
	}
}

// prepareSet generates the multi stream and the 32 overlap-3 patterns.
func prepareSet(events int, seed int64) (*inputs, error) {
	sc := streamMulti
	sc.events = events
	w := sc.generate(seed)
	entries, err := w.OverlapPatterns(gen.Sequence, 32, 3, 400, 1)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, specs: make([]multi.Spec, len(entries))}
	for i, e := range entries {
		in.specs[i] = multi.Spec{
			ID: e.ID, Tenant: e.Tenant, Pattern: e.Pattern,
			Config: engine.Config{CheckEvery: 500},
		}
	}
	return in, nil
}

// prepareSetOfOne wraps a single-pattern input as a pattern set of one,
// for the question ROADMAP item 3 turns on: what the shared evaluator
// costs when there is nothing to share.
func prepareSetOfOne(in *inputs) *inputs {
	one := *in
	one.pat = nil
	one.specs = []multi.Spec{{ID: 0, Pattern: in.pat, Config: in.cfg}}
	return &one
}

// referenceFrom computes in.ref by running the given system once. The
// run is not timed.
func referenceFrom(r rung) func(*inputs) error {
	return func(in *inputs) error {
		res, err := measure(r, in, nil, 0)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		in.ref = res.d
		return nil
	}
}

// staticEngine is the reference of the unkeyed single-pattern systems:
// the same engine holding its initial plan for the whole stream. Plan
// replacement may change cost, never the match set.
var staticEngine = rung{name: "reference.static", build: func(in *inputs, s *sink) (*system, error) {
	c := *in
	c.cfg.NewPolicy = func() core.Policy { return core.Static{} }
	return buildEngine(&c, s)
}}

// referenceKeyed computes stream K's reference: the single-process
// engine fixes the match multiset, and the single-process sharded engine
// at the same total shard count must reproduce it and fixes the order.
func referenceKeyed(in *inputs) error {
	if err := referenceFrom(rungEngine)(in); err != nil {
		return err
	}
	set := in.ref
	if err := referenceFrom(rungShardX2)(in); err != nil {
		return err
	}
	if !in.ref.sameSet(set) {
		return fmt.Errorf("reference: sharded engine delivered %d matches (set %x), single-process engine %d (set %x)",
			in.ref.n, in.ref.set, set.n, set.set)
	}
	return nil
}

// The ladder's rungs on stream K, each named for the module it adds to
// the rung beneath.
var (
	rungEngine    = rung{name: "engine", build: buildEngine}
	rungShardX1   = rung{name: "shard.x1", build: buildShard(1), ordered: true}
	rungShardX2   = rung{name: "shard.x2", build: buildShard(totalShards), ordered: true}
	rungPipe      = rung{name: "cluster.pipe", build: buildCluster(false, false), ordered: true}
	rungTCP       = rung{name: "cluster.tcp", build: buildCluster(true, false), ordered: true}
	rungJournal   = rung{name: "recover.journal", build: buildCluster(true, true), ordered: true}
	rungStandby   = rung{name: "ha.standby", build: buildHA(false), ordered: true}
	rungLeaseGate = rung{name: "lease.gate", build: buildHA(true), ordered: true}
)

// workload is one of the benchmark's five: how to prepare its inputs and
// reference, and the timed regions that make up one pass.
type workload struct {
	name string
	why  string
	// passesPerSecond turns the -seconds of a run into its pass count:
	// a fixed count for a given -seconds, so two commits do the same
	// work, sized so that at the commit that added the benchmark the
	// timed regions of a run add up to about -seconds.
	passesPerSecond float64
	prepare         func(events int, seed int64) (*inputs, error)
	reference       func(*inputs) error
	parts           []rung
	// adapts: a pass in which no plan was replaced measured nothing of
	// what the workload is for.
	adapts bool
}

var prepareKeyed = preparePattern(streamKeyed, gen.Sequence, 3, 2400)

var workloads = []workload{
	{
		name:            "engine-adapt",
		why:             "The paper's loop alone, single-threaded: nfa/tree, stats, core, planner and match do all the work; shard, wire, cluster and ha do none.",
		passesPerSecond: 2.6,
		prepare:         preparePattern(streamAdapt, gen.Sequence, 4, 1000),
		reference:       referenceFrom(staticEngine),
		parts: []rung{
			{name: "nfa", build: withModel(engine.GreedyNFA)},
			{name: "tree", build: withModel(engine.ZStreamTree)},
		},
		adapts: true,
	},
	{
		name:            "multi-shared",
		why:             "One evaluator over 32 overlapping patterns: fixed-plan suffix automata behind shared prefix runners and the interned predicate table. Guards the sharing gain.",
		passesPerSecond: 1.65,
		prepare:         prepareSet,
		reference:       referenceFrom(rung{name: "reference.independent", build: buildIndependent}),
		parts:           []rung{{name: "multi", build: buildMulti}},
	},
	{
		name:            "shard-keyed",
		why:             "Two shards in one process, fed per event: queue handoff, ingress timestamping and the collector merge dominate; no byte crosses a socket.",
		passesPerSecond: 6.3,
		prepare:         prepareKeyed,
		reference:       referenceKeyed,
		parts:           []rung{rungShardX2},
	},
	{
		name:            "cluster-tcp",
		why:             "Two one-shard nodes on loopback TCP: wire codec, transport, ingress coordinator and cut reassembly dominate; enters shard through ProcessStable.",
		passesPerSecond: 5.3,
		prepare:         prepareKeyed,
		reference:       referenceKeyed,
		parts:           []rung{rungTCP},
	},
	{
		name:            "ha-leased",
		why:             "The full path: replicated coordinator pair, cut journal, replication link, emission gate and lease commit-then-emit over two TCP workers.",
		passesPerSecond: 2.9,
		prepare:         prepareKeyed,
		reference:       referenceKeyed,
		parts:           []rung{rungLeaseGate},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pass runs the workload's timed regions once, collecting garbage
// before each so one region's garbage is not another's collection.
func (wl *workload) pass(in *inputs, tr *tracer, id int) (result, error) {
	parts := make([]result, len(wl.parts))
	for i, r := range wl.parts {
		runtime.GC()
		var err error
		if parts[i], err = measure(r, in, tr, id); err != nil {
			return result{}, err
		}
	}
	return merge(parts), nil
}

// matchFloor is the fewest matches a timed region over a stream of the
// given length may deliver and still count as having measured something:
// minMatches on the full stream, in proportion on a smoke run's.
func matchFloor(events int) uint64 {
	return uint64(max(1, minMatches*events/defaultEvents))
}

// vacuous explains why a pass measured nothing worth reporting, or
// returns "".
func (wl *workload) vacuous(res result, events int) string {
	if floor := matchFloor(events) * uint64(len(wl.parts)); res.d.n < floor {
		return fmt.Sprintf("%d matches in the pass, need %d", res.d.n, floor)
	}
	if wl.adapts && res.em.Reoptimizations == 0 {
		return "no plan was replaced"
	}
	return ""
}

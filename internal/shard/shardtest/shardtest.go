// Package shardtest holds the block-reuse scenarios the sharded engine's
// and the cluster's tests share: synthetic keyed streams shaped to make a
// worker hold a block longer, or give one back sooner, than steady
// traffic does — a shard that falls silent, a hot key, an engine its
// tenant gate or its shedder steps over while the rest of the worker
// moves on, a plan replaced mid-stream, a pattern set that changes — and
// the reference each is held against: one evaluator per partition over
// the immutable stream itself, storage nothing ever reuses.
package shardtest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/shard"
	"acep/internal/shed"
	"acep/internal/wire"
)

// Window is every scenario pattern's window, in stream time units; a
// stream advances one unit per event.
const Window = 200

// Pattern ids of the scenario sets.
const (
	Seq    uint32 = 1 // SEQ(A, B, C)
	Neg    uint32 = 2 // SEQ(A, B, !C): every match parks until its window closes
	Kleene uint32 = 3 // SEQ(A, B+, C)
)

// Op is a pattern-set change applied just before the event it is filed
// under: Add when non-nil, else the removal of Remove.
type Op struct {
	Add    *multi.Spec
	Remove uint32
}

// Scenario is one stream with the set to detect over it. Every spec
// carries Config, so a cluster — whose nodes configure all hosted engines
// alike — runs the scenario as the sharded engine does.
type Scenario struct {
	Name    string
	Schema  *event.Schema
	Events  []event.Event
	Config  engine.Config
	Specs   []multi.Spec
	Tenants map[uint32]shed.TenantBudget
	Ops     map[int]Op
	// exercised reports, from the reference run's per-pattern metrics,
	// whether the stream did what the scenario is named for.
	exercised func(map[uint32]engine.Metrics) error
}

// dropSpan sheds, from engines whose pattern has a negated position and
// from no other, every event whose timestamp lies in [lo, hi): a shedder
// at 100 % for a span. Paired with a budget any traffic exceeds, it is a
// deterministic function of the stream.
type dropSpan struct{ lo, hi event.Time }

func (dropSpan) Name() string       { return "drop-span" }
func (dropSpan) Refresh(*shed.View) {}
func (d dropSpan) Drop(ev *event.Event, v *shed.View, _ float64) bool {
	if ev.TS < d.lo || ev.TS >= d.hi {
		return false
	}
	for _, pos := range v.Patterns[0].Positions {
		if pos.Neg {
			return true
		}
	}
	return false
}

// Scenarios builds the table for a given shard count.
func Scenarios(tb testing.TB, shards int) []Scenario {
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C", "D"} {
		s.MustAddType(name, "key", "v")
	}
	key, err := shard.ByAttrName(s, "key")
	if err != nil {
		tb.Fatal(err)
	}
	// Key values by the shard they land on, eight per shard.
	onShard := make([][]float64, shards)
	for k, short := 0.0, shards; short > 0; k++ {
		g := shard.GlobalIndex(key(&event.Event{Attrs: []float64{k, 0}}), shards)
		if len(onShard[g]) < 8 {
			if onShard[g] = append(onShard[g], k); len(onShard[g]) == 8 {
				short--
			}
		}
	}
	pick := func(r *rand.Rand, g int) float64 { return onShard[g][r.Intn(8)] }
	anyKey := func(_ int, r *rand.Rand) float64 { return pick(r, r.Intn(shards)) }
	// A, B and C a fifth of the stream each, D — no pattern takes it — the
	// rest: matches every few events, not a combinatorial flood.
	evenTypes := func(_ int, r *rand.Rand) int { return min(r.Intn(5), 3) }
	stream := func(n int, seed int64, typeOf func(int, *rand.Rand) int, keyOf func(int, *rand.Rand) float64) []event.Event {
		r := rand.New(rand.NewSource(seed))
		evs := make([]event.Event, n)
		for i := range evs {
			evs[i] = event.Event{
				Type: typeOf(i, r), TS: event.Time(i), Seq: uint64(i + 1),
				Attrs: []float64{keyOf(i, r), float64(r.Intn(100))},
			}
		}
		return evs
	}
	build := func(negAt, kleeneAt int) *pattern.Pattern {
		b := pattern.NewBuilder(s, pattern.Seq, Window)
		for p := 0; p < 3; p++ {
			b.Event(p)
		}
		if negAt >= 0 {
			b.Negate(negAt)
		}
		if kleeneAt >= 0 {
			b.Kleene(kleeneAt)
		}
		b.WhereEq(0, "key", 1, "key")
		b.WhereEq(1, "key", 2, "key")
		return b.MustBuild()
	}
	spec := func(id, tenant uint32) multi.Spec {
		pat := map[uint32]*pattern.Pattern{Seq: build(-1, -1), Neg: build(2, -1), Kleene: build(-1, 1)}[id]
		return multi.Spec{ID: id, Tenant: tenant, Pattern: pat}
	}
	all := []multi.Spec{spec(Seq, 0), spec(Neg, 0), spec(Kleene, 0)}
	const n = 6000

	added := spec(Kleene, 0)
	scs := []Scenario{{
		// Shard 0 alone has traffic for six windows, then all are busy
		// again: the silent workers hold what they held, however far the
		// feeder runs ahead, and must find it intact.
		Name: "idle-shard", Schema: s, Specs: all,
		Events: stream(n, 1, evenTypes, func(i int, r *rand.Rand) float64 {
			if i >= 2000 && i < 2000+6*Window {
				return pick(r, 0)
			}
			return anyKey(i, r)
		}),
	}, {
		// One shard takes 95 % of the stream: its blocks fill, the others'
		// hold an event or two each and turn over as fast.
		Name: "hot-shard", Schema: s, Specs: all,
		Events: stream(n, 2, evenTypes, func(i int, r *rand.Rand) float64 {
			if r.Intn(100) < 95 {
				return pick(r, 0)
			}
			return pick(r, 1+r.Intn(shards-1))
		}),
	}, {
		// Tenant 1's bucket empties after 100 events and refills one token
		// per ten windows; tenant 0 keeps every worker's clock running.
		// Each lone admission resolves trailing-negation matches that have
		// been parked, with their residual buffer, across the whole gap —
		// long enough that an owner releasing on its own clock rather than
		// on Floor frees their block first (a worker's block of 256 events
		// spans about four windows here).
		Name: "tenant-gated", Schema: s,
		Specs:   []multi.Spec{spec(Seq, 0), spec(Neg, 1)},
		Tenants: map[uint32]shed.TenantBudget{1: {Rate: float64(event.Second) / (10 * Window), Burst: 100}},
		Events:  stream(n, 3, evenTypes, anyKey),
		exercised: func(m map[uint32]engine.Metrics) error {
			if m[Neg].EventsShed < n/2 || m[Neg].Matches == 0 {
				return fmt.Errorf("gate shed %d events of %d, pattern matched %d times", m[Neg].EventsShed, n, m[Neg].Matches)
			}
			return nil
		},
	}, {
		// The negation pattern's shedder drops everything for four windows
		// while the sequence pattern beside it takes every event. The span
		// carries no C — a shedder never drops a negated position's type,
		// and one C would advance the engine — so the matches parked when
		// the span opens resolve only when it closes.
		Name: "shed-span", Schema: s,
		Specs: []multi.Spec{spec(Seq, 0), spec(Neg, 0)},
		Config: engine.Config{Shedding: shed.Config{
			Policy: dropSpan{lo: 2500, hi: 2500 + 4*Window},
			Budget: shed.Budget{EventsPerSec: 1e-6},
		}},
		Events: stream(n, 4, func(i int, r *rand.Rand) int {
			if t := evenTypes(i, r); t != 2 || i < 2500 || i >= 2500+4*Window {
				return t
			}
			return 3
		}, anyKey),
		exercised: func(m map[uint32]engine.Metrics) error {
			if m[Neg].EventsShed == 0 || m[Neg].Matches == 0 {
				return fmt.Errorf("shedder dropped %d events, pattern matched %d times", m[Neg].EventsShed, m[Neg].Matches)
			}
			return nil
		},
	}, {
		// The type mix flips mid-stream, so the adaptive engines replace
		// their plans: the old evaluator drains beside the new one, whose
		// residual buffers alias the old one's events (Resolver.SeedFrom).
		Name: "plan-replaced", Schema: s,
		Specs:  []multi.Spec{spec(Neg, 0), spec(Kleene, 0)},
		Config: engine.Config{CheckEvery: 100},
		Events: stream(n, 5, func(i int, r *rand.Rand) int {
			mix := [][]int{{0, 0, 0, 0, 0, 0, 1, 1, 2, 3}, {0, 1, 1, 2, 2, 2, 2, 2, 2, 3}}[i*2/n]
			return mix[r.Intn(len(mix))]
		}, anyKey),
		exercised: func(m map[uint32]engine.Metrics) error {
			if m[Neg].Reoptimizations+m[Kleene].Reoptimizations == 0 {
				return fmt.Errorf("no plan was replaced")
			}
			return nil
		},
	}, {
		// The set changes mid-stream: one pattern joins, one leaves — the
		// one whose matches park, so it goes with matches pending.
		Name: "add-remove", Schema: s,
		Specs:  []multi.Spec{spec(Seq, 0), spec(Neg, 0)},
		Events: stream(n, 6, evenTypes, anyKey),
		Ops:    map[int]Op{2500: {Add: &added}, 3500: {Remove: Neg}},
	}}
	for i := range scs {
		sc := &scs[i]
		if sc.Config.CheckEvery == 0 {
			sc.Config.CheckEvery = 250
		}
		for k := range sc.Specs {
			sc.Specs[k].Config = sc.Config
		}
		for _, op := range sc.Ops {
			if op.Add != nil {
				op.Add.Config = sc.Config
			}
		}
	}
	return scs
}

// Record renders one delivered match with its merge tag, every event of
// it field by field: what two runs must agree on.
func Record(seq uint64, src int, pat uint32, m *match.Match) string {
	return fmt.Sprintf("%020d/%d/%d/%x", seq, src, pat, wire.AppendMatchBody(nil, m))
}

// RequireSame renders the delivered matches — kept by the consumer until
// now — as Records and fails the test unless they are the reference's.
func RequireSame(tb testing.TB, kept []shard.Tagged, want []string) {
	tb.Helper()
	got := make([]string, len(kept))
	for i, tg := range kept {
		got[i] = Record(tg.Seq, tg.Src, tg.Pattern, tg.M)
	}
	sort.Strings(got)
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			tb.Fatalf("%d matches vs the reference's %d, first divergence at sorted record %d", len(got), len(want), i)
		}
	}
}

// Reference detects the scenario's set over each of the stream's
// partitions with an evaluator that owns no storage — the immutable stream
// is the storage (StableInput), so there is no block to reuse — and
// returns the tagged matches, rendered as they are delivered, as sorted
// Records. It fails the test when the scenario did not do what it is
// named for.
func Reference(tb testing.TB, sc Scenario, shards int) []string {
	tb.Helper()
	var out []string
	metrics := detect(tb, sc, shards, true, func(seq uint64, g int, id uint32, m *match.Match) {
		out = append(out, Record(seq, g, id, m))
	})
	if len(out) < 100 {
		tb.Fatalf("%s: reference found %d matches; the scenario is vacuous", sc.Name, len(out))
	}
	if sc.exercised != nil {
		if err := sc.exercised(metrics); err != nil {
			tb.Fatalf("%s: not exercised: %v", sc.Name, err)
		}
	}
	sort.Strings(out)
	return out
}

// Evaluators is the evaluator rung: the scenario's set over each
// partition on a bare multi.Evaluator that owns its events' storage, fed
// through one reused event that is overwritten after every Process. It
// returns every delivered match, kept as delivered, for RequireSame.
func Evaluators(tb testing.TB, sc Scenario, shards int) []shard.Tagged {
	tb.Helper()
	var kept []shard.Tagged
	detect(tb, sc, shards, false, func(seq uint64, g int, id uint32, m *match.Match) {
		kept = append(kept, shard.Tagged{Seq: seq, Src: g, Pattern: id, M: m})
	})
	return kept
}

// detect runs one evaluator per partition over the scenario, tagging each
// match as a shard worker would, and returns the per-pattern metrics. A
// partition is offered only the events of a type the live set reads, as
// the routers offer them (multi.ReadsOf). stable evaluators are fed the
// scenario's own events; the others one reused event, overwritten after
// every Process (matchtest.Reused).
func detect(tb testing.TB, sc Scenario, shards int, stable bool, deliver func(seq uint64, g int, id uint32, m *match.Match)) map[uint32]engine.Metrics {
	tb.Helper()
	key, err := shard.ByAttrName(sc.Schema, "key")
	if err != nil {
		tb.Fatal(err)
	}
	set, err := multi.Analyze(sc.Specs, sc.Schema)
	if err != nil {
		tb.Fatal(err)
	}
	seq := make([]uint64, shards)
	evals := make([]*multi.Evaluator, shards)
	for g := range evals {
		evals[g], err = multi.NewEvaluator(set, multi.Options{
			Budgets:     sc.Tenants,
			StableInput: stable,
			OnMatch:     func(id uint32, m *match.Match) { deliver(seq[g], g, id, m) },
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	live := slices.Clone(sc.Specs)
	reads := multi.ReadsOf(live)
	var caller matchtest.Reused
	for i := range sc.Events {
		if op, ok := sc.Ops[i]; ok {
			for _, v := range evals {
				if op.Add != nil {
					err = v.Add(*op.Add)
				} else {
					err = v.Remove(op.Remove)
				}
				if err != nil {
					tb.Fatal(err)
				}
			}
			if op.Add != nil {
				live = append(live, *op.Add)
			} else {
				live = slices.DeleteFunc(live, func(sp multi.Spec) bool { return sp.ID == op.Remove })
			}
			reads = multi.ReadsOf(live)
		}
		ev := &sc.Events[i]
		if !reads.Has(ev.Type) {
			continue
		}
		g := shard.GlobalIndex(key(ev), shards)
		seq[g] = ev.Seq
		if stable {
			evals[g].Process(ev)
		} else {
			caller.Feed(ev, evals[g].Process)
		}
	}
	metrics := make(map[uint32]engine.Metrics)
	for g, v := range evals {
		seq[g] = math.MaxUint64
		v.Finish()
		for _, pm := range v.Metrics() {
			m := metrics[pm.ID]
			m.Merge(pm.M)
			metrics[pm.ID] = m
		}
	}
	return metrics
}

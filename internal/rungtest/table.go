package rungtest

import (
	"fmt"
	"math/rand"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/shard"
	"acep/internal/shed"
)

// Rows returns the table. Adding a row here is all it takes to run it on
// every rung that can.
func Rows(tb testing.TB) []Row {
	tb.Helper()
	var rows []Row
	solo := func(name string, w *gen.Workload, kind gen.Kind, window event.Time, shards, batch int) Row {
		pat, err := w.Pattern(kind, 3, window)
		if err != nil {
			tb.Fatal(err)
		}
		return Row{Name: name, Schema: w.Schema, Events: w.Events, Specs: multi.Solo(pat, engine.Config{}), Shards: shards, Batch: batch}
	}
	// The router pins, recorded with a router that placed every event, on
	// a stream of six types of which each pattern reads three to five.
	// Sequence, conjunction and OR are pinned in delivery order: a match is
	// tagged at the event that completes it, which is of a type the
	// pattern reads. Negation and Kleene closure are pinned as multisets: a
	// parked match resolves at the next event its shard is offered, so its
	// tag may move with what the shard is offered, never the match.
	traffic := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 4})
	for _, p := range []struct {
		kind     gen.Kind
		window   event.Time
		multiset bool
		matches  int
		digest   uint64
	}{
		{gen.Sequence, 300, false, 90, 0x6e8139eb6570c6c3},
		{gen.Conjunction, 300, false, 487, 0xdeee841ccbf0d157},
		{gen.Composite, 300, false, 106, 0xe0f6f3562c6ec06},
		{gen.Negation, 300, true, 2, 0x8fbbb50ef0f70451},
		{gen.Negation, 1000, true, 80, 0xfff1e489a2603fad},
		{gen.Kleene, 300, true, 150, 0x6ab05b8280e752ff},
	} {
		row := solo(fmt.Sprintf("pinned/%v-%d", p.kind, p.window), traffic, p.kind, p.window, 2, 64)
		row.Multiset, row.Matches, row.Digest = p.multiset, p.matches, p.digest
		rows = append(rows, row)
	}
	// The same stream at every other shard count.
	for _, shards := range []int{1, 4, 8} {
		for _, kind := range []gen.Kind{gen.Sequence, gen.Conjunction, gen.Negation, gen.Kleene} {
			window := event.Time(300)
			if kind == gen.Negation {
				window = 1000
			}
			rows = append(rows, solo(fmt.Sprintf("shards-%d/%v", shards, kind), traffic, kind, window, shards, 128))
		}
	}
	// Both datasets with enough keys that each node of three owns live
	// traffic: the streams the failover and takeover drills break.
	for _, w := range []*gen.Workload{
		gen.Traffic(gen.TrafficConfig{Types: 6, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 12}),
		gen.Stocks(gen.StocksConfig{Types: 6, Events: 5000, Seed: 23, MeanGap: 3, DriftEvery: 300, Keys: 16}),
	} {
		for _, kind := range []gen.Kind{gen.Sequence, gen.Conjunction, gen.Negation, gen.Kleene, gen.Composite} {
			window := event.Time(1000)
			if kind == gen.Negation && w.Domain == "traffic" {
				window = 3000
			}
			rows = append(rows, solo(fmt.Sprintf("%s/%v", w.Domain, kind), w, kind, window, 6, 64))
		}
	}
	// A match every few events, so any short span holds some.
	rows = append(rows, solo("dense/sequence", gen.Stocks(gen.StocksConfig{
		Types: 6, Events: 5000, Seed: 23, MeanGap: 1, DriftEvery: 300, Keys: 12,
	}), gen.Sequence, 300, 6, 64))
	// Sets of six patterns with overlapping prefixes, at one, four and six
	// shards; stocks Kleene closures take fewer keys than the other stocks
	// sets, or their count explodes.
	dense := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 6000, Seed: 23, Shifts: 1, MeanGap: 2, Keys: 2})
	for _, s := range []struct {
		kind   gen.Kind
		w      *gen.Workload
		shards int
	}{
		{gen.Sequence, dense, 1},
		{gen.Negation, dense, 4},
		{gen.Kleene, dense, 4},
		{gen.Sequence, gen.Stocks(gen.StocksConfig{Types: 7, Events: 6000, Seed: 31, MeanGap: 2, DriftEvery: 300, Keys: 4}), 6},
		{gen.Negation, gen.Stocks(gen.StocksConfig{Types: 7, Events: 6000, Seed: 31, MeanGap: 2, DriftEvery: 300, Keys: 4}), 6},
		{gen.Kleene, gen.Stocks(gen.StocksConfig{Types: 7, Events: 6000, Seed: 31, MeanGap: 2, DriftEvery: 300, Keys: 8}), 6},
	} {
		entries, err := s.w.OverlapPatterns(s.kind, 6, 3, 700, 1)
		if err != nil {
			tb.Fatal(err)
		}
		row := Row{Name: fmt.Sprintf("set/%s/%v", s.w.Domain, s.kind), Schema: s.w.Schema, Events: s.w.Events, Shards: s.shards, Batch: 64}
		for _, e := range entries {
			row.Specs = append(row.Specs, multi.Spec{ID: e.ID, Tenant: e.Tenant, Pattern: e.Pattern})
		}
		rows = append(rows, row)
	}
	rows = append(rows, scenarios(tb)...)
	for i := range rows {
		r := &rows[i]
		if r.Config.CheckEvery == 0 {
			r.Config.CheckEvery = 250
		}
		for k := range r.Specs {
			r.Specs[k].Config = r.Config
		}
		for _, op := range r.Ops {
			if op.Add != nil {
				op.Add.Config = r.Config
			}
		}
	}
	return rows
}

// Pattern ids of the scenario sets.
const (
	seqID    uint32 = 1 // SEQ(A, B, C)
	negID    uint32 = 2 // SEQ(A, B, !C): every match parks until its window closes
	kleeneID uint32 = 3 // SEQ(A, B+, C)
)

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

// scenarios are synthetic keyed streams over two shards, shaped to make a
// worker hold a block longer, or give one back sooner, than steady
// traffic does: a shard that falls silent, a hot key, an engine its
// tenant gate or its shedder steps over while the rest of the worker
// moves on, a plan replaced mid-stream, a pattern set that changes, a
// shard that moves.
func scenarios(tb testing.TB) []Row {
	const shards, window, n = 2, 200, 6000
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
	stream := func(seed int64, typeOf func(int, *rand.Rand) int, keyOf func(int, *rand.Rand) float64) []event.Event {
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
	spec := func(id, tenant uint32) multi.Spec {
		b := pattern.NewBuilder(s, pattern.Seq, window)
		for p := 0; p < 3; p++ {
			b.Event(p)
		}
		switch id {
		case negID:
			b.Negate(2)
		case kleeneID:
			b.Kleene(1)
		}
		b.WhereEq(0, "key", 1, "key")
		b.WhereEq(1, "key", 2, "key")
		return multi.Spec{ID: id, Tenant: tenant, Pattern: b.MustBuild()}
	}
	all := []multi.Spec{spec(seqID, 0), spec(negID, 0), spec(kleeneID, 0)}
	added := spec(kleeneID, 0)
	idle := stream(1, evenTypes, func(i int, r *rand.Rand) float64 {
		if i >= 2000 && i < 2000+6*window {
			return pick(r, 0)
		}
		return anyKey(i, r)
	})
	rows := []Row{{
		// Shard 0 alone has traffic for six windows, then all are busy
		// again: the silent workers hold what they held, however far the
		// feeder runs ahead, and must find it intact.
		Name: "reuse/idle-shard", Specs: all, Events: idle,
	}, {
		// The same, with shard 1 moved while it is silent: its journaled
		// history — timestamps far behind the destination's live traffic —
		// is replayed into the destination's running session, out of the
		// pool that session's busy worker returns its blocks to.
		Name: "reuse/migrate-replay", Specs: all, Events: idle,
		Ops: map[int]Op{2800: {Migrate: &Move{Shard: 1, To: 0}}},
	}, {
		// One shard takes 95 % of the stream: its blocks fill, the others'
		// hold an event or two each and turn over as fast.
		Name: "reuse/hot-shard", Specs: all,
		Events: stream(2, evenTypes, func(i int, r *rand.Rand) float64 {
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
		Name:    "reuse/tenant-gated",
		Specs:   []multi.Spec{spec(seqID, 0), spec(negID, 1)},
		Tenants: map[uint32]shed.TenantBudget{1: {Rate: float64(event.Second) / (10 * window), Burst: 100}},
		Events:  stream(3, evenTypes, anyKey),
		exercised: func(m map[uint32]engine.Metrics) error {
			if m[negID].EventsShed < n/2 || m[negID].Matches == 0 {
				return fmt.Errorf("gate shed %d events of %d, pattern matched %d times", m[negID].EventsShed, n, m[negID].Matches)
			}
			return nil
		},
	}, {
		// The negation pattern's shedder drops everything for four windows
		// while the sequence pattern beside it takes every event. The span
		// carries no C — a shedder never drops a negated position's type,
		// and one C would advance the engine — so the matches parked when
		// the span opens resolve only when it closes.
		Name:  "reuse/shed-span",
		Specs: []multi.Spec{spec(seqID, 0), spec(negID, 0)},
		Config: engine.Config{Shedding: shed.Config{
			Policy: dropSpan{lo: 2500, hi: 2500 + 4*window},
			Budget: shed.Budget{EventsPerSec: 1e-6},
		}},
		Events: stream(4, func(i int, r *rand.Rand) int {
			if t := evenTypes(i, r); t != 2 || i < 2500 || i >= 2500+4*window {
				return t
			}
			return 3
		}, anyKey),
		exercised: func(m map[uint32]engine.Metrics) error {
			if m[negID].EventsShed == 0 || m[negID].Matches == 0 {
				return fmt.Errorf("shedder dropped %d events, pattern matched %d times", m[negID].EventsShed, m[negID].Matches)
			}
			return nil
		},
	}, {
		// The type mix flips mid-stream, so the adaptive engines replace
		// their plans: the old evaluator drains beside the new one, whose
		// residual buffers alias the old one's events (Resolver.SeedFrom).
		Name:   "reuse/plan-replaced",
		Specs:  []multi.Spec{spec(negID, 0), spec(kleeneID, 0)},
		Config: engine.Config{CheckEvery: 100},
		Events: stream(5, func(i int, r *rand.Rand) int {
			mix := [][]int{{0, 0, 0, 0, 0, 0, 1, 1, 2, 3}, {0, 1, 1, 2, 2, 2, 2, 2, 2, 3}}[i*2/n]
			return mix[r.Intn(len(mix))]
		}, anyKey),
		exercised: func(m map[uint32]engine.Metrics) error {
			if m[negID].Reoptimizations+m[kleeneID].Reoptimizations == 0 {
				return fmt.Errorf("no plan was replaced")
			}
			return nil
		},
	}, {
		// The set changes mid-stream: one pattern joins, one leaves — the
		// one whose matches park, so it goes with matches pending.
		Name:   "reuse/add-remove",
		Specs:  []multi.Spec{spec(seqID, 0), spec(negID, 0)},
		Events: stream(6, evenTypes, anyKey),
		Ops:    map[int]Op{2500: {Add: &added}, 3500: {Remove: negID}},
	}, {
		// A pattern joins, leaves and joins again under the same id, and a
		// shard moves right after: the move replays history the pattern
		// never saw in either life into a session that hosts it, and what
		// that regenerates is dropped at the later add's boundary, not the
		// first's. Its first life sees only D, so what it delivers is its
		// second life's, which is what a re-added engine counts. The two
		// windows after the later add carry only D too: the replay feeds
		// the added engine events from before its add, and a match spanning
		// the add would be delivered where the reference forms none.
		Name:  "reuse/re-add",
		Specs: []multi.Spec{spec(seqID, 0), spec(negID, 0)},
		Events: stream(7, func(i int, r *rand.Rand) int {
			if i >= 500 && i < 1000 || i >= 4000 && i < 4000+2*window {
				return 3
			}
			return evenTypes(i, r)
		}, anyKey),
		Ops: map[int]Op{
			500: {Add: &added}, 1000: {Remove: kleeneID},
			4000: {Add: &added}, 4001: {Migrate: &Move{Shard: 1, To: 0}},
		},
		exercised: func(m map[uint32]engine.Metrics) error {
			if m[kleeneID].Matches == 0 {
				return fmt.Errorf("the re-added pattern matched nothing")
			}
			return nil
		},
	}}
	for i := range rows {
		rows[i].Schema, rows[i].Shards, rows[i].Batch = s, shards, 64
	}
	return rows
}

package multi

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/pattern"
	"acep/internal/shed"
)

// pinnedRun is what TestSetDeliveryPinned records of one scenario. The
// digests are FNV-64a: delivery over (pattern id, event seqs, Kleene
// seqs) in delivery order; state over (Floor, LivePMs) after every event;
// metrics over every per-pattern Metrics counter after Finish except
// PredEvals, a work counter that may only fall — predEvals is its bound.
type pinnedRun struct {
	matches   int
	delivery  uint64
	state     uint64
	metrics   uint64
	predEvals uint64
}

// deliveryRecorder hashes what an evaluator delivers and, when observe is
// set, the Floor and LivePMs a host reads after every event.
type deliveryRecorder struct {
	delivery, state hash.Hash64
	matches         int
	observe         bool
}

func newDeliveryRecorder(observe bool) *deliveryRecorder {
	return &deliveryRecorder{delivery: fnv.New64a(), state: fnv.New64a(), observe: observe}
}

func (r *deliveryRecorder) onMatch(id uint32, m *match.Match) {
	r.matches++
	fmt.Fprintf(r.delivery, "%d:", id)
	for _, ev := range m.Events {
		if ev != nil {
			fmt.Fprintf(r.delivery, "%d,", ev.Seq)
		} else {
			r.delivery.Write([]byte("_,"))
		}
	}
	for _, set := range m.Kleene {
		r.delivery.Write([]byte("["))
		for _, ev := range set {
			fmt.Fprintf(r.delivery, "%d,", ev.Seq)
		}
		r.delivery.Write([]byte("]"))
	}
	r.delivery.Write([]byte("\n"))
}

// process feeds one event and records the state the host can observe.
func (r *deliveryRecorder) process(v *Evaluator, e *event.Event) {
	v.Process(e)
	if r.observe {
		fmt.Fprintf(r.state, "%d/%d;", v.Floor(), v.LivePMs())
	}
}

func (r *deliveryRecorder) finish(v *Evaluator) pinnedRun {
	v.Finish()
	h := fnv.New64a()
	var preds uint64
	for _, pm := range v.Metrics() {
		m := pm.M
		preds += m.PredEvals
		fmt.Fprintf(h, "%d/%d: %d %d %d %d %d %d %d %d %d %d\n", pm.ID, pm.Tenant,
			m.Events, m.Matches, m.LateDropped, m.EventsArrived, m.EventsShed,
			m.DecisionCalls, m.PlanGenerations, m.Reoptimizations, m.PMCreated, m.PeakPMs)
	}
	return pinnedRun{matches: r.matches, delivery: r.delivery.Sum64(), state: r.state.Sum64(), metrics: h.Sum64(), predEvals: preds}
}

// renumber gives a generated entry list ids from base up.
func renumber(entries []gen.PatternSetEntry, base uint32) []Spec {
	specs := specsOf(entries)
	for i := range specs {
		specs[i].ID = base + uint32(i)
	}
	return specs
}

// TestSetDeliveryPinned pins what a pattern set delivers, in order — not
// just the match multisets the other tests compare — together with the
// per-pattern metrics and the Floor and LivePMs a host reads between
// events. The values were recorded with an evaluator that fed every event
// to every hosted engine; one that skips engines an event cannot change
// must reproduce them exactly, predicate evaluations aside, except that
// the state digests count a suffix class's partial matches once, as
// LivePMs does for the automaton its members share. Each scenario runs
// twice, the second time without reading Floor or LivePMs between events:
// what is delivered and the metrics must not depend on whether the host
// looks.
func TestSetDeliveryPinned(t *testing.T) {
	must := func(entries []gen.PatternSetEntry, err error) []gen.PatternSetEntry {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	type scenario struct {
		name    string
		w       *gen.Workload
		specs   []Spec
		budgets map[uint32]shed.TenantBudget
		// mutate, when set, runs before event i of the stream.
		mutate func(t *testing.T, v *Evaluator, i int)
		late   bool // re-feed an old event now and then
		want   pinnedRun
	}
	keyed := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 20000, Seed: 1, Keys: 2, Shifts: 1})
	overlap := renumber(must(keyed.OverlapPatterns(gen.Sequence, 32, 3, 400, 1)), 1)
	for i := range overlap {
		overlap[i].Config = engine.Config{CheckEvery: 500}
	}

	mixed := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 6000, Seed: 17})
	mixedSpecs := append(renumber(must(mixed.OverlapPatterns(gen.Sequence, 4, 3, 40, 1)), 1),
		renumber(must(mixed.OverlapPatterns(gen.Sequence, 4, 3, 120, 1)), 5)...)

	residual := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 8000, Seed: 11, Keys: 2, Shifts: 1})
	var residualSpecs []Spec
	for k, kind := range []gen.Kind{gen.Sequence, gen.Negation, gen.Kleene} {
		residualSpecs = append(residualSpecs, renumber(must(residual.OverlapPatterns(kind, 6, 3, 400, 1)), uint32(100*k+1))...)
	}

	gated := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 8000, Seed: 19, Shifts: 1})
	gatedSpecs := renumber(must(gated.OverlapPatterns(gen.Sequence, 8, 3, 400, 2)), 1)

	churn := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 8000, Seed: 23, Shifts: 1})
	churnSpecs := renumber(must(churn.OverlapPatterns(gen.Sequence, 8, 3, 400, 1)), 1)

	// A suffix position of the prefix's last type: the event that completes
	// a prefix also reaches the subscriber, which the runner must have
	// seeded first. The seeds then sit in the subscriber's store when that
	// event sweeps it, which orders its partial matches — so the delivery —
	// and sets its peak.
	tied := &gen.Workload{Schema: matchtest.Schema(3)}
	tied.Events = matchtest.Stream(3, tied.Schema, 3000, []float64{1})
	seqOf := func(types ...int) *pattern.Pattern {
		b := pattern.NewBuilder(tied.Schema, pattern.Seq, 12)
		for _, t := range types {
			b.Event(t)
		}
		return b.MustBuild()
	}
	tiedSpecs := []Spec{{ID: 1, Pattern: seqOf(0, 1, 1)}, {ID: 2, Pattern: seqOf(0, 1, 2)}}

	scenarios := []scenario{
		{name: "overlap32-keyed", w: keyed, specs: overlap,
			want: pinnedRun{matches: 6352, delivery: 0xfc1e6feab648cac3, state: 0xd36781e9efb137a4, metrics: 0x7993c611bc62cebc, predEvals: 2461664}},
		{name: "mixed-windows", w: mixed, specs: mixedSpecs,
			want: pinnedRun{matches: 525, delivery: 0x7e7e27f8b463dd19, state: 0x39b79e6c7641d959, metrics: 0xee8753f975c7aa73, predEvals: 23025}},
		{name: "negation-kleene", w: residual, specs: residualSpecs,
			want: pinnedRun{matches: 1544, delivery: 0xa962ffa59d180b15, state: 0xcf9a19e8fe9f235d, metrics: 0xc0292f59e7ffa238, predEvals: 172743}},
		{name: "tenant-gated", w: gated, specs: gatedSpecs,
			budgets: map[uint32]shed.TenantBudget{0: {Rate: 300, Burst: 50}},
			want:    pinnedRun{matches: 6566, delivery: 0x82f207bb309dc1a9, state: 0x6f079e3270937008, metrics: 0xb07765886ff16239, predEvals: 405874}},
		{name: "add-remove", w: churn, specs: churnSpecs[:7], late: true,
			mutate: func(t *testing.T, v *Evaluator, i int) {
				if i != len(churn.Events)/2 {
					return
				}
				if err := v.Add(churnSpecs[7]); err != nil {
					t.Fatal(err)
				}
				if err := v.Remove(churnSpecs[2].ID); err != nil {
					t.Fatal(err)
				}
			},
			want: pinnedRun{matches: 855, delivery: 0xe4b8cd9de09ec9ad, state: 0xab91e2969648e060, metrics: 0x5ede52c0e25fc3eb, predEvals: 56746}},
		{name: "suffix-tied-to-prefix", w: tied, specs: tiedSpecs,
			want: pinnedRun{matches: 3327, delivery: 0x3b983bb5b701dc79, state: 0xd0ca751cb966dac9, metrics: 0x2fc2a8cc0e747f6b}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			set, err := Analyze(sc.specs, sc.w.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if len(set.Groups) == 0 {
				t.Fatal("no prefix group: the scenario would not exercise the shared path")
			}
			run := func(observe bool) (pinnedRun, *Evaluator) {
				rec := newDeliveryRecorder(observe)
				v, err := NewEvaluator(set, Options{OnMatch: rec.onMatch, Budgets: sc.budgets})
				if err != nil {
					t.Fatal(err)
				}
				for i := range sc.w.Events {
					if sc.mutate != nil {
						sc.mutate(t, v, i)
					}
					rec.process(v, &sc.w.Events[i])
					if sc.late && i%500 == 499 {
						rec.process(v, &sc.w.Events[i-7])
					}
				}
				return rec.finish(v), v
			}
			got, v := run(true)
			quiet, _ := run(false)
			if quiet.state = got.state; quiet != got {
				t.Errorf("read between events: %+v\nnot read: %+v", got, quiet)
			}
			if got.matches == 0 {
				t.Fatal("no matches: the scenario is vacuous")
			}
			if sc.budgets != nil {
				shed := uint64(0)
				for _, st := range v.TenantStats() {
					shed += st.Shed
				}
				if shed == 0 {
					t.Fatal("the budget gated nothing")
				}
			}
			want := sc.want
			if got.predEvals > want.predEvals {
				t.Errorf("predicate evaluations %d, recorded %d; they may only fall", got.predEvals, want.predEvals)
			}
			got.predEvals = want.predEvals
			if got != want {
				t.Errorf("got %+v\nwant %+v", got, want)
			}
		})
	}
}

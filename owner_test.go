package acep_test

import (
	"fmt"
	"math/rand"
	"testing"

	"acep"
	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/rungtest"
	"acep/internal/shed"
	"acep/internal/wire"
)

// ownerSystem is one detector behind the table's common surface. ops run
// just before the event they are filed under; check reports whether the
// run did what its row is named for.
type ownerSystem struct {
	process func(*event.Event)
	finish  func()
	ops     map[int]func()
	check   func() error
}

// ownerRow is one owner of event storage on one stream. build makes the
// owner under test (stable false: it copies what it keeps, and what it
// delivers is the consumer's) or its reference (stable true: the caller's
// immutable stream is the storage — ExternalEvents, StableInput — so
// nothing is copied going in or coming out and no block exists to reuse).
type ownerRow struct {
	name   string
	events []event.Event
	build  func(t *testing.T, stable bool, deliver func(uint32, *match.Match)) ownerSystem
}

// ownerStream is n events, one per tick, over types A..E with a key of
// sixteen values and a payload; the type mix flips a third of the way in,
// so an adaptive engine replaces its plan mid-stream.
func ownerStream(n int, seed int64) []event.Event {
	r := rand.New(rand.NewSource(seed))
	mixes := [][]int{{0, 0, 0, 0, 0, 1, 2, 3, 3, 4}, {0, 1, 1, 2, 3, 4, 4, 4, 4, 4}}
	evs := make([]event.Event, n)
	for i := range evs {
		mix := mixes[min(1, i*3/n)]
		evs[i] = event.Event{
			Type: mix[r.Intn(len(mix))], TS: event.Time(i), Seq: uint64(i + 1),
			Attrs: []float64{float64(r.Intn(16)), float64(r.Intn(100))},
		}
	}
	return evs
}

// ownerWindow is two blocks of events wide, so at every moment an engine
// reaches back across several blocks while the stream runs to dozens.
const ownerWindow = 500

// TestOwnerDoesNotRetainCallerEvent is the ownership contract of every
// single-process owner of event storage, as one table: the caller feeds
// one reused Event with one reused Attrs slice and overwrites both after
// every Process; the consumer keeps every delivered match and renders
// them only after Finish, dozens of block reuses later. Each row must
// equal its reference, fed the immutable stream and rendered on delivery.
// Under the race detector a returned block is poisoned, so a pointer the
// owner released too early diverges here even before the block is refilled.
func TestOwnerDoesNotRetainCallerEvent(t *testing.T) {
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		s.MustAddType(name, "key", "v")
	}
	chain := func(first int, negAt, kleeneAt int, types ...int) *pattern.Pattern {
		b := pattern.NewBuilder(s, pattern.Seq, ownerWindow)
		prev := -1
		for i, typ := range types {
			p := b.Event(first + typ)
			if i == negAt {
				b.Negate(p)
			}
			if i == kleeneAt {
				b.Kleene(p)
			}
			if prev >= 0 {
				b.WhereEq(prev, "key", p, "key")
			}
			if i != negAt && i != kleeneAt {
				prev = p
			}
		}
		return b.MustBuild()
	}
	seq := chain(0, -1, -1, 0, 1, 2)
	// SEQ(A, B+, C, E, !D): Kleene sets are collected and trailing-negation
	// matches parked across the plan replacement.
	negKleene := chain(0, 4, 1, 0, 1, 2, 4, 3)
	or3, err := pattern.NewOr(chain(0, -1, -1, 0, 1, 2), chain(1, -1, -1, 0, 1, 2), chain(2, -1, -1, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	stream := ownerStream(12000, 1)

	engineRow := func(name string, pat *pattern.Pattern, model engine.Model, replaced bool) ownerRow {
		return ownerRow{name: fmt.Sprintf("engine/%v/%s", model, name), events: stream,
			build: func(t *testing.T, stable bool, deliver func(uint32, *match.Match)) ownerSystem {
				eng, err := engine.New(pat, engine.Config{
					Model: model, CheckEvery: 100,
					NewPolicy:      func() core.Policy { return core.Unconditional{} },
					ExternalEvents: stable,
					OnMatch:        func(m *match.Match) { deliver(0, m) },
				})
				if err != nil {
					t.Fatal(err)
				}
				sys := ownerSystem{process: eng.Process, finish: eng.Finish}
				if replaced {
					sys.check = func() error {
						if eng.Metrics().Reoptimizations == 0 {
							return fmt.Errorf("no plan was replaced")
						}
						return nil
					}
				}
				return sys
			}}
	}
	multiRow := func(name string, events []event.Event, specs []multi.Spec, budgets map[uint32]shed.TenantBudget,
		ops map[int]rungtest.Op, check func(*multi.Set, *multi.Evaluator) error) ownerRow {
		return ownerRow{name: "multi/" + name, events: events,
			build: func(t *testing.T, stable bool, deliver func(uint32, *match.Match)) ownerSystem {
				set, err := multi.Analyze(specs, s)
				if err != nil {
					t.Fatal(err)
				}
				v, err := multi.NewEvaluator(set, multi.Options{OnMatch: deliver, StableInput: stable, Budgets: budgets})
				if err != nil {
					t.Fatal(err)
				}
				sys := ownerSystem{process: v.Process, finish: v.Finish, ops: map[int]func(){}}
				for at, op := range ops {
					sys.ops[at] = func() {
						if op.Add != nil {
							err = v.Add(*op.Add)
						} else {
							err = v.Remove(op.Remove)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				if check != nil {
					sys.check = func() error { return check(set, v) }
				}
				return sys
			}}
	}
	spec := func(id, tenant uint32, pat *pattern.Pattern) multi.Spec {
		return multi.Spec{ID: id, Tenant: tenant, Pattern: pat, Config: engine.Config{CheckEvery: 250}}
	}
	added := spec(9, 0, chain(2, -1, -1, 0, 1, 2))

	var rows []ownerRow
	for _, model := range []engine.Model{engine.GreedyNFA, engine.ZStreamTree} {
		rows = append(rows,
			engineRow("sequence", seq, model, false),
			engineRow("negation+kleene across a plan replacement", negKleene, model, true),
			engineRow("or of three", or3, model, false))
	}
	rows = append(rows,
		multiRow("shared prefix", stream,
			[]multi.Spec{spec(1, 0, chain(0, -1, -1, 0, 1, 2)), spec(2, 0, chain(0, -1, -1, 0, 1, 3)), spec(3, 0, chain(0, 3, -1, 0, 1, 4, 2)), spec(4, 0, negKleene)},
			nil, nil, func(set *multi.Set, _ *multi.Evaluator) error {
				if len(set.Groups) == 0 {
					return fmt.Errorf("no prefix is shared")
				}
				return nil
			}),
		multiRow("add and remove mid-stream", stream,
			[]multi.Spec{spec(1, 0, seq), spec(2, 0, negKleene)}, nil,
			map[int]rungtest.Op{5000: {Add: &added}, 7000: {Remove: 2}}, nil),
		// Tenant 1's bucket empties after 100 events and refills one token
		// per five windows: its engine sits on parked matches and a residual
		// buffer while tenant 0 carries the evaluator's clock past them.
		multiRow("tenant gated across five windows", stream,
			[]multi.Spec{spec(1, 0, seq), spec(2, 1, chain(0, 2, -1, 0, 1, 2))},
			map[uint32]shed.TenantBudget{1: {Rate: float64(event.Second) / (5 * ownerWindow), Burst: 100}},
			nil, func(_ *multi.Set, v *multi.Evaluator) error {
				for _, pm := range v.Metrics() {
					if pm.ID == 2 && (pm.M.EventsShed < uint64(len(stream))/2 || pm.M.Matches == 0) {
						return fmt.Errorf("gate shed %d events, pattern matched %d times", pm.M.EventsShed, pm.M.Matches)
					}
				}
				return nil
			}),
		ownerRow{name: "facade", events: stream,
			build: func(t *testing.T, stable bool, deliver func(uint32, *match.Match)) ownerSystem {
				pat, err := acep.ParsePattern(s, "PATTERN SEQ(A a, B b, C c) WHERE a.key = b.key AND b.key = c.key WITHIN 500 milliseconds")
				if err != nil {
					t.Fatal(err)
				}
				eng, err := acep.NewEngine(pat, acep.Config{
					ExternalEvents: stable,
					OnMatch:        func(m *acep.Match) { deliver(0, m) },
				})
				if err != nil {
					t.Fatal(err)
				}
				return ownerSystem{process: eng.Process, finish: eng.Finish}
			}})

	record := func(id uint32, m *match.Match) string {
		return fmt.Sprintf("%d/%x", id, wire.AppendMatchBody(nil, m))
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var want []string
			ref := row.build(t, true, func(id uint32, m *match.Match) { want = append(want, record(id, m)) })
			for i := range row.events {
				if op := ref.ops[i]; op != nil {
					op()
				}
				ref.process(&row.events[i])
			}
			ref.finish()
			if len(want) < 100 {
				t.Fatalf("reference found %d matches; the row is vacuous", len(want))
			}
			if ref.check != nil {
				if err := ref.check(); err != nil {
					t.Fatalf("not exercised: %v", err)
				}
			}

			type kept struct {
				id uint32
				m  *match.Match
			}
			var got []kept
			sut := row.build(t, false, func(id uint32, m *match.Match) { got = append(got, kept{id, m}) })
			var caller matchtest.Reused
			for i := range row.events {
				if op := sut.ops[i]; op != nil {
					op()
				}
				caller.Feed(&row.events[i], sut.process)
			}
			sut.finish()
			if len(got) != len(want) {
				t.Fatalf("%d matches delivered, the reference found %d", len(got), len(want))
			}
			for i, k := range got {
				if rec := record(k.id, k.m); rec != want[i] {
					t.Fatalf("match %d of %d, kept since its delivery, reads\n%s\nthe reference's\n%s", i, len(got), rec, want[i])
				}
			}
		})
	}
}

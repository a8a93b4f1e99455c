package multi

import (
	"fmt"
	"sort"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/shed"
)

// matchKey renders a match as its constituent sequence numbers — the
// plan-independent identity both evaluation paths must agree on.
func matchKey(m *match.Match) string {
	key := ""
	for _, ev := range m.Events {
		if ev != nil {
			key += fmt.Sprintf("%d,", ev.Seq)
		} else {
			key += "_,"
		}
	}
	for _, set := range m.Kleene {
		key += "["
		for _, ev := range set {
			key += fmt.Sprintf("%d,", ev.Seq)
		}
		key += "]"
	}
	return key
}

type matchSets map[uint32][]string

func (ms matchSets) add(id uint32, m *match.Match) {
	ms[id] = append(ms[id], matchKey(m))
}

func (ms matchSets) sorted() {
	for _, v := range ms {
		sort.Strings(v)
	}
}

func (ms matchSets) equal(t *testing.T, other matchSets, label string) {
	t.Helper()
	ms.sorted()
	other.sorted()
	ids := map[uint32]bool{}
	for id := range ms {
		ids[id] = true
	}
	for id := range other {
		ids[id] = true
	}
	for id := range ids {
		a, b := ms[id], other[id]
		if len(a) != len(b) {
			t.Fatalf("%s: pattern %d: %d vs %d matches", label, id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: pattern %d match %d: %q vs %q", label, id, i, a[i], b[i])
			}
		}
	}
}

func workloads(events int) []*gen.Workload {
	return []*gen.Workload{
		gen.Traffic(gen.TrafficConfig{Types: 7, Events: events, Seed: 11, Keys: 20}),
		gen.Stocks(gen.StocksConfig{Types: 7, Events: events, Seed: 13}),
	}
}

func specsOf(entries []gen.PatternSetEntry) []Spec {
	specs := make([]Spec, len(entries))
	for i, e := range entries {
		specs[i] = Spec{ID: e.ID, Tenant: e.Tenant, Pattern: e.Pattern}
	}
	return specs
}

// runIndependent evaluates every spec on its own adaptive engine.
func runIndependent(t *testing.T, specs []Spec, evs []event.Event) matchSets {
	t.Helper()
	got := matchSets{}
	engines := make([]*engine.Engine, len(specs))
	for i, sp := range specs {
		id := sp.ID
		e, err := engine.New(sp.Pattern, engine.Config{
			OnMatch: func(m *match.Match) { got.add(id, m) },
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	for i := range evs {
		for _, e := range engines {
			e.Process(&evs[i])
		}
	}
	for _, e := range engines {
		e.Finish()
	}
	return got
}

func TestAnalyzeFindsSharing(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 10, Seed: 1})
	entries, err := w.OverlapPatterns(gen.Sequence, 12, 3, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Analyze(specsOf(entries), w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (single tenant, one shared prefix)", len(set.Groups))
	}
	g := set.Groups[0]
	if g.Len != 3 || len(g.Members) != 12 {
		t.Fatalf("group = len %d members %d, want 3/12", g.Len, len(g.Members))
	}
	if r := set.Report(); r.GroupedPatterns != 12 {
		t.Fatalf("report = %+v", r)
	}
}

// TestAnalyzeDedupsUnary interns equal unary predicates across patterns
// into one shared-table entry.
func TestAnalyzeDedupsUnary(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 10, Seed: 1})
	mk := func(last int) Spec {
		b := pattern.NewBuilder(w.Schema, pattern.Seq, 100)
		b.Event(0)
		b.Event(last)
		b.WhereConst(0, "speed", pattern.GT, 50)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return Spec{ID: uint32(last), Pattern: p}
	}
	set, err := Analyze([]Spec{mk(1), mk(2), mk(3)}, w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	r := set.Report()
	if r.TotalUnary != 3 || r.DistinctUnary != 1 {
		t.Fatalf("report = %+v, want 3 total / 1 distinct", r)
	}
}

func TestAnalyzeTenantsSplitGroups(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 10, Seed: 1})
	entries, err := w.OverlapPatterns(gen.Sequence, 12, 3, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Analyze(specsOf(entries), w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Groups) != 3 {
		t.Fatalf("groups = %d, want 3 (one per tenant)", len(set.Groups))
	}
	for _, g := range set.Groups {
		for _, m := range g.Members {
			if set.Specs[m].Tenant != g.Tenant {
				t.Fatalf("group tenant %d holds member of tenant %d", g.Tenant, set.Specs[m].Tenant)
			}
		}
	}
}

// TestSharedMatchesIndependent is the satellite cross-check: for every
// workload and suffix flavor, the shared-evaluation match set per
// pattern must equal independently-run single-pattern engines.
func TestSharedMatchesIndependent(t *testing.T) {
	kinds := []gen.Kind{gen.Sequence, gen.Negation, gen.Kleene}
	for _, w := range workloads(6000) {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s-%v", w.Domain, kind), func(t *testing.T) {
				entries, err := w.OverlapPatterns(kind, 10, 3, 60, 1)
				if err != nil {
					t.Fatal(err)
				}
				specs := specsOf(entries)
				want := runIndependent(t, specs, w.Events)

				got := matchSets{}
				set, err := Analyze(specs, w.Schema)
				if err != nil {
					t.Fatal(err)
				}
				if len(set.Groups) == 0 {
					t.Fatal("no sharing detected; test would not exercise the shared path")
				}
				v, err := NewEvaluator(set, Options{
					OnMatch: func(id uint32, m *match.Match) { got.add(id, m) },
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range w.Events {
					v.Process(&w.Events[i])
				}
				v.Finish()
				want.equal(t, got, fmt.Sprintf("%s/%v", w.Domain, kind))
			})
		}
	}
}

// TestSharedMixedWindows puts subscribers with different windows behind
// one runner (the runner takes the widest; Seed filters per pattern).
func TestSharedMixedWindows(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 6000, Seed: 17})
	e1, err := w.OverlapPatterns(gen.Sequence, 4, 3, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := w.OverlapPatterns(gen.Sequence, 4, 3, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for i, e := range append(e1, e2...) {
		specs = append(specs, Spec{ID: uint32(i + 1), Pattern: e.Pattern})
	}
	want := runIndependent(t, specs, w.Events)
	got := matchSets{}
	set, err := Analyze(specs, w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Groups) != 1 || len(set.Groups[0].Members) != 8 {
		t.Fatalf("expected one group of 8 across windows, got %+v", set.Groups)
	}
	v, err := NewEvaluator(set, Options{OnMatch: func(id uint32, m *match.Match) { got.add(id, m) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		v.Process(&w.Events[i])
	}
	v.Finish()
	want.equal(t, got, "mixed-windows")
}

// TestTenantBudgetIsolation floods one tenant's budget and checks the
// other tenant's patterns emit exactly their unbudgeted match set.
func TestTenantBudgetIsolation(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 6000, Seed: 19})
	entries, err := w.OverlapPatterns(gen.Sequence, 8, 3, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := specsOf(entries)
	set, err := Analyze(specs, w.Schema)
	if err != nil {
		t.Fatal(err)
	}

	run := func(budgets map[uint32]shed.TenantBudget) (matchSets, *Evaluator) {
		got := matchSets{}
		v, err := NewEvaluator(set, Options{
			OnMatch: func(id uint32, m *match.Match) { got.add(id, m) },
			Budgets: budgets,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Events {
			v.Process(&w.Events[i])
		}
		v.Finish()
		return got, v
	}

	free, _ := run(nil)
	throttled, v := run(map[uint32]shed.TenantBudget{0: {Rate: 20, Burst: 20}})

	stats := v.TenantStats()
	if len(stats) != 2 {
		t.Fatalf("tenant stats = %+v", stats)
	}
	var shed0, shed1 uint64
	for _, st := range stats {
		if st.Tenant == 0 {
			shed0 = st.Shed
		} else {
			shed1 = st.Shed
		}
	}
	if shed0 == 0 {
		t.Fatal("budgeted tenant never shed")
	}
	if shed1 != 0 {
		t.Fatalf("unbudgeted tenant shed %d events", shed1)
	}
	// Tenant 1's patterns (even ids are tenant 0: ids are 1-based, so
	// tenant = (id-1) % 2) must be untouched.
	for _, sp := range specs {
		a, b := free[sp.ID], throttled[sp.ID]
		sort.Strings(a)
		sort.Strings(b)
		if sp.Tenant == 1 {
			if len(a) != len(b) {
				t.Fatalf("isolated tenant pattern %d: %d vs %d matches", sp.ID, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("isolated tenant pattern %d diverged", sp.ID)
				}
			}
		}
	}
	// Recall accounting is surfaced per pattern.
	for _, pm := range v.Metrics() {
		if pm.Tenant == 0 && pm.M.EventsShed == 0 {
			t.Fatalf("pattern %d of throttled tenant reports no shed events", pm.ID)
		}
		if pm.Tenant == 1 && pm.M.EventsShed != 0 {
			t.Fatalf("pattern %d of isolated tenant reports shed events", pm.ID)
		}
	}
}

// TestRuntimeAddRemove mutates the set mid-stream and checks patterns
// present throughout emit exactly what they would without the mutation.
func TestRuntimeAddRemove(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 6000, Seed: 23})
	entries, err := w.OverlapPatterns(gen.Sequence, 8, 3, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := specsOf(entries)
	baseline := runIndependent(t, specs, w.Events)

	got := matchSets{}
	set, err := Analyze(specs[:7], w.Schema) // last spec joins at runtime
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewEvaluator(set, Options{OnMatch: func(id uint32, m *match.Match) { got.add(id, m) }})
	if err != nil {
		t.Fatal(err)
	}
	half := len(w.Events) / 2
	for i := 0; i < half; i++ {
		v.Process(&w.Events[i])
	}
	if err := v.Add(specs[7]); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove(specs[2].ID); err != nil {
		t.Fatal(err)
	}
	if n := len(v.Patterns()); n != 7 {
		t.Fatalf("pattern count after add+remove = %d, want 7", n)
	}
	for i := half; i < len(w.Events); i++ {
		v.Process(&w.Events[i])
	}
	v.Finish()

	// Patterns registered from the start and never removed must be
	// byte-identical to the no-mutation baseline.
	for _, sp := range specs[:7] {
		if sp.ID == specs[2].ID {
			continue
		}
		a, b := baseline[sp.ID], got[sp.ID]
		sort.Strings(a)
		sort.Strings(b)
		if len(a) != len(b) {
			t.Fatalf("undisturbed pattern %d: %d vs %d matches", sp.ID, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("undisturbed pattern %d diverged at %d", sp.ID, i)
			}
		}
	}
	// The added pattern detects from its join point: a subset of the
	// full-stream baseline.
	added := got[specs[7].ID]
	full := map[string]bool{}
	for _, k := range baseline[specs[7].ID] {
		full[k] = true
	}
	for _, k := range added {
		if !full[k] {
			t.Fatalf("added pattern emitted %q not in full-stream set", k)
		}
	}
	// The removed pattern emitted only before removal.
	if len(got[specs[2].ID]) > len(baseline[specs[2].ID]) {
		t.Fatalf("removed pattern emitted more than baseline")
	}
}

// TestSharedMetrics sanity-checks the synthesized per-pattern metrics.
func TestSharedMetrics(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 3000, Seed: 29})
	entries, err := w.OverlapPatterns(gen.Sequence, 6, 3, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := specsOf(entries)
	set, err := Analyze(specs, w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	v, err := NewEvaluator(set, Options{OnMatch: func(uint32, *match.Match) { matches++ }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		v.Process(&w.Events[i])
	}
	v.Finish()
	total := uint64(0)
	for _, pm := range v.Metrics() {
		if pm.M.EventsArrived != uint64(len(w.Events)) {
			t.Fatalf("pattern %d arrived = %d, want %d", pm.ID, pm.M.EventsArrived, len(w.Events))
		}
		total += pm.M.Matches
	}
	if total != uint64(matches) {
		t.Fatalf("metrics matches %d != emitted %d", total, matches)
	}
	if v.LivePMs() < 0 {
		t.Fatal("LivePMs negative")
	}
}

// TestReadsOf: a set reads the type of every position of every pattern —
// core, negated and Kleene, in every disjunct of an OR — and nothing else.
func TestReadsOf(t *testing.T) {
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		s.MustAddType(name, "v")
	}
	seq := func(types ...int) *pattern.Pattern {
		b := pattern.NewBuilder(s, pattern.Seq, 100)
		for _, typ := range types {
			b.Event(typ)
		}
		return b.Negate(1).Kleene(2).MustBuild()
	}
	or, err := pattern.NewOr(seq(4, 1, 0), seq(0, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	reads := ReadsOf([]Spec{{ID: 1, Pattern: seq(0, 2, 3)}, {ID: 2, Pattern: or}})
	for typ, want := range []bool{true, true, true, true, true, true, false, false} {
		if got := reads.Has(typ); got != want {
			t.Errorf("type %d: read %v, want %v", typ, got, want)
		}
	}
	if reads.Has(-1) || ReadsOf(nil).Has(0) {
		t.Error("a type outside the set is read")
	}
}

package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/gen"
)

// tinyScale keeps harness unit tests fast.
func tinyScale() Scale {
	return Scale{
		Events:     4000,
		Sizes:      []int{3, 4},
		Seed:       7,
		Window:     60,
		CheckEvery: 400,
		Types:      10,
	}
}

func TestCombos(t *testing.T) {
	cs := Combos()
	if len(cs) != 4 {
		t.Fatalf("%d combos", len(cs))
	}
	if cs[0].String() != "traffic/greedy" || cs[3].String() != "stocks/zstream" {
		t.Fatalf("combo names: %v %v", cs[0], cs[3])
	}
}

func TestHarnessRunDeterministicWorkload(t *testing.T) {
	h := NewHarness(tinyScale())
	w1 := h.Workload("traffic")
	w2 := h.Workload("traffic")
	if w1 != w2 {
		t.Fatal("workload not cached")
	}
	pat, err := h.Pattern(Combos()[0], gen.Sequence, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(Combos()[0], pat, func() core.Policy { return core.Static{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Elapsed <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	// Matches must be identical across policies (policy independence at
	// harness level).
	res2, err := h.Run(Combos()[0], pat, func() core.Policy { return core.Unconditional{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != res2.Matches {
		t.Fatalf("match counts differ across policies: %d vs %d", res.Matches, res2.Matches)
	}
}

func TestFig5AndBestD(t *testing.T) {
	h := NewHarness(tinyScale())
	f5, err := h.Fig5(Combos()[0], []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Throughput) != 2 || len(f5.Throughput[0]) != 2 {
		t.Fatalf("shape %dx%d", len(f5.Throughput), len(f5.Throughput[0]))
	}
	best := f5.BestD()
	if best != 0 && best != 0.3 {
		t.Fatalf("BestD = %g", best)
	}
	var buf bytes.Buffer
	f5.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("missing header")
	}
}

func TestTable1(t *testing.T) {
	sc := tinyScale()
	sc.Sizes = []int{4, 5}
	h := NewHarness(sc)
	f5, err := h.Fig5(Combos()[0], []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := h.Table1(Combos()[0], f5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows; want 2 (sizes 4,5)", len(rows))
	}
	for _, r := range rows {
		if r.DAvg < 0 || r.Quality < 0 || r.Quality > 1 {
			t.Fatalf("bad row %+v", r)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("missing header")
	}
}

// TestTable1Pinned holds Table 1's d_avg, bit for bit, on every combo and
// size 4..8 at a small scale: A's trace over the warm-up prefix's
// statistics does not depend on how the prefix is replayed.
func TestTable1Pinned(t *testing.T) {
	want := map[string][]float64{ // sizes 4..8
		"traffic/greedy":  {2.7320671844762123, 2.1004748738175008, 3.146180908930388, 5.398079485853838, 5.89003712905649},
		"traffic/zstream": {0.0810738105822968, 0.20906551517178681, 0.40095560825072096, 0.1069591224043602, 0.05281471688602083},
		"stocks/greedy":   {0.13432997317410633, 0.0890061965260734, 0.10010343920181741, 0.2575097280453982, 0.22509376713374651},
		"stocks/zstream":  {0.12052114075603482, 0.005152406323179576, 0.061915180300057826, 0.10176523692837197, 0.20462332014857348},
	}
	sc := tinyScale()
	sc.Sizes = []int{4, 5, 6, 7, 8}
	h := NewHarness(sc)
	f5 := &Fig5Data{Ds: []float64{0.1}, Throughput: [][]float64{{1}}}
	for _, c := range Combos() {
		rows, err := h.Table1(c, f5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(sc.Sizes) {
			t.Fatalf("%v: %d rows, want %d", c, len(rows), len(sc.Sizes))
		}
		for i, r := range rows {
			if r.Size != sc.Sizes[i] || r.DAvg != want[c.String()][i] {
				t.Errorf("%v size %d: d_avg %v, want %v at size %d", c, r.Size, r.DAvg, want[c.String()][i], sc.Sizes[i])
			}
		}
	}
}

// TestDecisionsMatchEngines: the decisions do not depend on the
// evaluators. On every fig6–9 cell at a small scale — each combo, kind and
// size 3..5, under the four compared methods and the meta-invariant — an
// evaluator-free run (engine.Decisions) counts the events, late drops, D's
// calls, A's runs and the replacements the engine counts.
func TestDecisionsMatchEngines(t *testing.T) {
	sc := tinyScale()
	sc.Events, sc.Sizes = 12000, []int{3, 4, 5}
	h := NewHarness(sc)
	methods := map[string]func() core.Policy{
		"meta-invariant": func() core.Policy { return &core.MetaInvariant{} },
	}
	for _, name := range MethodNames() {
		newPolicy, err := core.PolicyFromString(name, 0.3, 0.1, 0)
		if err != nil {
			t.Fatal(err)
		}
		methods[name] = newPolicy
	}
	type counts struct{ Events, LateDropped, DecisionCalls, PlanGenerations, Reoptimizations uint64 }
	of := func(m engine.Metrics) counts {
		return counts{m.Events, m.LateDropped, m.DecisionCalls, m.PlanGenerations, m.Reoptimizations}
	}
	var reopts uint64
	for _, c := range Combos() {
		w := h.Workload(c.Dataset)
		for _, kind := range gen.Kinds() {
			for _, size := range sc.Sizes {
				pat, err := h.Pattern(c, kind, size)
				if err != nil {
					t.Fatal(err)
				}
				for name, newPolicy := range methods {
					eng, err := engine.New(pat, h.config(c, newPolicy))
					if err != nil {
						t.Fatal(err)
					}
					for i := range w.Events {
						eng.Process(&w.Events[i])
					}
					eng.Finish()
					m, err := engine.Decisions(pat, h.config(c, newPolicy), w.Events, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := of(m), of(eng.Metrics()); got != want {
						t.Errorf("%v %v size %d %s: Decisions %+v, engine %+v", c, kind, size, name, got, want)
					}
					reopts += m.Reoptimizations
				}
			}
		}
	}
	if reopts == 0 {
		t.Fatal("no cell replaced a plan")
	}
}

func TestMethodsAndFigurePrinting(t *testing.T) {
	h := NewHarness(tinyScale())
	c := Combos()[0]
	data, err := h.Methods(c, []gen.Kind{gen.Sequence, gen.Conjunction}, 0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Results) != 2 || len(data.Results[0]) != 2 || len(data.Results[0][0]) != 4 {
		t.Fatal("wrong result shape")
	}
	avg := data.Avg()
	if len(avg) != 2 || len(avg[0]) != 4 {
		t.Fatal("wrong avg shape")
	}
	// static must never reoptimize; unconditional must generate plans at
	// every check. Counts are means over the kinds, like the rest.
	for si := range data.Sizes {
		if avg[si][0].Reopts != 0 {
			t.Fatalf("static reopts = %d", avg[si][0].Reopts)
		}
		for mi := range data.Methods {
			var pms, matches uint64
			for ki := range data.Kinds {
				pms += data.Results[ki][si][mi].PMCreated
				matches += data.Results[ki][si][mi].Matches
			}
			n := uint64(len(data.Kinds))
			if got := avg[si][mi]; got.PMCreated != (pms+n/2)/n || got.Matches != (matches+n/2)/n {
				t.Fatalf("size %d, %s: Avg has %d partial matches and %d matches; the means over the kinds are %d and %d",
					data.Sizes[si], data.Methods[mi], got.PMCreated, got.Matches, (pms+n/2)/n, (matches+n/2)/n)
			}
			statShare := 0.0
			for ki := range data.Kinds {
				statShare += data.Results[ki][si][mi].StatShare
			}
			if got, want := avg[si][mi].StatShare, statShare/float64(n); math.Abs(got-want) > 1e-12 {
				t.Fatalf("size %d, %s: Avg has statistics share %v; the mean over the kinds is %v", data.Sizes[si], data.Methods[mi], got, want)
			}
		}
		// Static gathers no statistics; the invariant method refreshes
		// them at every check.
		if static, inv := avg[si][0].StatShare, avg[si][3].StatShare; static != 0 || inv <= 0 {
			t.Fatalf("size %d: statistics share %v under static, %v under invariant", data.Sizes[si], static, inv)
		}
	}
	// Every run that replaced a plan prices its replacements, and no other
	// run does; Avg's prices are the means over the kinds.
	priced := 0
	for si := range data.Sizes {
		for mi := range data.Methods {
			var want ReplaceCost
			for ki := range data.Kinds {
				r := data.Results[ki][si][mi]
				c := r.Replace
				if (r.Reopts > 0) != (c.A > 0 && c.Deploy > 0 && c.DrainEvents > 0) || r.Reopts == 0 && c != (ReplaceCost{}) {
					t.Fatalf("size %d, %s, kind %d: %d replacements priced %+v", data.Sizes[si], data.Methods[mi], ki, r.Reopts, c)
				}
				if r.Reopts > 0 {
					priced++
				}
				want.A += c.A
				want.Deploy += c.Deploy
				want.DrainEvents += c.DrainEvents
				want.Suppressed += c.Suppressed
			}
			n := float64(len(data.Kinds))
			got := avg[si][mi].Replace
			if math.Abs(float64(got.A)-float64(want.A)/n) > 1 || math.Abs(float64(got.Deploy)-float64(want.Deploy)/n) > 1 ||
				math.Abs(got.DrainEvents-want.DrainEvents/n) > 1e-9 || math.Abs(got.Suppressed-want.Suppressed/n) > 1e-9 {
				t.Fatalf("size %d, %s: Avg prices a replacement at %+v; the sums over the kinds are %+v", data.Sizes[si], data.Methods[mi], got, want)
			}
		}
	}
	if priced == 0 {
		t.Fatal("no run replaced a plan; the replacement prices are untested")
	}
	var buf bytes.Buffer
	data.WriteFigure(&buf, -1)
	out := buf.String()
	for _, want := range []string{"throughput", "reoptimizations", "overhead", "e: partial matches created", "f: matches", "static", "invariant"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q", want)
		}
	}
	if !strings.Contains(out, "g: statistics refresh, % of run time") {
		t.Fatal("figure output missing the statistics refresh panel")
	}
	for _, want := range []string{"h: per replacement, A's runs", "h: per replacement, deploying the plan", "h: per replacement, events handed to draining", "h: per replacement, drain-side completions withheld"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing the replacement panel %q", want)
		}
	}
	buf.Reset()
	data.WriteFigure(&buf, 1)
	if !strings.Contains(buf.String(), "conjunction patterns") {
		t.Fatal("per-kind figure missing kind label")
	}
}

func TestScanThreshold(t *testing.T) {
	h := NewHarness(tinyScale())
	topt, err := h.ScanThreshold(Combos()[0], []float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if topt != 0.1 && topt != 0.5 {
		t.Fatalf("topt = %g", topt)
	}
}

// paperID reports whether id is one of the paper's tables and figures.
func paperID(id string) bool { return id == "table1" || strings.HasPrefix(id, "fig") }

// TestExperimentRegistry: -list, -exp all and dispatch are one table, so
// every listed id must run — the shed-* and ablation-* ids here at a small
// scale, the drill ids in TestDrills, the paper ids through two
// representatives (their runners are covered by the tests above).
func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	paper := 0
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("id %s listed twice", e.ID)
		}
		seen[e.ID] = true
		if e.Doc == "" {
			t.Errorf("id %s has no doc line", e.ID)
		}
		switch {
		case paperID(e.ID):
			paper++
		case strings.HasPrefix(e.ID, "ablation-"):
			var tbl bytes.Buffer
			if err := NewRunner(NewHarness(tinyScale())).Run(&tbl, e.ID); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			// One table per combo, each naming the largest size.
			if got := strings.Count(tbl.String(), "Ablation"); got != len(Combos()) || !strings.Contains(tbl.String(), "size 4") {
				t.Errorf("%s: %d tables, want one per combo at size 4:\n%s", e.ID, got, tbl.String())
			}
		case strings.HasPrefix(e.ID, "shed-"):
			var tbl, rec bytes.Buffer
			r := NewRunner(NewHarness(shedScale()))
			r.ShedPolicies, r.JSON = []string{"random"}, &rec
			if err := r.Run(&tbl, e.ID); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !strings.Contains(tbl.String(), "Load shedding") || !strings.Contains(rec.String(), "\"baseline_matches\"") {
				t.Errorf("%s: table or JSON record missing", e.ID)
			}
		default:
			name, dataset, _ := strings.Cut(e.ID, "-")
			if _, ok := drillChecks[name]; !ok || (dataset != "traffic" && dataset != "stocks") {
				t.Errorf("id %s is listed but no test runs it", e.ID)
			}
		}
	}
	if paper != 2+4+20 {
		t.Fatalf("%d paper ids, want fig5, table1, fig6-fig29", paper)
	}
	for _, id := range []string{"fig5", "table1", "fig6", "fig29"} {
		if !seen[id] {
			t.Fatalf("missing id %s", id)
		}
	}

	sc := tinyScale()
	sc.Sizes = []int{3}
	sc.Events = 2500
	r := NewRunner(NewHarness(sc))
	var buf bytes.Buffer
	if err := r.Run(&buf, "fig10"); err != nil { // traffic/greedy, sequence set
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sequence patterns") {
		t.Fatal("fig10 output wrong")
	}
	if err := r.Run(&buf, "nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	// Tuning must be cached: a second figure on the same combo reuses it.
	buf.Reset()
	if err := r.Run(&buf, "fig14"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "conjunction patterns") {
		t.Fatal("fig14 output wrong")
	}
}

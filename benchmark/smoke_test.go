package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeArgs shrink a run to something a unit test can afford: the
// numbers mean nothing at this size, the plumbing is all there.
var smokeArgs = []string{"-events", "20000", "-seed", "3"}

// runSmoke runs the benchmark in-process and returns what it printed and
// its parsed last line.
func runSmoke(t *testing.T, args ...string) (string, report) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, smokeArgs...), &stdout, &stderr); code != 0 {
		t.Fatalf("run %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("last line is not a report: %v\n%s", err, lines[len(lines)-1])
	}
	return stdout.String(), rep
}

// checkDeclared asserts that every declared metric is printed exactly
// once with its unit, and that the report holds exactly the declared set.
func checkDeclared(t *testing.T, out string, rep report, decls []decl) {
	t.Helper()
	for _, d := range decls {
		re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.Name) + ` \S+ ` + regexp.QuoteMeta(d.Unit) + `( |$)`)
		if n := len(re.FindAllString(out, -1)); n != 1 {
			t.Errorf("metric %s printed %d times with unit %s, want once", d.Name, n, d.Unit)
		}
		m, ok := rep.Metrics[d.Name]
		if !ok {
			t.Errorf("report lacks %s", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("report gives %s in %q, declared %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", d.Name, m.Value)
		}
	}
	if len(rep.Metrics) != len(decls) {
		t.Errorf("report holds %d metrics, %d are declared", len(rep.Metrics), len(decls))
	}
}

func TestSmokeWorkloads(t *testing.T) {
	var decls []decl
	for _, b := range endToEndDecls() {
		decls = append(decls, b.decl)
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			out, rep := runSmoke(t, "-workload", wl.name, "-passes", "2")
			checkDeclared(t, out, rep, decls)
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("correct=%v failed=%d, want a clean run", rep.Correct, rep.Failed)
			}
			if want := uint64(2 * 20000 * len(wl.parts)); rep.Attempted != want {
				t.Errorf("attempted %d events, want %d", rep.Attempted, want)
			}
			for _, b := range endToEndDecls() {
				if rep.Metrics[b.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", b.Name, rep.Metrics[b.Name].Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	out, rep := runSmoke(t, "-workload", "cluster-tcp", "-trace", "1", "-passes", "1", "-trace-dir", dir)
	checkDeclared(t, out, rep, perLayerDecls())
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("correct=%v failed=%d, want a clean run", rep.Correct, rep.Failed)
	}

	// The ladder composes: a rung's CPU is the rung beneath plus its delta.
	for i := 1; i < len(ladder); i++ {
		up, down := ladder[i].name, ladder[i-1].name
		sum := rep.Metrics[down+".cpu_us_per_event"].Value + rep.Metrics[up+".delta_cpu_us_per_event"].Value
		if got := rep.Metrics[up+".cpu_us_per_event"].Value; math.Abs(got-sum) > 1e-9 {
			t.Errorf("%s: cpu %v != %s's %v + delta", up, got, down, sum)
		}
	}

	// The span file: every pass has its construct, feed, finish and
	// teardown children, and the feeds account for every event.
	raw, err := os.ReadFile(filepath.Join(dir, "trace-cluster-tcp.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "cluster-tcp" || tf.Seed != 3 {
		t.Errorf("trace is of %s seed %d", tf.Workload, tf.Seed)
	}
	passes := 0
	for _, root := range tf.Spans {
		if root.Parent != -1 {
			continue
		}
		passes++
		kids := map[string]int{}
		fed := 0
		for _, s := range tf.Spans {
			if s.Parent != root.ID {
				continue
			}
			if s.Pass != root.Pass {
				t.Errorf("span %d of pass %d has a parent of pass %d", s.ID, s.Pass, root.Pass)
			}
			if s.StartNS < root.StartNS || s.EndNS > root.EndNS || s.EndNS < s.StartNS {
				t.Errorf("span %d (%s) lies outside its pass", s.ID, s.Name)
			}
			kids[s.Name]++
			fed += s.Events
		}
		if kids["construct"] != 1 || kids["finish"] != 1 || kids["teardown"] != 1 || kids["feed"] != 5 {
			t.Errorf("pass %d (%s) has children %v", root.Pass, root.Name, kids)
		}
		if fed != 20000 {
			t.Errorf("pass %d (%s) fed %d events in its spans, want 20000", root.Pass, root.Name, fed)
		}
		if self := selfTime(tf.Spans, root.ID); self < 0 || self > 0 && int64(self) > root.EndNS-root.StartNS {
			t.Errorf("pass %d self time %v", root.Pass, self)
		}
	}
	if passes < len(ladder) {
		t.Errorf("trace holds %d passes, the ladder alone has %d rungs", passes, len(ladder))
	}
}

func TestVacuousPassIsAnError(t *testing.T) {
	wl := workloadByName("engine-adapt")
	res := result{d: digest{n: 10}}
	if wl.vacuous(res, defaultEvents) == "" {
		t.Error("10 matches in a full pass went unremarked")
	}
	res.d.n = 5000
	if wl.vacuous(res, defaultEvents) == "" {
		t.Error("a pass without a plan replacement went unremarked on engine-adapt")
	}
	res.em.Reoptimizations = 3
	if why := wl.vacuous(res, defaultEvents); why != "" {
		t.Errorf("a healthy pass called vacuous: %s", why)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such"},
		{"-workload", "shard-keyed", "-seconds", "0"},
		{"-workload", "shard-keyed", "-events", "10"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run %v exited 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run %v printed a result: %s", args, stdout.String())
		}
	}
}

// TestBenchmarkFileInSync holds BENCHMARK.json to the tables the runs
// use. Regenerate it with: go run . -describe > ../BENCHMARK.json
func TestBenchmarkFileInSync(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	want, err := json.MarshalIndent(describeBenchmark(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != string(want) {
		t.Error("BENCHMARK.json differs from -describe; regenerate it")
	}
	f := describeBenchmark()
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", n)
	}
	seen := map[string]bool{}
	for _, d := range f.PerLayer {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range f.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}

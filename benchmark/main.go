// Command benchmark is the repository's cost-ladder benchmark: five
// closed-loop saturation workloads, each run as many identical passes
// whose median is reported, and a traced mode that attributes cost to
// single layers by timing calls into them from here. README.md beside
// this file says what every metric means and how it was sized.
//
//	benchmark --workload shard-keyed --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// processStart is as close to process start as Go code gets.
var processStart = time.Now()

// setupRounds is how many times set-up is done per run; setup_s is the
// median round. Each round ends in one full warm-up pass, so a run has
// done exactly four of them before its first timed pass.
const setupRounds = 4

// tracePasses is the passes per rung of a traced run. Every traced run
// has to print every per-layer metric, whichever workload it names, so
// it walks all the rungs; five passes of each keep it under 30 s.
const tracePasses = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// count adds one timed pass to the report: its events as attempted, and
// as failed those the system dropped, or all of them if the pass did not
// reproduce the reference. It reports whether the pass did.
func (rep *report) count(res result) bool {
	rep.Attempted += uint64(res.events)
	if !res.digestOK {
		rep.Correct = false
		rep.Failed += uint64(res.events)
		return false
	}
	rep.Failed += res.failed
	return true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "seed of the generated streams")
		seconds  = fs.Int("seconds", defaultSeconds, "run length; sets the pass count (see -passes)")
		trace    = fs.Int("trace", 0, "1: run the ladder with tracing and print the per-layer metrics")
		passes   = fs.Int("passes", 0, "override the pass count (smoke runs only)")
		events   = fs.Int("events", defaultEvents, "override the stream length (smoke runs only)")
		traceDir = fs.String("trace-dir", ".bench_build", "where a traced run writes trace-<workload>.json")
		describe = fs.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		b, err := json.MarshalIndent(describeBenchmark(), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	wl := workloadByName(*name)
	if wl == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *events < 2*stampBlock || *passes < 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1, -events at least 128, -passes not negative")
		return 2
	}
	printEnvironment(stdout, *seed, *events)

	var rep report
	var err error
	if *trace != 0 {
		n := tracePasses
		if *passes > 0 {
			n = *passes
		}
		rep, err = runTraced(stdout, wl, *seed, *events, n, *traceDir)
	} else {
		n := max(2, int(math.Round(float64(*seconds)*wl.passesPerSecond)))
		if *passes > 0 {
			n = *passes
		}
		rep, err = runWorkload(stdout, wl, *seed, *events, n)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// printEnvironment records what the numbers depend on besides the code.
func printEnvironment(w io.Writer, seed int64, events int) {
	kernel := "unknown"
	var uts syscall.Utsname
	if syscall.Uname(&uts) == nil {
		b := make([]byte, 0, len(uts.Release))
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	commit := "unknown" // a checkout without .git, such as the driver's, has none to name
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Fprintf(w, "env go=%s gomaxprocs=%d nproc=%d kernel=%s commit=%s seed=%d events=%d shards=%d batch=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), kernel, commit, seed, events, totalShards, batch)
}

// setUp prepares the workload setupRounds times and returns the last
// round's inputs and the median round time. A round is what stands
// between a cold process and a system ready for its first timed event:
// generating the stream, building patterns, taking the prefix
// statistics, and one full untimed pass (construct, feed, finish, tear
// down) checked against the reference. The reference itself is computed
// once, in the first round, off the round's clock: it is the benchmark's
// own checking cost, and repeating it would only lengthen every run.
func setUp(wl *workload, seed int64, events int) (*inputs, float64, error) {
	var in *inputs
	var ref digest
	rounds := make([]float64, setupRounds)
	for r := range rounds {
		t := time.Now()
		var err error
		if in, err = wl.prepare(events, seed); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		prepared := time.Since(t)
		if r == 0 {
			if err := wl.reference(in); err != nil {
				return nil, 0, err
			}
			ref = in.ref
		}
		in.ref = ref
		t = time.Now()
		res, err := wl.pass(in, nil, -1)
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up pass: %w", err)
		}
		if !res.digestOK {
			return nil, 0, fmt.Errorf("warm-up pass delivered %d matches that differ from the reference's %d", res.d.n, ref.n)
		}
		rounds[r] = (prepared + time.Since(t)).Seconds()
	}
	return in, median(rounds), nil
}

// runWorkload is an untraced run: set-up, then the timed passes.
func runWorkload(w io.Writer, wl *workload, seed int64, events, passes int) (report, error) {
	in, setupS, err := setUp(wl, seed, events)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(w, "set-up: %d rounds, median %.3f s, %.3f s from process start to the first timed pass; reference %d matches\n",
		setupRounds, setupS, time.Since(processStart).Seconds(), in.ref.n)

	rep := report{Correct: true, Metrics: map[string]metric{}}
	results := make([]result, 0, passes)
	for p := 0; p < passes; p++ {
		res, err := wl.pass(in, nil, p)
		if err != nil {
			return report{}, err
		}
		if why := wl.vacuous(res, events); why != "" {
			return report{}, fmt.Errorf("%s pass %d is vacuous: %s", wl.name, p, why)
		}
		if !rep.count(res) {
			fmt.Fprintf(w, "pass %d: delivered %d matches that differ from the reference's %d\n", p, res.d.n, in.ref.n)
		}
		results = append(results, res)
	}
	var timed time.Duration
	for _, r := range results {
		timed += r.wall
	}
	fmt.Fprintf(w, "%s: %d passes of %d events, %d matches per pass, %.1f s timed\n",
		wl.name, passes, results[0].events, results[0].d.n, timed.Seconds())

	show := func(kind, name, unit string, vals []float64) {
		fmt.Fprintf(w, "%s %s %.6g %s pass_iqr_share %.4f\n", kind, name, median(vals), unit, iqrShare(vals))
		fmt.Fprintf(w, "  per pass: %.4g\n", vals)
	}
	emit := func(name string, vals []float64) {
		for _, d := range endToEndDecls() {
			if d.Name == name {
				rep.Metrics[name] = metric{Value: median(vals), Unit: d.Unit}
				show("metric", name, d.Unit, vals)
			}
		}
	}
	rep.Metrics["setup_s"] = metric{Value: setupS, Unit: "s"}
	fmt.Fprintf(w, "metric setup_s %.6g s\n", setupS)
	emit("events_per_s", over(results, result.eventsPerS))
	emit("cpu_us_per_event", over(results, result.cpuUSPerEvent))
	emit("alloc_bytes_per_event", over(results, result.allocBytesPerEvent))
	// Not an end-to-end metric: see README.md, "Detection latency".
	show("info", "detect_latency_p50_ms", "ms", over(results, func(r result) float64 { return r.latencyMS(0.5) }))
	return rep, nil
}

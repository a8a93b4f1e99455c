// Command acep-bench regenerates the paper's evaluation tables and
// figures on the synthetic stand-in workloads, and runs the experiments
// that go beyond the paper but are not throughput measurements.
//
// Usage:
//
//	acep-bench -list                     # every experiment id, with what it does
//	acep-bench -exp fig6                 # one experiment
//	acep-bench -exp all                  # everything -list shows (slow)
//	acep-bench -exp fig5 -events 200000  # scale up
//
// The ids come from one table, bench.Experiments:
//
//   - fig5, table1, fig6..fig9 (method comparison per dataset-algorithm
//     combo) and fig10..fig29 (the same per pattern set) follow the
//     paper; DESIGN.md has the index. ablation-k and ablation-selector
//     are its ablations of the K-invariant method (§3.3) and of invariant
//     selection (§3.5).
//   - shed-traffic and shed-stocks measure the overload-control layer's
//     throughput-vs-recall frontier (every shedding policy against the
//     unshedded baseline, under deterministic forced overload).
//   - failover-*, elastic-*, ha-* and chaos-* (each on -traffic and
//     -stocks) are the fault drills: a 3 x 2-shard loopback-TCP cluster at
//     batch 256 has a worker's link severed, a third node joined, its
//     coordinator killed, its replication link made faulty and then
//     partitioned. Every run is digest-verified against the
//     single-process sharded engine before its recovery times and volumes
//     are reported.
//
// Throughput, scaling and per-layer cost are not measured here: that is
// the cost-ladder benchmark's job (benchmark/README.md).
//
// Examples:
//
//	acep-bench -exp shed-traffic -shed random,pattern-aware
//	acep-bench -exp shed-traffic -queue-cap 1024   # + bounded drop-newest queues
//	acep-bench -exp shed-traffic -json BENCH_shedding.json
//	acep-bench -exp failover-traffic -json BENCH_drills.json
//
// -cpuprofile and -memprofile write pprof profiles covering the
// experiment runs, so perf changes can carry evidence:
//
//	acep-bench -exp fig6 -cpuprofile cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"acep/internal/bench"
	"acep/internal/event"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		events = flag.Int("events", 0, "events per measured run (default 60000)")
		seed   = flag.Int64("seed", 1, "workload seed")
		window = flag.Int64("window", 0, "pattern window in logical ms (default 150)")
		check  = flag.Int("check", 0, "adaptation check interval in events (default 500)")
		sizes  = flag.String("sizes", "", "comma-separated pattern sizes (default 3..8)")
		shedPo = flag.String("shed", "", "comma-separated shedding policies for shed-* experiments (default all: random,rate-utility,pattern-aware)")
		qcap   = flag.Int("queue-cap", 0, "bounded per-shard drop-newest ingestion queue (events) for shed-* experiments (0 = unsharded, deterministic)")
		jsonMD = flag.String("json", "", "append the records of shed-* and drill experiments to this BENCH_*.json trajectory file")
		cpupro = flag.String("cpuprofile", "", "write a CPU profile covering the experiment runs to this file")
		mempro = flag.String("memprofile", "", "write a heap profile after the experiment runs to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-18s%s\n", e.ID, e.Doc)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "acep-bench: -exp required (or -list); e.g. -exp fig6")
		os.Exit(2)
	}
	sc := bench.DefaultScale()
	sc.Seed = *seed
	if *events > 0 {
		sc.Events = *events
	}
	if *window > 0 {
		sc.Window = event.Time(*window)
	}
	if *check > 0 {
		sc.CheckEvery = *check
	}
	if *sizes != "" {
		sc.Sizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "acep-bench: bad size %q\n", s)
				os.Exit(2)
			}
			sc.Sizes = append(sc.Sizes, v)
		}
	}
	r := bench.NewRunner(bench.NewHarness(sc))
	r.QueueCap = *qcap
	if *shedPo != "" {
		for _, p := range strings.Split(*shedPo, ",") {
			r.ShedPolicies = append(r.ShedPolicies, strings.TrimSpace(p))
		}
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = nil
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	if err := runAll(ids, r, *jsonMD, *cpupro, *mempro); err != nil {
		fmt.Fprintf(os.Stderr, "acep-bench: %v\n", err)
		os.Exit(1)
	}
}

// runAll holds the profile and trajectory-file lifecycle and the
// experiment loop in one function so its defers — the CPU profile
// trailer, the heap snapshot — run even when an experiment errors;
// os.Exit only happens after they fire (a failing run is exactly when
// the profile is wanted).
func runAll(ids []string, r *bench.Runner, jsonPath, cpuPath, memPath string) (err error) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memPath != "" {
		defer func() {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "acep-bench: heap profile: %v\n", err)
			}
		}()
	}
	if jsonPath != "" {
		f, err := os.OpenFile(jsonPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		r.JSON = f
	}
	for _, id := range ids {
		fmt.Printf("=== %s ===\n", id)
		if err := r.Run(os.Stdout, id); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// writeHeapProfile records the post-run heap (after a final GC, so live
// retention — not transient garbage — is what the profile shows).
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

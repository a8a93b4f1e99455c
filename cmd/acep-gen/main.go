// Command acep-gen generates a synthetic workload (the traffic-like or
// stocks-like dataset described in DESIGN.md) and writes it as CSV to
// stdout or a file, for archiving or replay with acep-run.
//
//	acep-gen -dataset traffic -events 100000 -seed 7 -o traffic.csv
//	acep-gen -dataset stocks  -types 20 | head
//
// With -patterns it instead emits a reproducible overlapping-prefix
// pattern-set spec (consumed by acep-run -patternset):
//
//	acep-gen -dataset traffic -patterns 32 -overlap 3 -window 150 -o set.acep
package main

import (
	"flag"
	"fmt"
	"os"

	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/stream"
)

func main() {
	var (
		dataset = flag.String("dataset", "traffic", "workload family: traffic or stocks")
		events  = flag.Int("events", 100000, "number of events")
		types   = flag.Int("types", 10, "number of event types")
		seed    = flag.Int64("seed", 1, "generator seed")
		shifts  = flag.Int("shifts", 3, "extreme regime shifts (traffic only)")
		keys    = flag.Int("keys", 0, "distinct partition-key values in a \"key\" attribute (0 = no key; keyed workloads build shardable patterns for acep-run -shards)")
		out     = flag.String("o", "", "output file (default stdout)")

		patterns = flag.Int("patterns", 0, "emit an overlapping-prefix pattern-set spec for N patterns instead of a stream")
		overlap  = flag.Int("overlap", 3, "shared-prefix length in positions (with -patterns)")
		window   = flag.Int64("window", 150, "pattern time window (with -patterns)")
		kind     = flag.String("kind", "sequence", "suffix flavor: sequence, negation or kleene (with -patterns)")
		tenants  = flag.Int("tenants", 1, "assign patterns round-robin over this many tenants (with -patterns)")
	)
	flag.Parse()

	if *patterns > 0 {
		writePatternSet(*dataset, *types, *keys, *patterns, *overlap, *window, *kind, *tenants, *out)
		return
	}

	var w *gen.Workload
	switch *dataset {
	case "traffic":
		w = gen.Traffic(gen.TrafficConfig{
			Types: *types, Events: *events, Seed: *seed, Shifts: *shifts, Keys: *keys,
		})
	case "stocks":
		w = gen.Stocks(gen.StocksConfig{
			Types: *types, Events: *events, Seed: *seed, Keys: *keys,
		})
	default:
		fmt.Fprintf(os.Stderr, "acep-gen: unknown dataset %q (want traffic or stocks)\n", *dataset)
		os.Exit(2)
	}

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acep-gen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		dst = f
	}
	if err := stream.WriteCSV(dst, w); err != nil {
		fmt.Fprintf(os.Stderr, "acep-gen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "acep-gen: wrote %d events (%s, %d types, seed %d)\n",
		len(w.Events), *dataset, *types, *seed)
}

// writePatternSet validates the parameters by actually generating the
// set once, then writes the spec file that regenerates it.
func writePatternSet(dataset string, types, keys, patterns, overlap int, window int64, kindName string, tenants int, out string) {
	kind, err := gen.KindFromString(kindName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acep-gen: %v\n", err)
		os.Exit(2)
	}
	spec := gen.PatternSetSpec{
		Dataset: dataset, Types: types, Keys: keys, Kind: kind,
		Patterns: patterns, Overlap: overlap, Window: event.Time(window), Tenants: tenants,
	}
	w, err := spec.Workload(1, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acep-gen: %v\n", err)
		os.Exit(2)
	}
	if _, err := spec.Build(w); err != nil {
		fmt.Fprintf(os.Stderr, "acep-gen: %v\n", err)
		os.Exit(2)
	}
	dst := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acep-gen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		dst = f
	}
	if err := gen.WritePatternSet(dst, spec); err != nil {
		fmt.Fprintf(os.Stderr, "acep-gen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "acep-gen: wrote pattern set spec (%s, %d patterns, overlap %d, %d tenants)\n",
		dataset, patterns, overlap, tenants)
}

package main

// defaultSeconds is BENCHMARK.json's run_seconds: the -seconds the driver
// passes, and the default without it.
const defaultSeconds = 15

// bounded is an end-to-end metric with the share of the parent's median
// by which it may get worse before a change is rejected.
type bounded struct {
	decl
	Bound float64 `json:"bound"`
}

// endToEndDecls lists what an untraced run prints, on every workload.
// The bounds are about three times the spread between runs measured when
// the benchmark was added (README.md, "Noise floor"): on this box whole
// runs, not passes, move by several percent with the host's memory
// bandwidth, so the timings get the widest bound there is and only the
// allocation count resolves a small change by itself.
func endToEndDecls() []bounded {
	return []bounded{
		{decl{"setup_s", "s", "lower"}, 0.25},
		{decl{"events_per_s", "events/s", "higher"}, 0.25},
		{decl{"cpu_us_per_event", "us", "lower"}, 0.25},
		{decl{"alloc_bytes_per_event", "B", "lower"}, 0.08},
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []bounded      `json:"end_to_end"`
	PerLayer   []decl         `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// describeBenchmark builds BENCHMARK.json from the tables the runs
// themselves use, so the file and the program cannot disagree.
func describeBenchmark() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEndDecls(),
		PerLayer:   perLayerDecls(),
	}
	for _, wl := range workloads {
		f.Workloads = append(f.Workloads, workloadDecl{wl.name, wl.why})
	}
	return f
}

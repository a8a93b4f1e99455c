// Traffic: adaptive detection on the skewed, regime-shifting workload
// that stands in for the paper's vehicle-traffic dataset. The pattern
// looks for anomalous triples of observations where both the average
// speed and the vehicle count increase (a violation of normal driving
// behaviour). The demo compares the invariant-based policy against the
// static and unconditional baselines on the identical stream and prints
// throughput, reoptimization counts and adaptation overhead.
package main

import (
	"fmt"
	"time"

	"acep"
)

func main() {
	w := acep.NewTrafficWorkload(acep.TrafficConfig{
		Types:  8,
		Events: 150000,
		Seed:   42,
		Shifts: 3,
	})
	pat, err := w.Pattern(acep.SequencePatterns, 4, 150*acep.Millisecond)
	if err != nil {
		panic(err)
	}
	fmt.Println("pattern:", pat)
	fmt.Printf("stream: %d events across %d observation points, 3 extreme regime shifts\n\n",
		len(w.Events), 8)

	policies := []struct {
		name string
		mk   func() acep.Policy
	}{
		{"static (never adapt)", func() acep.Policy { return acep.NewStaticPolicy() }},
		{"unconditional (replan every check)", func() acep.Policy { return acep.NewUnconditionalPolicy() }},
		{"invariant d=0.2 (the paper's method)", func() acep.Policy {
			return acep.NewInvariantPolicy(acep.InvariantOptions{Distance: 0.2})
		}},
	}
	for _, p := range policies {
		var matches uint64
		eng, err := acep.NewEngine(pat, acep.Config{
			NewPolicy: p.mk,
			OnMatch:   func(*acep.Match) { matches++ },
		})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
		elapsed := time.Since(start)
		m := eng.Metrics()
		fmt.Printf("%-38s %9.0f ev/s  matches=%d  replans=%d  overhead=%.2f%%\n",
			p.name,
			float64(len(w.Events))/elapsed.Seconds(),
			matches, m.Reoptimizations, 100*m.Overhead(elapsed))
	}
	fmt.Println("\nEvery policy detects the identical match set; they differ only in how")
	fmt.Println("they keep the evaluation plan aligned with the shifting statistics.")
}

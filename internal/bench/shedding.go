package bench

import (
	"fmt"
	"io"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/shard"
	"acep/internal/shed"
	"acep/internal/stats"
)

// DefaultShedTargets is the drop-fraction sweep of the shedding
// experiment.
func DefaultShedTargets() []float64 { return []float64{0.2, 0.4, 0.6} }

// ShedPolicyNames lists the comparable shedding policies of the
// experiment (None is always measured as the recall-1 baseline).
func ShedPolicyNames() []string { return []string{"random", "rate-utility", "pattern-aware"} }

// ShedPoint is one measured (policy, target) cell of the
// throughput-vs-recall frontier.
type ShedPoint struct {
	Policy     string  `json:"policy"`
	Target     float64 `json:"target_drop"`
	Dropped    float64 `json:"dropped_frac"` // achieved drop rate
	Matches    uint64  `json:"matches"`
	Recall     float64 `json:"recall"`     // matches / baseline matches
	RecallEst  float64 `json:"recall_est"` // Metrics.RecallEstimate
	Throughput float64 `json:"events_per_sec"`
}

// ShedData is the pattern-aware load-shedding experiment: the same
// overloaded keyed stream is detected under every policy and drop target,
// recording the achieved drop rate and the match recall relative to the
// unshedded baseline. Recorded runs accrue in BENCH_shedding.json.
//
// Overload is forced deterministically: the rate budget is set to a
// fraction of the stream's logical arrival rate, so the monitor reports
// utilization > 1 throughout and every policy sheds at its configured
// target — making recall directly comparable across policies at equal
// drop rate.
type ShedData struct {
	Dataset         string      `json:"dataset"`
	Events          int         `json:"events"`
	Keys            int         `json:"keys"`
	PatternSize     int         `json:"pattern_size"`
	BaselineMatches uint64      `json:"baseline_matches"`
	RateBudget      float64     `json:"rate_budget_eps"`
	QueueCap        int         `json:"queue_cap,omitempty"`
	Points          []ShedPoint `json:"points"`
}

// logicalRate is the stream's arrival rate in events per logical second.
func logicalRate(evs []event.Event) float64 {
	if len(evs) < 2 {
		return 0
	}
	span := evs[len(evs)-1].TS - evs[0].TS
	if span <= 0 {
		return 0
	}
	return float64(len(evs)) * float64(event.Second) / float64(span)
}

// Shedding measures the throughput-vs-recall frontier of the shedding
// policies on the keyed dataset. Every (policy, target) cell processes
// the identical event sequence under identical forced overload. With
// queueCap > 0 the runs additionally go through a 4-shard engine with a
// bounded DropNewest ingestion queue of that many events per shard
// (demonstrating the coarse overflow arm; queue drops then depend on
// worker timing, so recall is no longer a deterministic function of the
// configuration).
func (h *Harness) Shedding(dataset string, targets []float64, policies []string, queueCap int) (*ShedData, error) {
	if len(targets) == 0 {
		targets = DefaultShedTargets()
	}
	if len(policies) == 0 {
		policies = ShedPolicyNames()
	}
	// Keyed like the drills' workload but with more keys, so the liveness
	// signal (which keys hold partial matches) is informative rather than
	// saturated.
	w := h.keyedWorkload(dataset, 16)
	// A size-3 keyed sequence over a wide window: wide enough for
	// same-key chains to fire by the thousands, so recall differences
	// between policies are measured on a dense match base.
	const size = 3
	pat, err := w.Pattern(gen.Sequence, size, h.Scale.Window*32)
	if err != nil {
		return nil, err
	}
	rate := logicalRate(w.Events)
	budget := shed.Budget{EventsPerSec: rate / 8} // utilization ~8: always overloaded
	initial := stats.Exact(pat, w.Events[:len(w.Events)/20+1])

	data := &ShedData{
		Dataset:     dataset,
		Events:      len(w.Events),
		Keys:        w.Keys,
		PatternSize: size,
		RateBudget:  budget.EventsPerSec,
		QueueCap:    queueCap,
	}

	run := func(sc shed.Config) (uint64, engine.Metrics, time.Duration, error) {
		cfg := engine.Config{
			// The tree model keeps joined sub-matches in its node stores,
			// which is exactly the live state the pattern-aware policy
			// queries (the NFA's lazy orders often complete matches
			// straight from history buffers, leaving no waiting state to
			// protect).
			Model:        engine.ZStreamTree,
			CheckEvery:   h.Scale.CheckEvery,
			InitialStats: func(*pattern.Pattern) *stats.Snapshot { return initial },
			Shedding:     sc,
		}
		var matches uint64
		count := func(*match.Match) { matches++ }
		start := time.Now()
		if queueCap > 0 {
			eng, err := shard.New(pat, cfg, shard.Options{
				Shards:   4,
				QueueCap: queueCap,
				Overflow: shard.DropNewest,
				KeyAttr:  "key",
				Schema:   w.Schema,
				OnMatch:  count,
			})
			if err != nil {
				return 0, engine.Metrics{}, 0, err
			}
			for i := range w.Events {
				eng.Process(&w.Events[i])
			}
			eng.Finish()
			return matches, eng.Metrics(), time.Since(start), nil
		}
		cfg.OnMatch = count
		eng, err := engine.New(pat, cfg)
		if err != nil {
			return 0, engine.Metrics{}, 0, err
		}
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
		return matches, eng.Metrics(), time.Since(start), nil
	}

	// Baseline: no shedding at all.
	baseMatches, _, baseElapsed, err := run(shed.Config{})
	if err != nil {
		return nil, err
	}
	if baseMatches == 0 {
		return nil, fmt.Errorf("bench: shedding %s baseline produced no matches; the experiment is vacuous", dataset)
	}
	data.BaselineMatches = baseMatches
	data.Points = append(data.Points, ShedPoint{
		Policy: "none", Recall: 1, RecallEst: 1, Matches: baseMatches,
		Throughput: float64(len(w.Events)) / baseElapsed.Seconds(),
	})

	key, err := shard.ByAttrName(w.Schema, "key")
	if err != nil {
		return nil, err
	}
	for _, target := range targets {
		for _, name := range policies {
			pol, err := shed.PolicyFromString(name, target)
			if err != nil {
				return nil, err
			}
			matches, m, elapsed, err := run(shed.Config{
				Policy: pol,
				Budget: budget,
				Key:    key,
			})
			if err != nil {
				return nil, err
			}
			data.Points = append(data.Points, ShedPoint{
				Policy:     name,
				Target:     target,
				Dropped:    m.ShedRate(),
				Matches:    matches,
				Recall:     float64(matches) / float64(baseMatches),
				RecallEst:  m.RecallEstimate(size),
				Throughput: float64(len(w.Events)) / elapsed.Seconds(),
			})
		}
	}
	return data, nil
}

// Write prints the shedding frontier table.
func (d *ShedData) Write(w io.Writer) {
	fmt.Fprintf(w, "Load shedding — %s workload, %d events, %d keys, size-%d keyed sequence\n",
		d.Dataset, d.Events, d.Keys, d.PatternSize)
	fmt.Fprintf(w, "rate budget %.0f ev/s (forced overload); baseline %d matches\n",
		d.RateBudget, d.BaselineMatches)
	if d.QueueCap > 0 {
		fmt.Fprintf(w, "bounded queues: %d events/shard, drop-newest\n", d.QueueCap)
	}
	fmt.Fprintf(w, "%-16s%8s%10s%10s%10s%12s%14s\n",
		"policy", "target", "dropped", "matches", "recall", "recall-est", "events/sec")
	for _, p := range d.Points {
		fmt.Fprintf(w, "%-16s%8.2f%10.3f%10d%10.3f%12.3f%14.0f\n",
			p.Policy, p.Target, p.Dropped, p.Matches, p.Recall, p.RecallEst, p.Throughput)
	}
}

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"acep/internal/chaos"
	"acep/internal/cluster"
	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/pattern"
	recovery "acep/internal/recover"
	"acep/internal/shard"
	"acep/internal/stats"
)

// FailoverIDs lists the fault-tolerance experiments.
func FailoverIDs() []string { return []string{"failover-traffic", "failover-stocks"} }

// FailoverSweep is one measured configuration of the failover
// experiment.
type FailoverSweep struct {
	Nodes        int
	SlackWindows int
}

// DefaultFailoverSweeps crosses the node counts of the acceptance
// criterion (3–5) with journal retention horizons (1, 2 and 4 pattern
// windows) at the 3-node point, so both axes of the recovery cost —
// cluster width and journal size — are visible.
func DefaultFailoverSweeps() []FailoverSweep {
	return []FailoverSweep{
		{Nodes: 3, SlackWindows: 1},
		{Nodes: 3, SlackWindows: 2},
		{Nodes: 3, SlackWindows: 4},
		{Nodes: 4, SlackWindows: 2},
		{Nodes: 5, SlackWindows: 2},
	}
}

// FailoverPoint is one measured sweep entry: the healthy cluster's
// throughput, the killed run's throughput (same cluster, one node lost
// and recovered mid-stream), the recovery time, and the journal/replay
// volumes that bought it.
type FailoverPoint struct {
	Nodes        int     `json:"nodes"`
	TotalShards  int     `json:"total_shards"`
	SlackWindows int     `json:"slack_windows"`
	HealthyTP    float64 `json:"healthy_events_per_sec"`
	FailoverTP   float64 `json:"failover_events_per_sec"`
	Dip          float64 `json:"throughput_dip"` // 1 - failover/healthy
	RecoveryMS   float64 `json:"recovery_ms"`    // detection -> RecoveryDone
	JournalBytes int64   `json:"journal_bytes"`  // at failover time
	JournalCuts  int     `json:"journal_cuts"`
	ReplayCuts   int     `json:"replay_cuts"`
	ReplayEvents int     `json:"replay_events"`
	Matches      uint64  `json:"matches"`
}

// FailoverData is the recovery experiment of the fault-tolerance layer:
// for each sweep point it runs the identical keyed workload through a
// loopback-TCP cluster twice — once healthy, once with one node's link
// severed ~40% into the stream and failed over to a bare standby — and
// verifies both deliver the single-process sharded engine's exact match
// stream before reporting. Recorded runs accrue in BENCH_failover.json.
type FailoverData struct {
	Dataset       string          `json:"dataset"`
	Events        int             `json:"events"`
	Keys          int             `json:"keys"`
	ShardsPerNode int             `json:"shards_per_node"`
	Batch         int             `json:"batch"`
	Cores         int             `json:"cores"`
	Transport     string          `json:"transport"`
	Points        []FailoverPoint `json:"points"`
}

// Failover measures recovery time and throughput dip across the sweep
// on the keyed dataset (size-4 keyed sequence pattern, per-shard
// invariant policy — the Cluster experiment's setup). A match-stream
// divergence in either run is an error, not a data point.
func (h *Harness) Failover(dataset string, sweeps []FailoverSweep, shardsPerNode, batch int) (*FailoverData, error) {
	if len(sweeps) == 0 {
		sweeps = DefaultFailoverSweeps()
	}
	if shardsPerNode <= 0 {
		shardsPerNode = 2
	}
	effBatch := batch
	if effBatch <= 0 {
		effBatch = 256
	}
	w := h.KeyedWorkload(dataset)
	pat, err := w.Pattern(gen.Sequence, 4, h.Scale.Window*16)
	if err != nil {
		return nil, err
	}
	data := &FailoverData{
		Dataset:       dataset,
		Events:        len(w.Events),
		Keys:          w.Keys,
		ShardsPerNode: shardsPerNode,
		Batch:         batch,
		Cores:         runtime.NumCPU(),
		Transport:     "loopback-tcp",
	}
	initial := stats.Exact(pat, w.Events[:len(w.Events)/20+1])
	cfg := func() engine.Config {
		return engine.Config{
			CheckEvery:   h.Scale.CheckEvery,
			NewPolicy:    func() core.Policy { return &core.Invariant{} },
			InitialStats: func(*pattern.Pattern) *stats.Snapshot { return initial },
		}
	}

	for _, sw := range sweeps {
		total := sw.Nodes * shardsPerNode

		// Single-process reference digest at the same total shard count.
		var ref matchDigest
		refEng, err := shard.New(pat, cfg(), shard.Options{
			Shards: total, Batch: batch, KeyAttr: "key", Schema: w.Schema,
			OnMatch: ref.add,
		})
		if err != nil {
			return nil, err
		}
		for i := range w.Events {
			refEng.Process(&w.Events[i])
		}
		refEng.Finish()

		// The link dies after the assign frame plus ~40% of the cuts.
		killBudget := 1 + (len(w.Events)/effBatch)*2/5
		p := FailoverPoint{Nodes: sw.Nodes, TotalShards: total, SlackWindows: sw.SlackWindows}
		for _, killed := range []bool{false, true} {
			tp, fos, digest, err := h.failoverRun(w, pat, cfg, sw, shardsPerNode, batch, killed, killBudget)
			if err != nil {
				return nil, err
			}
			if digest.n != ref.n || digest.h != ref.h {
				return nil, fmt.Errorf("bench: failover %s nodes=%d slack=%d killed=%v delivered %d matches (digest %x), reference %d (digest %x) — recovery changed the match stream",
					dataset, sw.Nodes, sw.SlackWindows, killed, digest.n, digest.h, ref.n, ref.h)
			}
			if killed {
				if len(fos) != 1 {
					return nil, fmt.Errorf("bench: failover %s nodes=%d slack=%d: %d failovers, want 1", dataset, sw.Nodes, sw.SlackWindows, len(fos))
				}
				fo := fos[0]
				p.FailoverTP = tp
				p.RecoveryMS = float64(fo.RecoveryTime().Microseconds()) / 1000
				p.JournalBytes, p.JournalCuts = fo.JournalBytes, fo.JournalCuts
				p.ReplayCuts, p.ReplayEvents = fo.ReplayCuts, fo.ReplayEvents
				p.Matches = digest.n
			} else {
				if len(fos) != 0 {
					return nil, fmt.Errorf("bench: healthy run failed over: %+v", fos)
				}
				p.HealthyTP = tp
			}
		}
		p.Dip = 1 - p.FailoverTP/p.HealthyTP
		data.Points = append(data.Points, p)
	}
	return data, nil
}

// failoverRun executes one cluster pass: sw.Nodes TCP workers plus one
// bare TCP standby, recovery armed, optionally severing node 1's link
// after killBudget sends.
func (h *Harness) failoverRun(w *gen.Workload, pat *pattern.Pattern, cfg func() engine.Config,
	sw FailoverSweep, shardsPerNode, batch int, kill bool, killBudget int) (float64, []recovery.Failover, matchDigest, error) {
	var digest matchDigest
	fail := func(err error) (float64, []recovery.Failover, matchDigest, error) {
		return 0, nil, digest, err
	}
	startNode := func(bare bool) (*cluster.Listener, error) {
		nc := cluster.NodeConfig{
			Engine: cfg(), Shards: shardsPerNode, Batch: batch, KeyAttr: "key",
		}
		if !bare {
			nc.Pattern, nc.Schema = pat, w.Schema
		}
		node, err := cluster.NewNode(nc)
		if err != nil {
			return nil, err
		}
		l, err := cluster.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go node.ServeListener(l, nil) //nolint:errcheck // closed below; killed sessions error by design
		return l, nil
	}

	conns := make([]cluster.Conn, sw.Nodes)
	var listeners []*cluster.Listener
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < sw.Nodes; i++ {
		l, err := startNode(false)
		if err != nil {
			return fail(err)
		}
		listeners = append(listeners, l)
		c, err := cluster.DialTCP(l.Addr())
		if err != nil {
			return fail(err)
		}
		if kill && i == 1 {
			// Sever the victim's link after a fixed number of successful
			// ingress sends, landing the failure mid-stream.
			c = &chaos.Flaky{C: c, Budget: killBudget}
		}
		conns[i] = c
	}
	standby, err := startNode(true)
	if err != nil {
		return fail(err)
	}
	listeners = append(listeners, standby)

	dialed := false
	ing, err := cluster.NewIngress(pat, conns, cluster.IngressOptions{
		Batch: batch, KeyAttr: "key", Schema: w.Schema,
		OnMatch: digest.add,
		Recovery: &cluster.RecoveryConfig{
			SlackWindows: sw.SlackWindows,
			Standby: func() (cluster.Conn, error) {
				if dialed {
					return nil, fmt.Errorf("bench: single standby already used")
				}
				dialed = true
				return cluster.DialTCP(standby.Addr())
			},
		},
	})
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	for i := range w.Events {
		ing.Process(&w.Events[i])
	}
	if err := ing.Finish(); err != nil {
		return fail(fmt.Errorf("bench: failover run finish: %w", err))
	}
	tp := float64(len(w.Events)) / time.Since(start).Seconds()
	return tp, ing.Failovers(), digest, nil
}

// Write prints the failover table.
func (d *FailoverData) Write(w io.Writer) {
	fmt.Fprintf(w, "Failover recovery — %s workload, %d events, %d keys, %d shards/node, %s, %d cores\n",
		d.Dataset, d.Events, d.Keys, d.ShardsPerNode, d.Transport, d.Cores)
	fmt.Fprintf(w, "%-7s%7s%14s%14s%8s%12s%12s%10s%10s\n",
		"nodes", "slack", "healthy e/s", "killed e/s", "dip", "recover ms", "journal B", "cuts", "replayed")
	for _, p := range d.Points {
		fmt.Fprintf(w, "%-7d%7d%14.0f%14.0f%7.1f%%%12.1f%12d%10d%10d\n",
			p.Nodes, p.SlackWindows, p.HealthyTP, p.FailoverTP, 100*p.Dip,
			p.RecoveryMS, p.JournalBytes, p.JournalCuts, p.ReplayEvents)
	}
}

// WriteJSON appends the run to a BENCH_*.json trajectory (one JSON
// object per invocation).
func (d *FailoverData) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

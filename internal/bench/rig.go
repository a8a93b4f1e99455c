package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"acep/internal/cluster"
	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/ha"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/shard"
	"acep/internal/stats"
)

// The shape every drill runs at. Absolute throughput, and sweeps over
// shard count, node count or cut size, belong to benchmark/ (workloads
// shard-keyed, cluster-tcp, ha-leased); a drill only has to put a fault
// into a realistic fleet and time the recovery from it.
const (
	drillShardsPerNode = 2
	drillBatch         = 256 // events per cut: the shard and ingress default
)

// matchDigest folds match keys, in delivery order, into one FNV-1a
// digest: equal digests mean identical match sets delivered in
// identical order, which is exactly the exactness guarantee every layer
// above the engine makes against the single-process sharded engine at
// equal total shard count.
type matchDigest struct {
	h uint64
	n uint64
}

func (d *matchDigest) add(m *match.Match) {
	if d.n == 0 {
		d.h = 14695981039346656037
	}
	k := m.Key()
	for i := 0; i < len(k); i++ {
		d.h ^= uint64(k[i])
		d.h *= 1099511628211
	}
	d.h ^= '\n'
	d.h *= 1099511628211
	d.n++
}

// keyedWorkload returns (and caches) the keyed variant of a dataset: the
// same generator regime plus a partition-key attribute, so patterns built
// over it carry equality-on-key predicates and shard exactly. keys is the
// caller's default key count; Scale.Keys overrides it.
func (h *Harness) keyedWorkload(dataset string, keys int) *gen.Workload {
	if h.Scale.Keys > 0 {
		keys = h.Scale.Keys
	}
	name := fmt.Sprintf("%s/keys=%d", dataset, keys)
	if w, ok := h.workloads[name]; ok {
		return w
	}
	w := h.Scale.workload(dataset, keys)
	h.workloads[name] = w
	return w
}

// Metric is one named column of a drill run.
type Metric struct {
	Name  string
	Value float64
}

// Metrics is a run's columns in reporting order. It marshals as one JSON
// object whose keys keep that order.
type Metrics []Metric

func (ms Metrics) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, m := range ms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(m.Name))
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(m.Value, 'f', -1, 64))
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// DrillRun is one scenario executed on one fresh fleet. Its delivered
// match stream equalled the single-process reference (Matches, Digest) —
// a run that diverges is an error, never a record.
type DrillRun struct {
	Scenario      string  `json:"scenario"`
	Nodes         int     `json:"nodes"` // configured worker nodes at start
	ShardsPerNode int     `json:"shards_per_node"`
	BareNodes     int     `json:"bare_nodes"` // standby / joiner nodes started without a pattern
	Matches       uint64  `json:"matches"`
	Digest        string  `json:"digest"`
	Metrics       Metrics `json:"metrics"`
}

// DrillRecord is the one shape every fault drill reports in: where it
// ran, what it ran on, and one DrillRun per scenario. Recorded runs
// accrue in BENCH_drills.json.
type DrillRecord struct {
	ID string `json:"id"`
	// Environment fingerprint.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"` // vcs.revision of the binary ("" when not stamped, "+dirty" on a modified tree)
	// Set-up, as run (no unresolved defaults).
	Dataset   string     `json:"dataset"`
	Events    int        `json:"events"`
	Keys      int        `json:"keys"`
	Batch     int        `json:"batch"`
	Seed      int64      `json:"seed"`
	Transport string     `json:"transport"`
	Runs      []DrillRun `json:"runs"`
}

// vcsCommit reads the commit the running binary was built from.
func vcsCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

// Write prints the record as a table: one header line, then one row per
// run, with the column names repeated whenever they change.
func (rec *DrillRecord) Write(w io.Writer) {
	fmt.Fprintf(w, "%s — %s workload, %d events, %d keys, batch %d, seed %d, %s; %s, GOMAXPROCS %d of %d CPUs, commit %q\n",
		rec.ID, rec.Dataset, rec.Events, rec.Keys, rec.Batch, rec.Seed, rec.Transport,
		rec.GoVersion, rec.GOMAXPROCS, rec.NumCPU, rec.Commit)
	var header string
	for _, run := range rec.Runs {
		var names, row bytes.Buffer
		fmt.Fprintf(&names, "%-26s%6s%8s%9s", "scenario", "nodes", "shards", "matches")
		fmt.Fprintf(&row, "%-26s%6d%8d%9d", run.Scenario, run.Nodes, run.Nodes*run.ShardsPerNode, run.Matches)
		for _, m := range run.Metrics {
			width := max(len(m.Name), 8) + 2
			fmt.Fprintf(&names, "%*s", width, m.Name)
			fmt.Fprintf(&row, "%*s", width, strconv.FormatFloat(m.Value, 'f', -1, 64))
		}
		if names.String() != header {
			header = names.String()
			fmt.Fprintln(w, header)
		}
		fmt.Fprintln(w, row.String())
	}
}

// WriteJSON appends v as one indented JSON object: the format of the
// BENCH_*.json trajectory files (one object per recorded invocation).
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// rig is the one fixture the fault drills run on. It owns everything
// they share: the keyed workload and pattern, the engine configuration,
// the single-process reference digest per total shard count, starting a
// fleet of loopback-TCP worker nodes, the feed loop with its mid-stream
// hook, the digest check, and the record. A scenario adds only what it
// arms, what it does mid-stream and which recovery fields it reports.
type rig struct {
	w       *gen.Workload
	pat     *pattern.Pattern
	check   int
	initial *stats.Snapshot
	refs    map[int]matchDigest
	rec     *DrillRecord
}

func (h *Harness) newRig(id, dataset string) (*rig, error) {
	// Per-dataset key counts chosen so the size-4 keyed sequence actually
	// fires at default scale: the traffic regime's Zipf skew makes same-key
	// chains far rarer than the stocks regime's near-uniform rates.
	keys := 32
	if dataset == "traffic" {
		keys = 8
	}
	w := h.keyedWorkload(dataset, keys)
	// The window is wider than the paper experiments': equality-on-key
	// prunes partial matches so hard that same-key sequences need a longer
	// horizon to occur at all.
	pat, err := w.Pattern(gen.Sequence, 4, h.Scale.Window*16)
	if err != nil {
		return nil, err
	}
	return &rig{
		w: w, pat: pat, check: h.Scale.CheckEvery,
		initial: stats.Exact(pat, w.Events[:len(w.Events)/20+1]),
		refs:    make(map[int]matchDigest),
		rec: &DrillRecord{
			ID:        id,
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Commit:  vcsCommit(),
			Dataset: dataset, Events: len(w.Events), Keys: w.Keys,
			Batch: drillBatch, Seed: h.Scale.Seed, Transport: "loopback-tcp",
		},
	}, nil
}

// engineConfig is the engine configuration of every engine a drill
// starts — the reference, the workers, the bare standbys and joiners:
// the invariant policy from a plan seeded with exact statistics of the
// stream's first 5% (what benchmark/ runs its ladder with).
func (r *rig) engineConfig() engine.Config {
	return engine.Config{
		CheckEvery:   r.check,
		NewPolicy:    func() core.Policy { return &core.Invariant{} },
		InitialStats: func(*pattern.Pattern) *stats.Snapshot { return r.initial },
	}
}

// reference returns the digest of the single-process sharded engine at
// the given total shard count, computed once per count.
func (r *rig) reference(total int) (matchDigest, error) {
	if ref, ok := r.refs[total]; ok {
		return ref, nil
	}
	var ref matchDigest
	eng, err := shard.New(r.pat, r.engineConfig(), shard.Options{
		Shards: total, Batch: drillBatch, KeyAttr: "key", Schema: r.w.Schema,
		OnMatch: ref.add,
	})
	if err != nil {
		return ref, err
	}
	for i := range r.w.Events {
		eng.Process(&r.w.Events[i])
	}
	eng.Finish()
	if ref.n == 0 {
		return ref, fmt.Errorf("the single-process reference at %d shards found no matches; the digest check would be vacuous", total)
	}
	r.refs[total] = ref
	return ref, nil
}

// system is what a drill feeds: a cluster.Ingress or an ha.Pair.
type system interface {
	Process(*event.Event)
	Finish() error
}

// drill is one run in progress: a fresh fleet (workers latch the highest
// coordinator epoch they serve, so runs never share nodes), the digest
// of what it has delivered, and the run record being filled in.
type drill struct {
	r      *rig
	ref    matchDigest
	digest matchDigest
	addrs  []string // configured nodes first, then bare ones
	DrillRun
}

// run executes one scenario: it starts `nodes` configured worker nodes
// of shardsPerNode shards each plus `bare` pattern-less ones (standbys,
// joiners) on loopback TCP, hands them to body, and appends the run to
// the record once body returns without error.
func (r *rig) run(scenario string, nodes, shardsPerNode, bare int, body func(d *drill) error) error {
	d := &drill{r: r, DrillRun: DrillRun{
		Scenario: scenario, Nodes: nodes, ShardsPerNode: shardsPerNode, BareNodes: bare,
	}}
	err := func() error {
		var err error
		if d.ref, err = r.reference(nodes * shardsPerNode); err != nil {
			return err
		}
		for i := 0; i < nodes+bare; i++ {
			nc := cluster.NodeConfig{
				Engine: r.engineConfig(), Shards: drillShardsPerNode, Batch: drillBatch, KeyAttr: "key",
			}
			if i < nodes {
				nc.Pattern, nc.Schema, nc.Shards = r.pat, r.w.Schema, shardsPerNode
			}
			node, err := cluster.NewNode(nc)
			if err != nil {
				return err
			}
			l, err := cluster.ListenTCP("127.0.0.1:0")
			if err != nil {
				return err
			}
			// Closed when the run ends (this closure returns), not per iteration.
			defer l.Close()
			go node.ServeListener(l, nil) //nolint:errcheck // returns when l closes; killed sessions error by design
			d.addrs = append(d.addrs, l.Addr())
		}
		return body(d)
	}()
	if err != nil {
		return fmt.Errorf("bench: %s %s: %w", r.rec.ID, scenario, err)
	}
	r.rec.Runs = append(r.rec.Runs, d.DrillRun)
	return nil
}

// ingress builds a journaled coordinator over conns.
func (d *drill) ingress(conns []cluster.Conn, rc *cluster.RecoveryConfig) (*cluster.Ingress, error) {
	return cluster.NewIngress(d.r.pat, conns, cluster.IngressOptions{
		Batch: drillBatch, KeyAttr: "key", Schema: d.r.w.Schema,
		OnMatch: d.digest.add, Recovery: rc,
	})
}

// pairConfig is the replicated coordinator pair over the configured
// nodes, behind its own lease arbiter at a 300 ms TTL: a takeover waits
// out the dead primary's grant. A scenario adds its link wrappers to it.
func (d *drill) pairConfig() ha.Config {
	return ha.Config{
		Pattern: d.r.pat, Schema: d.r.w.Schema, KeyAttr: "key", Batch: drillBatch,
		Workers:  d.addrs[:d.Nodes],
		OnTagged: func(t shard.Tagged) { d.digest.add(t.M) },
		LeaseTTL: 300 * time.Millisecond,
	}
}

// feed streams the workload through sys and finishes the session. at,
// when non-nil, is the scenario's mid-stream action: it runs before
// event i for every i, and once more with i == len(events) between the
// last event and Finish. The delivered stream must then equal the
// reference.
func (d *drill) feed(sys system, at func(i int) error) error {
	evs := d.r.w.Events
	for i := 0; i <= len(evs); i++ {
		if at != nil {
			if err := at(i); err != nil {
				return fmt.Errorf("at event %d: %w", i, err)
			}
		}
		if i < len(evs) {
			sys.Process(&evs[i])
		}
	}
	if err := sys.Finish(); err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	if d.digest != d.ref {
		return fmt.Errorf("delivered %d matches (digest %x), single-process reference at %d shards %d (digest %x) — the drill changed the match stream",
			d.digest.n, d.digest.h, d.Nodes*d.ShardsPerNode, d.ref.n, d.ref.h)
	}
	d.Matches, d.Digest = d.digest.n, fmt.Sprintf("%016x", d.digest.h)
	return nil
}

// add appends one column to the run, rounded to three decimals (µs for
// the millisecond columns).
func (d *drill) add(name string, v float64) {
	d.Metrics = append(d.Metrics, Metric{name, math.Round(v*1000) / 1000})
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

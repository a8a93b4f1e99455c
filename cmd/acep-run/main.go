// Command acep-run detects a pattern over a CSV workload (generated by
// acep-gen) with a chosen evaluation model and adaptation policy, and
// reports matches, reoptimizations, throughput and adaptation overhead.
//
//	acep-gen -dataset traffic -o traffic.csv
//	acep-run -in traffic.csv -kind sequence -size 4 -policy invariant -d 0.2
//	acep-run -in traffic.csv -kind kleene -size 5 -model zstream -policy threshold -t 0.3
//
// With -shards > 1 the stream is key-partitioned across parallel engines
// (the workload must carry a partition key; generate with acep-gen -keys):
//
//	acep-gen -dataset traffic -keys 256 -o keyed.csv
//	acep-run -in keyed.csv -kind sequence -size 4 -shards 8 -batch 512
//
// Overload control: -shed picks a load-shedding policy (none, random,
// rate-utility, pattern-aware) with -shed-target as its drop fraction;
// shedding activates only while a budget (-shed-pms or -shed-rate) is
// exceeded. -queue-cap bounds the per-shard ingestion queue in events and
// -overflow picks the full-queue behavior (block or drop):
//
//	acep-run -in keyed.csv -shed pattern-aware -shed-target 0.4 -shed-pms 10000
//	acep-run -in keyed.csv -shards 8 -queue-cap 4096 -overflow drop
//
// Distributed execution: -nodes runs an in-process cluster (N worker
// nodes of -shards engines each, on loopback sockets), and -connect
// drives remote worker nodes started with acep-node over TCP; both
// deliver the identical deterministic match stream the sharded engine
// produces. Remote nodes configure their own engines, so with -connect
// acep-run refuses the engine flags it shares with acep-node (-model,
// -policy, -t, -d, -k, -check, -shed*, -shards, -queue-cap, -overflow;
// declared once in internal/cli). Likewise every flag below that the
// chosen mode would not read is refused, naming it. Each -batch cut is
// delta-encoded once and decoded once, in place, into the node's event
// arena (see DESIGN.md "Wire-to-match data flow"), so batch size trades
// latency against per-event framing overhead without extra copies:
//
//	acep-run -in keyed.csv -kind sequence -size 4 -nodes 3 -shards 2
//	acep-run -in keyed.csv -kind sequence -size 4 -connect 127.0.0.1:7101,127.0.0.1:7102
//
// Fault tolerance: -recover journals the ingress's cuts and fails a
// dead worker's shard block over to a standby — -standby TCP addresses
// in -connect mode (bare acep-node processes, no -in needed), or up to
// two in-process spares in -nodes mode — replaying the journaled
// window so the delivered match stream stays exactly the healthy one:
//
//	acep-node -listen 127.0.0.1:7190 &   # bare standby
//	acep-run -in keyed.csv -connect 127.0.0.1:7101,127.0.0.1:7102 -recover -standby 127.0.0.1:7190
//	acep-run -in keyed.csv -nodes 3 -recover
//
// Ingress HA: -ha replicates the coordinator itself — a hot-standby
// ingress mirrors every sealed cut over a replication link and, when
// -ha-kill-after kills the primary mid-run, takes the whole cluster
// over with the delivered match stream byte-identical to an unkilled
// run (-standby seeds the shared worker standby pool):
//
//	acep-run -in keyed.csv -connect 127.0.0.1:7101,127.0.0.1:7102 -ha -ha-kill-after 5000
//
// Partition tolerance (with -ha): every pair emits behind a
// single-writer lease, demoting a partitioned primary instead of letting
// two coordinators emit. -standby-addr points the pair at an
// out-of-process standby (acep-standby) and -lease-addr at an external
// lease arbiter, instead of spawning either on loopback; -chaos injects
// deterministic faults into the replication link (spec:
// seed=N,drop=P,dup=P,reorder=P,delay=P:DUR):
//
//	acep-standby -listen 127.0.0.1:7200 &
//	acep-run -in keyed.csv -connect ... -ha -standby-addr 127.0.0.1:7200 \
//	    -chaos seed=7,dup=0.05,delay=0.1:2ms
//
// Elasticity (built on the same journal): -rebalance lets the ingress
// migrate hot shards between live workers by the events it routed to
// each shard since the last move, -join admits fresh bare workers a
// quarter into the stream (the controller hands them shards), and -drain
// gracefully empties a worker slot halfway through:
//
//	acep-node -listen 127.0.0.1:7190 &   # bare worker, joins mid-run
//	acep-run -in keyed.csv -connect 127.0.0.1:7101,127.0.0.1:7102 -recover \
//	    -rebalance -join 127.0.0.1:7190 -drain 0
//
// Pattern sets: every sharded or clustered run hosts a pattern set, and
// -kind/-size/-window name the set of one. -patternset instead loads a
// spec file written by acep-gen -patterns and evaluates the whole set
// with shared sub-pattern evaluation (the workload must be keyed with the
// spec's key cardinality). Works locally, sharded and in both cluster
// modes; -tenant-budget installs per-tenant admission budgets in events
// per logical second:
//
//	acep-gen -dataset traffic -keys 8 -patterns 32 -tenants 2 -o set.acep
//	acep-gen -dataset traffic -keys 8 -o keyed.csv
//	acep-run -in keyed.csv -patternset set.acep -shards 4
//	acep-run -in keyed.csv -patternset set.acep -nodes 3 -tenant-budget 0=50,1=200:400
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"acep/internal/chaos"
	"acep/internal/cli"
	"acep/internal/cluster"
	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/ha"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/shard"
	"acep/internal/shed"
	"acep/internal/stream"
)

// options are acep-run's flags.
type options struct {
	in, connect, keyAttr, standby, haStandby, haLease, chaosSpec *string
	joinStr, patset, tenantBud, mempro                           *string
	nodes, batch, haKill, drainSlot                              *int
	recoverOn, haFlag, rebalance, verbose                        *bool

	buildPat func(*gen.Workload) (*pattern.Pattern, error)
	engFlags *cli.Engine
}

// declare defines acep-run's flags on fs.
func declare(fs *flag.FlagSet) *options {
	return &options{
		in:        fs.String("in", "", "input CSV (required; see acep-gen)"),
		buildPat:  cli.PatternFlags(fs),
		engFlags:  cli.EngineFlags(fs),
		nodes:     fs.Int("nodes", 0, "run an in-process cluster of this many worker nodes, -shards engines each"),
		connect:   fs.String("connect", "", "comma-separated TCP addresses of acep-node workers to drive instead of local engines"),
		batch:     fs.Int("batch", 0, "events per shard handoff batch (0 = default)"),
		keyAttr:   fs.String("key", "key", "partition-key attribute for -shards > 1"),
		recoverOn: fs.Bool("recover", false, "enable fault-tolerant failover (cut journal + standby migration)"),
		standby:   fs.String("standby", "", "comma-separated TCP addresses of standby nodes for -recover with -connect, or the worker standby pool of -ha"),
		haFlag:    fs.Bool("ha", false, "replicate the coordinator: hot-standby ingress with byte-identical takeover (needs -connect)"),
		haKill:    fs.Int("ha-kill-after", -1, "kill the primary coordinator after this many events (takeover demo; needs -ha)"),
		haStandby: fs.String("standby-addr", "", "out-of-process coordinator standby address (acep-standby) for -ha; empty spawns the mirror in-process"),
		haLease:   fs.String("lease-addr", "", "emission-lease arbiter address for -ha; empty spawns the pair's own on loopback"),
		chaosSpec: fs.String("chaos", "", "inject deterministic faults on the -ha replication link, e.g. seed=7,drop=0.01,delay=0.2:2ms (see internal/chaos)"),
		rebalance: fs.Bool("rebalance", false, "enable the placement controller: move shards off the worker routed the most events (needs -recover)"),
		joinStr:   fs.String("join", "", "comma-separated TCP addresses of bare acep-node workers to admit a quarter into the stream (needs -recover and -connect)"),
		drainSlot: fs.Int("drain", -1, "gracefully drain this worker slot halfway through the stream (needs -recover)"),
		patset:    fs.String("patternset", "", "pattern-set spec file (acep-gen -patterns): evaluate the whole set with shared sub-pattern evaluation (-kind/-size/-window ignored)"),
		tenantBud: fs.String("tenant-budget", "", "per-tenant admission budgets tenant=rate[:burst],... in events per logical second (a single pattern bills to tenant 0; needs -shards or a cluster mode)"),
		mempro:    fs.String("memprofile", "", "write a heap profile after the run to this file (pprof)"),
		verbose:   fs.Bool("v", false, "print every match"),
	}
}

// refuse names the first flag set on fs that the run's mode would not
// read: every engine flag under -connect, where each acep-node
// configures its own engines, and each row of the table below.
func (o *options) refuse(fs *flag.FlagSet) error {
	remote, ha, rec := *o.connect != "", *o.haFlag, *o.recoverOn
	// The single-engine run: no session, so no cut and no partition key.
	single := !remote && !ha && *o.nodes <= 0 && *o.patset == "" &&
		fs.Lookup("shards").Value.(flag.Getter).Get().(int) <= 1
	shedding := fs.Lookup("shed").Value.String() != "none"
	rows := []struct {
		names, why string
		drops      bool
	}{
		{"ha", "needs -connect worker addresses (the pair dials its own sessions)", !remote},
		{"nodes", "spawns in-process workers, which -connect replaces", remote},
		{"patternset tenant-budget rebalance join drain", "does not compose with -ha", ha},
		{"standby", "needs -recover or -ha", !rec && !ha},
		{"standby", "needs -connect (-nodes spawns its standbys)", !remote},
		{"recover", "needs -nodes or -connect (-ha always recovers)", ha || !remote && *o.nodes <= 0},
		{"recover", "with -connect needs -standby addresses (a bare acep-node works)", remote && *o.standby == ""},
		{"rebalance drain", "needs -recover", !rec},
		{"join", "needs -connect and -recover", !remote || !rec},
		{"ha-kill-after standby-addr lease-addr chaos", "needs -ha", !ha},
		{"batch", "needs a session to cut (set -shards, -nodes or -connect)", single},
		{"key", "without a session is read only by a shedding policy (set -shed, or -shards, -nodes or -connect)", single && !shedding},
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && remote && o.engFlags.Declares(f.Name) {
			err = fmt.Errorf("-%s configures engines, which acep-node workers configure themselves under -connect", f.Name)
		}
		for _, r := range rows {
			if err == nil && r.drops && slices.Contains(strings.Fields(r.names), f.Name) {
				err = fmt.Errorf("-%s %s", f.Name, r.why)
			}
		}
	})
	return err
}

func main() {
	o := declare(flag.CommandLine)
	flag.Parse()
	if *o.in == "" {
		fmt.Fprintln(os.Stderr, "acep-run: -in required")
		os.Exit(2)
	}
	if err := o.refuse(flag.CommandLine); err != nil {
		fail(err)
	}
	f, err := os.Open(*o.in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	w, err := stream.ReadCSV(f)
	if err != nil {
		fail(err)
	}
	if i := stream.Validate(w.Events); i >= 0 {
		fmt.Fprintf(os.Stderr, "acep-run: input not timestamp-ordered at row %d; sorting\n", i)
		stream.SortByTime(w.Events)
	}

	var pat *pattern.Pattern
	if *o.patset == "" {
		if pat, err = o.buildPat(w); err != nil {
			fail(err)
		}
	}
	nc, err := o.engFlags.Node()
	if err != nil {
		fail(err)
	}
	keyGiven := false
	flag.Visit(func(f *flag.Flag) { keyGiven = keyGiven || f.Name == "key" })
	if nc.Engine.Shedding.Policy != nil && (w.Keys > 0 || keyGiven) {
		// Keyed workload, or a key named: let pattern-aware shedding
		// protect at entity granularity even in unsharded mode.
		key, err := shard.ByAttrName(w.Schema, *o.keyAttr)
		if err != nil {
			fail(fmt.Errorf("-key: %w", err))
		}
		nc.Engine.Shedding.Key = key
	}
	nc.Batch, nc.KeyAttr, nc.Schema = *o.batch, *o.keyAttr, w.Schema

	// The pattern set every sharded or clustered session hosts: the one
	// pattern -kind/-size/-window name, or the spec file's set
	// regenerated against the loaded workload (the spec pins the
	// parameters, OverlapPatterns is deterministic in them).
	var (
		specs   []multi.Spec
		budgets map[uint32]shed.TenantBudget
	)
	if *o.patset == "" {
		specs = multi.Solo(pat, nc.Engine)
	} else {
		ps, err := gen.LoadPatternSet(*o.patset)
		if err != nil {
			fail(err)
		}
		entries, err := ps.Build(w)
		if err != nil {
			fail(err)
		}
		for _, e := range entries {
			specs = append(specs, multi.Spec{ID: e.ID, Tenant: e.Tenant, Pattern: e.Pattern, Config: nc.Engine})
		}
		if w.Keys == 0 {
			fail(fmt.Errorf("-patternset needs a keyed workload; regenerate with acep-gen -keys %d", ps.Keys))
		}
		fmt.Printf("pattern set: %d %v patterns, overlap %d, window %d, %d tenant(s)\n",
			ps.Patterns, ps.Kind, ps.Overlap, ps.Window, ps.Tenants)
	}
	if *o.tenantBud != "" {
		if budgets, err = parseTenantBudgets(*o.tenantBud); err != nil {
			fail(err)
		}
	}

	var matches uint64
	perPat := make(map[uint32]uint64, len(specs))
	onTagged := func(tg shard.Tagged) {
		matches++
		perPat[tg.Pattern]++
		if *o.verbose && *o.patset != "" {
			fmt.Printf("[pattern %d] %v\n", tg.Pattern, tg.M)
		} else if *o.verbose {
			fmt.Println(tg.M)
		}
	}
	if pat != nil {
		fmt.Printf("pattern: %s\n", pat)
	}

	var (
		met     engine.Metrics
		elapsed time.Duration
		plans   []string
		workers = 1 // parallel engines, for overhead normalization
	)
	if (*o.haFlag || *o.connect != "" || *o.nodes > 0) && w.Keys == 0 {
		fail(fmt.Errorf("cluster mode needs a keyed workload; regenerate with acep-gen -keys"))
	}
	if *o.haFlag {
		hcfg := ha.Config{
			Pattern: pat, Schema: w.Schema, KeyAttr: *o.keyAttr, Batch: *o.batch,
			Workers: addrs(*o.connect), Standbys: addrs(*o.standby),
			StandbyAddr: *o.haStandby, LeaseAddr: *o.haLease,
			OnTagged: onTagged,
		}
		if *o.chaosSpec != "" {
			ccfg, err := chaos.ParseSpec(*o.chaosSpec)
			if err != nil {
				fail(err)
			}
			hcfg.WrapRepl = func(c cluster.Conn) cluster.Conn {
				return chaos.Wrap(c, ccfg)
			}
		}
		p, err := ha.New(hcfg)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		for i := range w.Events {
			if i == *o.haKill {
				if err := p.KillPrimary(); err != nil {
					fail(err)
				}
				fmt.Printf("killed: primary coordinator (at event %d)\n", i)
			}
			p.Process(&w.Events[i])
		}
		if err := p.Finish(); err != nil {
			fail(err)
		}
		elapsed = time.Since(start)
		ing := p.Ingress()
		met = ing.Metrics()
		workers = ing.TotalShards()
		fmt.Printf("cluster: %d node(s), %d global shards, replicated coordinator\n", ing.Nodes(), ing.TotalShards())
		mc, me := p.MirrorStats()
		fmt.Printf("mirror: %d cuts / %d events replicated\n", mc, me)
		if tk := p.Takeover(); tk != nil {
			fmt.Printf("takeover: epoch %d (%s): redialed %d of %d worker(s), replayed %d cuts / %d events, re-fed %d, skipped %d regenerated matches, paused %v\n",
				tk.Epoch, tk.Cause, tk.Redialed, tk.Workers, tk.ReplayCuts, tk.ReplayEvents, tk.RefedEvents, tk.Skipped, tk.Pause().Round(time.Microsecond))
		}
		if d := p.Demotion(); d != nil {
			fmt.Printf("demoted: %s (lease epoch %d, committed boundary %d / %d matches)\n",
				d.Cause, d.Epoch, d.Boundary, d.Count)
		}
		for _, mg := range ing.Migrations() {
			fmt.Printf("migration: shard %d node %d -> %d (%s): replayed %d cuts / %d events, paused %v\n",
				mg.Shard, mg.From, mg.To, mg.Reason, mg.ReplayCuts, mg.ReplayEvents, mg.Pause().Round(time.Microsecond))
		}
	} else if *o.connect != "" || *o.nodes > 0 {
		// Local and -connect modes differ only in where the node
		// connections and the standbys come from.
		var conns []cluster.Conn
		var standbySrc func() (cluster.Conn, error)
		if *o.connect != "" {
			conns, err = cluster.Dial(addrs(*o.connect))
			standbySrc = cluster.DialStandbys(addrs(*o.standby))
		} else {
			conns, err = cluster.Spawn(*o.nodes, nc, nil)
			standbySrc = cluster.SpawnStandbys(2, nc)
		}
		if err != nil {
			fail(err)
		}
		opts := cluster.IngressOptions{
			Batch:    *o.batch,
			KeyAttr:  *o.keyAttr,
			Schema:   w.Schema,
			Patterns: specs,
			Tenants:  budgets,
			OnTagged: onTagged,
		}
		if *o.recoverOn {
			opts.Recovery = &cluster.RecoveryConfig{Standby: standbySrc}
			if *o.rebalance {
				opts.Recovery.Elastic = &cluster.ElasticConfig{}
			}
		}
		ing, err := cluster.NewIngress(nil, conns, opts)
		if err != nil {
			fail(err)
		}
		// Mid-run elasticity actions, pinned to event offsets so runs are
		// reproducible: -join admits bare workers a quarter into the stream
		// (the controller or a later -drain hands them shards), -drain
		// empties a slot gracefully halfway through.
		joinAt, drainAt := -1, -1
		joins := addrs(*o.joinStr)
		if len(joins) > 0 {
			joinAt = len(w.Events) / 4
		}
		if *o.drainSlot >= 0 {
			drainAt = len(w.Events) / 2
		}
		start := time.Now()
		for i := range w.Events {
			if i == joinAt {
				for _, addr := range joins {
					c, err := cluster.DialTCP(addr)
					if err != nil {
						fail(err)
					}
					slot, err := ing.AddNode(c)
					if err != nil {
						fail(err)
					}
					fmt.Printf("joined: %s as node %d (at event %d)\n", addr, slot, i)
				}
			}
			if i == drainAt {
				if err := ing.Drain(*o.drainSlot); err != nil {
					fail(err)
				}
				fmt.Printf("drained: node %d (at event %d)\n", *o.drainSlot, i)
			}
			ing.Process(&w.Events[i])
		}
		if err := ing.Finish(); err != nil {
			fail(err)
		}
		elapsed = time.Since(start)
		met = ing.Metrics()
		workers = ing.TotalShards()
		fmt.Printf("cluster: %d node(s), %d global shards\n", ing.Nodes(), ing.TotalShards())
		for n, nm := range ing.NodeMetrics() {
			fmt.Printf("node %d: %d events, %d matches, %d replans\n",
				n, nm.EventsArrived, nm.Matches, nm.Reoptimizations)
		}
		for _, fo := range ing.Failovers() {
			fmt.Printf("failover: node %d (%s): replayed %d cuts / %d events, recovered in %v\n",
				fo.Node, fo.Cause, fo.ReplayCuts, fo.ReplayEvents, fo.RecoveryTime().Round(time.Millisecond))
		}
		for _, mg := range ing.Migrations() {
			fmt.Printf("migration: shard %d node %d -> %d (%s): replayed %d cuts / %d events, paused %v\n",
				mg.Shard, mg.From, mg.To, mg.Reason, mg.ReplayCuts, mg.ReplayEvents, mg.Pause().Round(time.Microsecond))
		}
		if *o.patset != "" || budgets != nil {
			printPerPattern(ing.PatternMetrics(), perPat)
			printTenantStats(ing.TenantStats())
		}
	} else if nc.Shards > 1 || *o.patset != "" {
		if w.Keys == 0 {
			fail(fmt.Errorf("-shards %d needs a keyed workload; regenerate with acep-gen -keys", nc.Shards))
		}
		eng, err := shard.New(nil, engine.Config{}, shard.Options{
			Shards:   nc.Shards,
			Batch:    *o.batch,
			QueueCap: nc.QueueCap,
			Overflow: nc.Overflow,
			KeyAttr:  *o.keyAttr,
			Schema:   w.Schema,
			Patterns: specs,
			Tenants:  budgets,
			OnTagged: onTagged,
		})
		if err != nil {
			fail(err)
		}
		start := time.Now()
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
		elapsed = time.Since(start)
		met = eng.Metrics()
		workers = nc.Shards
		if *o.patset == "" { // a set's plans are per pattern per shard: too many to list
			for s, sp := range eng.Plans() {
				for _, p := range sp {
					plans = append(plans, fmt.Sprintf("shard %d: %s", s, p))
				}
			}
		}
		for s, sm := range eng.ShardMetrics() {
			fmt.Printf("shard %d: %d events, %d matches, %d replans\n",
				s, sm.Events, sm.Matches, sm.Reoptimizations)
		}
		if *o.patset != "" || budgets != nil {
			printPerPattern(eng.PatternMetrics(), perPat)
			printTenantStats(eng.TenantStats())
		}
	} else {
		// The single-threaded reference: no session, the bare engine.
		if budgets != nil {
			fail(fmt.Errorf("-tenant-budget needs a hosted session: set -shards, -nodes or -connect"))
		}
		nc.Engine.OnMatch = func(mt *match.Match) { onTagged(shard.Tagged{M: mt}) }
		eng, err := engine.New(pat, nc.Engine)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
		elapsed = time.Since(start)
		met = eng.Metrics()
		for _, p := range eng.CurrentPlans() {
			plans = append(plans, fmt.Sprint(p))
		}
	}
	fmt.Printf("events: %d  matches: %d  elapsed: %v\n", len(w.Events), matches, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f events/sec\n", float64(len(w.Events))/elapsed.Seconds())
	fmt.Printf("replans: %d (A invoked %d times, D consulted %d times)\n",
		met.Reoptimizations, met.PlanGenerations, met.DecisionCalls)
	// In sharded/cluster mode the metrics sum per-shard CPU time over
	// workers that ran concurrently, so normalize by the aggregate worker
	// time rather than wall clock (keeps the figure a true fraction).
	budget := time.Duration(workers) * elapsed
	fmt.Printf("adaptation overhead: %.2f%%  peak partial matches: %d\n",
		100*met.Overhead(budget), met.PeakPMs)
	if met.QueueWait.Count() > 0 {
		fmt.Printf("latency: queue-wait p50 %v p99 %v; detect p50 %v p99 %v\n",
			time.Duration(met.QueueWait.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(met.QueueWait.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(met.DetectTime.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(met.DetectTime.Quantile(0.99)).Round(time.Microsecond))
	}
	if met.EventsShed > 0 || met.QueueDropped > 0 {
		if pat != nil {
			fmt.Printf("overload control: %d shed by policy, %d dropped on queue overflow (%.1f%% of arrivals; recall est. %.3f for size %d)\n",
				met.EventsShed, met.QueueDropped, 100*met.ShedRate(), met.RecallEstimate(pat.Size()), pat.Size())
		} else {
			// Multi-pattern mode: per-size recall estimates don't apply
			// to a heterogeneous set; per-tenant accounting is above.
			fmt.Printf("overload control: %d shed by tenant budgets, %d dropped on queue overflow (%.1f%% of arrivals)\n",
				met.EventsShed, met.QueueDropped, 100*met.ShedRate())
		}
	}
	for _, p := range plans {
		fmt.Printf("final plan: %s\n", p)
	}
	if *o.mempro != "" {
		pf, err := os.Create(*o.mempro)
		if err != nil {
			fail(err)
		}
		runtime.GC() // profile live retention, not transient garbage
		if err := pprof.WriteHeapProfile(pf); err != nil {
			fail(err)
		}
		pf.Close()
	}
}

// printPerPattern reports each registered pattern's delivered matches
// and merged engine counters.
func printPerPattern(pms []multi.PatternMetrics, delivered map[uint32]uint64) {
	for _, pm := range pms {
		fmt.Printf("pattern %d (tenant %d): %d matches delivered, %d events evaluated, %d replans\n",
			pm.ID, pm.Tenant, delivered[pm.ID], pm.M.Events, pm.M.Reoptimizations)
	}
}

// printTenantStats reports per-tenant admission accounting (empty
// without budgets installed is still printed: all admitted).
func printTenantStats(stats []shed.TenantStat) {
	for _, ts := range stats {
		fmt.Printf("tenant %d: admitted %d, shed %d\n", ts.Tenant, ts.Admitted, ts.Shed)
	}
}

// parseTenantBudgets parses "tenant=rate[:burst],..." into budget form.
func parseTenantBudgets(s string) (map[uint32]shed.TenantBudget, error) {
	out := make(map[uint32]shed.TenantBudget)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad tenant budget %q (want tenant=rate[:burst])", part)
		}
		t, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad tenant id %q: %v", kv[0], err)
		}
		rb := strings.SplitN(kv[1], ":", 2)
		rate, err := strconv.ParseFloat(rb[0], 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("bad budget rate %q (want events per logical second > 0)", rb[0])
		}
		b := shed.TenantBudget{Rate: rate}
		if len(rb) == 2 {
			if b.Burst, err = strconv.ParseFloat(rb[1], 64); err != nil || b.Burst <= 0 {
				return nil, fmt.Errorf("bad budget burst %q", rb[1])
			}
		}
		out[uint32(t)] = b
	}
	return out, nil
}

// addrs splits a comma-separated address list (nil for "").
func addrs(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "acep-run: %v\n", err)
	os.Exit(1)
}

// Package acep is an adaptive complex event processing (CEP) library: it
// detects declarative patterns (sequences, conjunctions, disjunctions,
// negation, Kleene closure, inter-event predicates, sliding windows) over
// event streams, and continuously re-optimizes its evaluation plan as the
// statistical properties of the input change.
//
// The adaptation machinery implements Kolchinsky & Schuster, "Efficient
// Adaptive Detection of Complex Event Patterns" (VLDB 2018): during plan
// generation every block-building comparison is captured as a deciding
// condition, the tightest conditions become invariants, and the system
// reoptimizes exactly when an invariant is violated — provably avoiding
// false-positive reoptimizations (paper Theorem 1). The library ships
// both evaluation models the paper studies (order-based lazy NFA with the
// greedy planner, and ZStream-style evaluation trees with a dynamic-
// programming planner) plus the baseline adaptation policies it compares
// against (static, unconditional, constant-threshold).
//
// # Quick start
//
//	schema := acep.NewSchema()
//	a := schema.MustAddType("A", "person_id")
//	b := schema.MustAddType("B", "person_id")
//	c := schema.MustAddType("C", "person_id")
//
//	pb := acep.NewPattern(schema, acep.Seq, 10*acep.Minute)
//	pa, pbPos, pc := pb.Event(a), pb.Event(b), pb.Event(c)
//	pb.WhereEq(pa, "person_id", pbPos, "person_id")
//	pb.WhereEq(pbPos, "person_id", pc, "person_id")
//	pattern := pb.MustBuild()
//
//	eng, _ := acep.NewEngine(pattern, acep.Config{
//		NewPolicy: func() acep.Policy { return acep.NewInvariantPolicy(acep.InvariantOptions{}) },
//		OnMatch:   func(m *acep.Match) { fmt.Println(m) },
//	})
//	for _, ev := range events {
//		eng.Process(&ev)
//	}
//	eng.Finish()
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// architecture and the paper-experiment index.
package acep

import (
	"fmt"
	"time"

	"acep/internal/cluster"
	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/ha"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	recovery "acep/internal/recover"
	"acep/internal/sase"
	"acep/internal/shard"
	"acep/internal/shed"
	"acep/internal/stats"
)

// Core data types, re-exported from the internal packages. The aliases
// carry their methods; see the internal package docs for details.
type (
	// Event is a primitive input event.
	Event = event.Event
	// Time is a logical timestamp in milliseconds.
	Time = event.Time
	// Schema registers event types and their attributes.
	Schema = event.Schema
	// Pattern is a compiled, immutable pattern.
	Pattern = pattern.Pattern
	// PatternBuilder assembles a Pattern.
	PatternBuilder = pattern.Builder
	// Pred is a predicate over one or two pattern positions.
	Pred = pattern.Pred
	// Match is one detected pattern occurrence.
	Match = match.Match
	// Snapshot is a statistics snapshot (arrival rates and predicate
	// selectivities); one an engine hands out is its estimator's, refilled
	// two checks on.
	Snapshot = stats.Snapshot
	// Policy is a reoptimizing decision function D.
	Policy = core.Policy
	// Engine is the adaptive detection engine.
	Engine = engine.Engine
	// Config assembles an Engine.
	Config = engine.Config
	// Metrics aggregates an Engine's counters.
	Metrics = engine.Metrics
	// Workload is a generated synthetic event stream.
	Workload = gen.Workload
)

// Time units.
const (
	Millisecond = event.Millisecond
	Second      = event.Second
	Minute      = event.Minute
)

// Pattern operators.
const (
	// Seq detects events in declaration order.
	Seq = pattern.Seq
	// And detects events in any order within the window.
	And = pattern.And
)

// Predicate comparison operators.
const (
	LT        = pattern.LT
	LE        = pattern.LE
	GT        = pattern.GT
	GE        = pattern.GE
	EQ        = pattern.EQ
	NE        = pattern.NE
	AbsDiffLT = pattern.AbsDiffLT
)

// Evaluation models.
const (
	// GreedyNFA uses order-based plans on a lazy NFA (greedy planner).
	GreedyNFA = engine.GreedyNFA
	// ZStreamTree uses tree-based plans on a ZStream-style engine
	// (dynamic-programming planner).
	ZStreamTree = engine.ZStreamTree
)

// NewSchema creates an empty event schema.
func NewSchema() *Schema { return event.NewSchema() }

// NewPattern starts building a pattern with the given root operator (Seq
// or And) and sliding window.
func NewPattern(s *Schema, op pattern.Op, window Time) *PatternBuilder {
	return pattern.NewBuilder(s, op, window)
}

// Or combines built patterns into a disjunction; each disjunct is
// detected (and adapts) independently.
func Or(subs ...*Pattern) (*Pattern, error) { return pattern.NewOr(subs...) }

// ParsePattern compiles a SASE-style textual specification (the syntax
// used in the paper), e.g.
//
//	PATTERN SEQ(A a, B b, C c)
//	WHERE a.person_id = b.person_id AND b.person_id = c.person_id
//	WITHIN 10 minutes
//
// Negation is written "~B b" and Kleene closure "C+ c"; see the
// internal/sase package for the full grammar.
func ParsePattern(s *Schema, src string) (*Pattern, error) { return sase.Parse(s, src) }

// NewEngine builds an adaptive engine for the pattern. The engine copies
// what it keeps of an event, so the caller may reuse the Event (and its
// Attrs) once Process returns, and a match delivered to cfg.OnMatch is the
// consumer's to keep.
func NewEngine(p *Pattern, cfg Config) (*Engine, error) { return engine.New(p, cfg) }

// Sharded parallel execution: the input stream is partitioned by a key,
// each shard runs a fully independent adaptive engine on its own
// goroutine (own plan, statistics and invariants — the paper's method
// applies per partition, §7), and matches merge back into one
// deterministic, detection-ordered output. See DESIGN.md ("Sharded
// execution") for the architecture and ordering guarantees.
type (
	// ShardedEngine is the key-partitioned parallel engine.
	ShardedEngine = shard.Engine
	// ShardedConfig tunes partitioning, batching and match delivery.
	ShardedConfig = shard.Options
	// ShardKeyFunc extracts an event's key (SheddingConfig.Key).
	ShardKeyFunc = shard.KeyFunc
)

// NewShardedEngine builds a sharded adaptive engine. cfg configures every
// shard's engine identically (each shard's engine calls cfg.NewPolicy for
// a policy of its own, so each shard adapts independently); sc names the
// partition key attribute (KeyAttr, resolved against Schema), which every
// pattern must be partitionable by, and receives the merged matches
// through sc.OnMatch.
//
//	eng, err := acep.NewShardedEngine(pattern, acep.Config{}, acep.ShardedConfig{
//		Shards:  8,
//		KeyAttr: "person_id",
//		Schema:  schema,
//		OnMatch: func(m *acep.Match) { ... },
//	})
func NewShardedEngine(p *Pattern, cfg Config, sc ShardedConfig) (*ShardedEngine, error) {
	return shard.New(p, cfg, sc)
}

// ShardKeyByAttr builds a key extractor for the named attribute, which
// every event type in the schema must carry — the entity key a
// pattern-aware shedder protects (SheddingConfig.Key).
func ShardKeyByAttr(s *Schema, attr string) (ShardKeyFunc, error) {
	return shard.ByAttrName(s, attr)
}

// ShardPartitionable reports whether the pattern can be detected
// shard-locally when partitioned by the named attribute: equality-on-key
// predicates must connect every pattern position.
func ShardPartitionable(p *Pattern, s *Schema, attr string) error {
	return shard.Partitionable(p, s, attr)
}

// Distributed execution: the cluster layer scales the sharded engine
// across worker nodes. An ingress coordinator partitions the stream by
// key across nodes with the same consistent placement the shard layer
// uses locally, drives uniform watermark cuts (idle nodes still advance),
// and merges the node match streams into one deterministic, ordered
// output that is byte-identical to the single-process sharded engine's
// for key-partitionable patterns. Nodes are either spawned in-process
// (ClusterConfig.Local, each behind a loopback socket) or connected over
// TCP (ClusterConfig.Remote, workers started with cmd/acep-node). See
// DESIGN.md ("Distributed execution").
type (
	// ClusterIngress is the cluster coordinator: Process events, Finish,
	// read merged or per-node Metrics (and Failovers/Migrations, with
	// recovery enabled). With recovery it is also elastic: AddNode admits
	// a freshly dialed worker at runtime, Drain gracefully empties one,
	// and MigrateShard moves a single shard by hand.
	ClusterIngress = cluster.Ingress
	// ClusterFailover records one recovered node failure: cause,
	// detection time, replayed history, and when the successor caught
	// up (RecoveryTime).
	ClusterFailover = recovery.Failover
	// ClusterMigration records one shard changing owner (the primitive
	// failover, rebalancing, scale-out and drain are built from): why it
	// moved, what was replayed, and the delivery pause it cost (Pause).
	ClusterMigration = recovery.Migration
	// ClusterElastic tunes the ingress placement controller (see
	// cluster.ElasticConfig): with it set the ingress migrates the busiest
	// shard off the most loaded node when the events it routed to each
	// node's shards since the last move show sustained skew.
	ClusterElastic = cluster.ElasticConfig
	// HAIngress is a replicated coordinator pair (built by NewHAIngress): a
	// primary ingress with a hot standby mirroring every sealed cut over
	// a replication link, able to assume the whole cluster on primary
	// death with the delivered stream staying byte-identical. Process and
	// Finish mirror ClusterIngress; Takeover and Demotion report the
	// incidents.
	HAIngress = ha.Pair
	// ClusterTakeover records one coordinator takeover: detection,
	// re-dialed workers, replayed mirror volume, and the output pause it
	// cost (Pause).
	ClusterTakeover = recovery.Takeover
)

// ClusterConfig assembles a distributed cluster behind one ingress.
// Exactly one of Local and Remote says where the workers run.
type ClusterConfig struct {
	// Local spawns the workers in-process, each behind a loopback socket.
	Local *ClusterLocal
	// Remote drives running TCP workers.
	Remote *ClusterRemote
	// Batch is the events-per-cut of the ingress (default 256).
	Batch int
	// KeyAttr + Schema select the partition key, with the same
	// partitionability validation as NewShardedEngine.
	KeyAttr string
	Schema  *Schema
	// OnMatch receives every match in the merged deterministic order.
	OnMatch func(*Match)
	// Patterns is the pattern set to host, for callers with more than one
	// pattern (pass p nil to NewClusterIngress; p itself is the set of
	// one): the set rides every handshake (including failover and
	// migration), shared sub-patterns evaluate once per event, and
	// matches arrive pattern-tagged through OnTagged. Either way the
	// returned ingress can AddPattern / RemovePattern at runtime without
	// disturbing the other patterns' output.
	Patterns []MultiSpec
	// Tenants installs per-tenant admission budgets; per-tenant
	// accounting surfaces through the ingress's TenantStats.
	Tenants map[uint32]TenantBudget
	// OnTagged receives pattern-tagged matches (exactly one of OnMatch /
	// OnTagged).
	OnTagged func(TaggedMatch)
	// Recover enables fault-tolerant failover: the ingress journals its
	// cuts and, when a worker dies, hands the lost shard block to a
	// standby — dialed from Remote.Standby, or one of at most two spawned
	// in-process under Local — which replays the journaled history and
	// suppresses already-delivered matches, keeping the output stream
	// exactly the healthy one. Nil: a node failure surfaces as an error
	// from Finish.
	Recover *ClusterRecovery
}

// ClusterLocal runs a cluster's workers in-process: Nodes of them
// (default 2), each running ShardsPerNode shard engines (default 1)
// behind ingestion queues of QueueCap events (see ShardedConfig.QueueCap),
// every engine configured by Engine exactly as by NewShardedEngine.
type ClusterLocal struct {
	Nodes, ShardsPerNode, QueueCap int
	Engine                         Config
}

// ClusterRemote names running TCP workers, started with cmd/acep-node.
// Each configures its own engines and shard count, and serves the same
// pattern and schema (the handshake verifies fingerprints). Standby
// workers are dialed lazily at failover time (bare acep-node processes
// work: the pattern ships in the handshake); they need Recover, and
// Recover over Remote needs at least one.
type ClusterRemote struct {
	Connect, Standby []string
}

// ClusterRecovery holds the settings that only apply with failover.
type ClusterRecovery struct {
	// HeartbeatTimeout declares a silent node dead even without a
	// transport error (0: transport errors only).
	HeartbeatTimeout time.Duration
	// Elastic, when non-nil, enables and tunes the placement controller.
	Elastic *ClusterElastic
}

// NewClusterIngress builds a distributed cluster ingress for the
// pattern. It refuses a config that sets both or neither of Local and
// Remote, and one whose Remote.Standby list disagrees with Recover.
//
//	ing, err := acep.NewClusterIngress(pattern, acep.ClusterConfig{
//		Local:   &acep.ClusterLocal{Nodes: 3, ShardsPerNode: 2},
//		KeyAttr: "key",
//		Schema:  w.Schema,
//		OnMatch: func(m *acep.Match) { ... },
//	})
//	for i := range events { ing.Process(&events[i]) }
//	err = ing.Finish()
func NewClusterIngress(p *Pattern, cc ClusterConfig) (*ClusterIngress, error) {
	switch r := cc.Remote; {
	case (cc.Local == nil) == (r == nil):
		return nil, fmt.Errorf("acep: ClusterConfig needs exactly one of Local and Remote")
	case r != nil && cc.Recover != nil && len(r.Standby) == 0:
		return nil, fmt.Errorf("acep: ClusterConfig.Recover over Remote needs Remote.Standby addresses (a bare acep-node works)")
	case r != nil && cc.Recover == nil && len(r.Standby) > 0:
		return nil, fmt.Errorf("acep: ClusterConfig.Remote.Standby needs Recover")
	}
	// Local and Remote differ only in where the node connections and the
	// standbys come from.
	var conns []cluster.Conn
	var standby func() (cluster.Conn, error)
	var err error
	if l := cc.Local; l != nil {
		nodes := l.Nodes
		if nodes <= 0 {
			nodes = 2
		}
		nc := cluster.NodeConfig{
			Pattern: p, Schema: cc.Schema, Engine: l.Engine,
			Shards: l.ShardsPerNode, Batch: cc.Batch, QueueCap: l.QueueCap,
			KeyAttr: cc.KeyAttr,
		}
		conns, err = cluster.Spawn(nodes, nc, nil)
		standby = cluster.SpawnStandbys(2, nc)
	} else {
		conns, err = cluster.Dial(cc.Remote.Connect)
		standby = cluster.DialStandbys(cc.Remote.Standby)
	}
	if err != nil {
		return nil, err
	}
	opts := cluster.IngressOptions{
		Batch:    cc.Batch,
		KeyAttr:  cc.KeyAttr,
		Schema:   cc.Schema,
		OnMatch:  cc.OnMatch,
		OnTagged: cc.OnTagged,
		Patterns: cc.Patterns,
		Tenants:  cc.Tenants,
	}
	if rc := cc.Recover; rc != nil {
		opts.Recovery = &cluster.RecoveryConfig{
			Standby:          standby,
			HeartbeatTimeout: rc.HeartbeatTimeout,
			Elastic:          rc.Elastic,
		}
	}
	return cluster.NewIngress(p, conns, opts)
}

// HAConfig assembles a replicated coordinator pair. The pair hosts one
// pattern, partitioned by KeyAttr, over running TCP workers.
type HAConfig struct {
	// Remote lists the workers, and the standby pool that worker
	// failover and takeover share.
	Remote ClusterRemote
	// Batch is the events-per-cut and the replication unit (default 256).
	Batch int
	// KeyAttr + Schema select the partition key.
	KeyAttr string
	Schema  *Schema
	// Exactly one of OnMatch and OnTagged receives the delivered stream.
	OnMatch  func(*Match)
	OnTagged func(TaggedMatch)
	// HeartbeatTimeout declares a silent worker dead even without a
	// transport error (0: transport errors only).
	HeartbeatTimeout time.Duration
}

// NewHAIngress builds a replicated coordinator pair over running TCP
// worker nodes: a primary ingress plus a hot standby that mirrors every
// sealed cut, the owner table and the release boundary over a
// replication link, and can assume every worker on primary death with
// the delivered stream byte-identical to an unkilled run. Matches
// arrive through OnMatch (or OnTagged) exactly as with
// NewClusterIngress.
//
//	ing, err := acep.NewHAIngress(pattern, acep.HAConfig{
//		Remote:  acep.ClusterRemote{Connect: []string{"host1:7001", "host2:7001"}},
//		KeyAttr: "key",
//		Schema:  w.Schema,
//		OnMatch: func(m *acep.Match) { ... },
//	})
func NewHAIngress(p *Pattern, hc HAConfig) (*HAIngress, error) {
	if len(hc.Remote.Connect) == 0 {
		return nil, fmt.Errorf("acep: NewHAIngress needs Remote.Connect worker addresses (in-process nodes share the coordinator's fate)")
	}
	if (hc.OnMatch == nil) == (hc.OnTagged == nil) {
		return nil, fmt.Errorf("acep: NewHAIngress needs exactly one of OnMatch and OnTagged")
	}
	onTagged := hc.OnTagged
	if onTagged == nil {
		om := hc.OnMatch
		onTagged = func(t TaggedMatch) { om(t.M) }
	}
	return ha.New(ha.Config{
		Pattern:          p,
		Schema:           hc.Schema,
		KeyAttr:          hc.KeyAttr,
		Batch:            hc.Batch,
		Workers:          hc.Remote.Connect,
		Standbys:         hc.Remote.Standby,
		OnTagged:         onTagged,
		HeartbeatTimeout: hc.HeartbeatTimeout,
	})
}

// Pattern sets and tenancy: every sharded or clustered session hosts a
// pattern set — a single pattern is the set of one — over a single
// stream, evaluating shared work once — distinct
// unary predicates are interned into one set-wide verdict table, and
// patterns sharing a SEQ prefix subscribe to one shared prefix runner
// that seeds their suffix automata. Per-pattern output is exactly what
// an independent engine would produce. Tenants own patterns and can be
// given admission budgets (token buckets in logical event time) so one
// tenant's overload sheds only its own recall. A set of several is
// submitted through ShardedConfig.Patterns or ClusterConfig.Patterns
// (with a nil pattern argument) and its matches arrive pattern-tagged
// through OnTagged; a session opened with one pattern grows the same
// way through AddPattern. See DESIGN.md ("Pattern sets & tenancy").
type (
	// MultiSpec registers one pattern of a set: a set-unique id (the
	// single-pattern constructors use 0), the owning tenant, the pattern
	// itself, and the engine configuration used when it evaluates
	// independently.
	MultiSpec = multi.Spec
	// MultiPatternMetrics is one pattern's engine counters, tagged with
	// its id and tenant (ShardedEngine.PatternMetrics,
	// ClusterIngress.PatternMetrics).
	MultiPatternMetrics = multi.PatternMetrics
	// TaggedMatch is one merge-ordered match delivery annotated with the
	// emitting pattern's id (the Pattern field).
	TaggedMatch = shard.Tagged
	// TenantBudget is one tenant's admission budget: a token bucket
	// refilled in logical (event-time) seconds, so gating decisions are
	// deterministic functions of the stream.
	TenantBudget = shed.TenantBudget
	// TenantStat is one tenant's admission accounting (events admitted
	// and shed).
	TenantStat = shed.TenantStat
)

// Overload control (load shedding): when the input rate exceeds what even
// the best evaluation plan can absorb, the shedding layer drops events
// before detection, trading match recall for bounded resource usage.
// Configure it through Config.Shedding: pick a policy, set a Budget, and
// the engine sheds only while over budget. Shedding never drops events of
// negated pattern positions, so detected matches stay precise (a subset
// of the full match set for negation-free patterns). All decisions are
// deterministic functions of the stream and the configuration. See
// DESIGN.md ("Overload control") for the architecture.
type (
	// ShedPolicy decides which events to drop while overloaded.
	ShedPolicy = shed.Policy
	// SheddingConfig configures the overload-control layer of an engine
	// (the Shedding field of Config).
	SheddingConfig = shed.Config
	// ShedBudget sets the capacity targets the load monitor measures
	// utilization against.
	ShedBudget = shed.Budget
)

// Shard ingestion-queue overflow modes (ShardedConfig.Overflow).
const (
	// ShardBackpressure blocks ingestion while a shard's bounded queue is
	// full (lossless, the default).
	ShardBackpressure = shard.Backpressure
	// ShardDropNewest discards overflowing handoffs and counts the lost
	// events in Metrics().QueueDropped (lossy, never blocks).
	ShardDropNewest = shard.DropNewest
)

// NewShedNone returns the disabled shedding policy: the load monitor runs
// (utilization is reported) but no event is ever dropped.
func NewShedNone() ShedPolicy { return shed.None{} }

// NewShedRandom returns the uniform baseline policy: while overloaded,
// every event is dropped with probability p.
func NewShedRandom(p float64) ShedPolicy { return shed.Random{P: p} }

// NewShedRateUtility returns the statistics-driven policy: while
// overloaded it sheds the target fraction of the stream starting from the
// event types of highest arrival rate and lowest predicate selectivity
// (computed from the engine's own statistics snapshots); event types the
// pattern never references are shed first at zero recall cost.
func NewShedRateUtility(target float64) ShedPolicy { return shed.RateUtility{Target: target} }

// NewShedPatternAware returns the liveness-driven policy: events whose
// type could extend a live partial match — or whose partition key occurs
// in one — are never dropped, and the remaining events are dropped at a
// compensated rate so the stream-wide drop fraction still meets target.
// At equal drop rate it retains strictly more matches than NewShedRandom
// on keyed workloads (see the shed-traffic experiment in acep-bench).
func NewShedPatternAware(target float64) ShedPolicy { return shed.PatternAware{Target: target} }

// NewStaticPolicy returns the no-adaptation baseline: the initial plan is
// kept forever.
func NewStaticPolicy() Policy { return core.Static{} }

// NewUnconditionalPolicy returns the baseline that re-runs plan
// generation on every adaptation check.
func NewUnconditionalPolicy() Policy { return core.Unconditional{} }

// NewThresholdPolicy returns the constant-threshold baseline: it requests
// reoptimization when any monitored statistic deviates from its value at
// plan-installation time by the relative factor t.
func NewThresholdPolicy(t float64) Policy { return &core.Threshold{T: t} }

// InvariantOptions tunes the invariant-based decision policy.
type InvariantOptions struct {
	// K is the maximum number of invariants kept per building block
	// (default 1, the basic method; paper §3.3).
	K int
	// Distance is the minimal relative violation distance d (paper §3.4).
	Distance float64
	// AutoDistance derives the distance from the average relative
	// difference of the deciding conditions at every plan installation
	// (paper §3.4, the d_avg estimator).
	AutoDistance bool
}

// NewInvariantPolicy returns the paper's invariant-based reoptimizing
// decision function: it requests reoptimization exactly when a recorded
// plan invariant is violated, guaranteeing the new plan differs from the
// current one.
func NewInvariantPolicy(o InvariantOptions) Policy {
	return &core.Invariant{K: o.K, D: o.Distance, AutoDistance: o.AutoDistance}
}

// NewMetaInvariantPolicy returns the meta-adaptive invariant policy
// (paper §3.4, direction 3): the violation distance d is tuned on-the-fly
// from the outcomes of the reoptimization attempts the policy triggers —
// wasted attempts grow d, productive ones decay it back toward initialD.
func NewMetaInvariantPolicy(initialD float64) Policy {
	return &core.MetaInvariant{InitialD: initialD}
}

// Synthetic workload generation (the library's stand-ins for the paper's
// traffic and stocks datasets; see DESIGN.md).
type (
	// TrafficConfig tunes the skewed/stable/extreme-shift generator.
	TrafficConfig = gen.TrafficConfig
	// StocksConfig tunes the uniform/minor-drift generator.
	StocksConfig = gen.StocksConfig
	// PatternKind selects one of the five evaluation pattern families.
	PatternKind = gen.Kind
)

// Pattern families for generated workloads.
const (
	SequencePatterns    = gen.Sequence
	ConjunctionPatterns = gen.Conjunction
	NegationPatterns    = gen.Negation
	KleenePatterns      = gen.Kleene
	CompositePatterns   = gen.Composite
)

// NewTrafficWorkload generates a traffic-like stream: highly skewed,
// stable arrival rates with rare extreme regime shifts.
func NewTrafficWorkload(cfg TrafficConfig) *Workload { return gen.Traffic(cfg) }

// NewStocksWorkload generates a stocks-like stream: near-uniform arrival
// rates with frequent minor fluctuations.
func NewStocksWorkload(cfg StocksConfig) *Workload { return gen.Stocks(cfg) }

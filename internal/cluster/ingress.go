package cluster

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	recovery "acep/internal/recover"
	"acep/internal/shard"
	"acep/internal/shed"
	"acep/internal/wire"
)

// maxShardsPerNode bounds the shard count a node may claim in its
// hello; far above any sane deployment, low enough that the global
// shard->node map stays small.
const maxShardsPerNode = 1 << 12

// ElasticConfig tunes the placement controller: when Rebalance is set
// the ingress watches per-shard queue-wait p99 snapshots reported by
// the nodes and migrates the busiest shard off the hottest node onto
// the coolest one — with hysteresis (the hot node must be HotRatio
// times the cool one and above MinWaitP99 before anything moves) and a
// cooldown (CooldownCuts cuts must pass between moves, and never while
// another migration is still in flight) so the controller converges
// instead of thrashing.
type ElasticConfig struct {
	// Rebalance enables the controller. Requires IngressOptions.Recovery:
	// migrations replay shard history from the journal.
	Rebalance bool
	// HotRatio is the load ratio (hottest node / coolest node, by max
	// owned-shard queue-wait p99) that triggers a move. Values <= 1 mean
	// the default 2.0.
	HotRatio float64
	// MinWaitP99 is the absolute queue-wait floor below which the
	// controller never moves anything, however skewed the ratio looks
	// (default 1ms): an idle cluster has nothing worth migrating.
	MinWaitP99 time.Duration
	// CooldownCuts is the minimum number of cuts between moves (default
	// 16), giving each move's effect time to show up in the stats.
	CooldownCuts int
}

// CutInfo is one sealed cut as observed by IngressOptions.OnCut: the
// global watermark, every shard's events of the cut, and the routing
// truth at seal time. The slices alias ingress-owned state and are
// valid only during the call — a replicator must encode or copy before
// returning. Final marks the cut sealed by Finish (the stream's last).
type CutInfo struct {
	UpTo  uint64
	Final bool
	Bufs  [][]event.Event // per global shard, arrival order
	Owner []int           // shard -> slot (-1: abandoned)
	Addrs []string        // per slot: dialable worker address ("" unknown)
}

// ResumeState builds a takeover successor: a standby coordinator that
// mirrored the primary's sealed cuts constructs a fresh ingress that
// resumes the stream at the exact point its mirror covers. Owner is the
// mirrored routing table (conns[i] serves slot i), Journal the mirrored
// cut journal, NextSeq the watermark of the newest mirrored cut, and
// Boundary the primary's last replicated emission watermark — every
// match at or below it was already delivered downstream, so the
// successor's adoption migrations suppress that prefix and regenerate
// the rest by replay.
type ResumeState struct {
	NextSeq  uint64
	Boundary uint64
	Owner    []int
	Journal  *recovery.Journal
}

// IngressOptions tunes the coordinator side of a cluster.
type IngressOptions struct {
	// Batch is the number of ingested events per uniform cut (default
	// 256): at every cut, every node — including nodes whose partitions
	// received nothing — gets a frame carrying the global watermark, so
	// completion progress advances cluster-wide even through idle
	// partitions.
	Batch int
	// Key extracts the partition key; Key or KeyAttr+Schema is required
	// and must match the nodes' configuration.
	Key     shard.KeyFunc
	KeyAttr string
	Schema  *event.Schema
	// OnMatch receives every match, on the merge-collector goroutine, in
	// the deterministic global order (identical to the single-process
	// sharded engine's, see the package comment).
	OnMatch func(*match.Match)
	// OnTagged, when set instead of OnMatch, receives matches with their
	// merge tags (Src is the global shard index).
	OnTagged func(shard.Tagged)
	// Patterns is the pattern set the session opens with, for callers
	// with more than one pattern (NewIngress is then called with a nil
	// pattern; its pattern argument is shorthand for the set of one under
	// multi.SoloID). Every node hosts the whole set behind one
	// shared-evaluation engine (see internal/multi), every match callback
	// sees the emitting pattern's id on its Tagged, and the set can be
	// mutated at runtime with AddPattern/RemovePattern. Spec Configs are
	// ignored — each node applies its own engine configuration.
	Patterns []multi.Spec
	// Tenants ships per-tenant token-bucket budgets to every node.
	// Budgets gate per local shard on each node, so a rate intended as a
	// global bound should be divided by the global shard count.
	// Per-tenant admission counters come back with the final metrics
	// (TenantStats).
	Tenants map[uint32]shed.TenantBudget
	// Recovery, when non-nil, makes the ingress fault-tolerant and
	// elastic: sealed cuts are journaled per shard, a dead node's shards
	// fail over to a standby, and shards can migrate between live nodes
	// (rebalance, join, drain) with watermark replay and exact dedup (see
	// RecoveryConfig and DESIGN.md "Elasticity"). When nil, a node
	// failure surfaces as an error from Finish (exactness over
	// availability) and migration is unavailable.
	Recovery *RecoveryConfig
	// Elastic configures the placement controller (optional; needs
	// Recovery when Rebalance is set).
	Elastic *ElasticConfig
	// Epoch stamps every Assign frame this ingress issues (0 without
	// HA). Worker processes latch the highest epoch they have served and
	// fence sessions from anything lower, so a superseded primary cannot
	// keep driving the cluster after its standby took over.
	Epoch uint64
	// OnCut, when set, observes every sealed cut on the ingress
	// goroutine, strictly behind the send barrier and after the cut has
	// been journaled — the replication tap of the HA subsystem
	// (internal/ha). The CutInfo slices are valid only during the call.
	// Requires Recovery (replication rides the journal's framing and
	// retention guarantees).
	OnCut func(CutInfo)
	// OnProgress taps the merge collector's release watermark: called on
	// the collector goroutine after the matches the watermark covers have
	// been delivered. The HA emission gate keys off it.
	OnProgress func(uint64)
	// Addrs seeds each node slot's dialable worker address (index-
	// aligned with the conns passed to NewIngress; "" unknown), so OnCut
	// can replicate a routing table a standby coordinator could re-dial
	// on takeover. Adoptions and joins refresh a slot's entry when the
	// new connection exposes its remote address; drains clear it.
	Addrs []string
	// Resume, when non-nil, builds a takeover successor instead of a
	// founding coordinator: every worker handshakes into a zero-shard
	// session, the mirrored journal and routing table are adopted as-is,
	// and NewIngress re-establishes every shard on its mirrored slot via
	// adoption migrations (reason "takeover") that replay the mirror and
	// suppress matches at or below Resume.Boundary. Requires Recovery.
	Resume *ResumeState
}

// Ingress is the cluster coordinator: it partitions one input stream
// across worker nodes, drives uniform watermark cuts, and merges the
// per-shard match streams into one deterministic, ordered output.
// Process, Finish, AddNode, Drain and MigrateShard must be called from
// a single goroutine; the match callback fires on the collector
// goroutine. Construct with NewIngress.
type Ingress struct {
	conns []Conn
	key   shard.KeyFunc
	batch int
	total int

	// owner is the routing truth: global shard index -> the node slot
	// currently feeding it (-1: abandoned). Mutated only on the ingress
	// goroutine, strictly behind the send barrier. hosted[n] records
	// every shard node slot n's *current session* has ever hosted: a
	// session that already ran a shard holds stale window state for it,
	// so migrating the shard back would double-process — the set is
	// reset when a slot is re-adopted by a fresh standby.
	owner  []int
	hosted []map[int]bool

	bufs      [][]event.Event   // per global shard: the accumulating cut
	spare     [][]event.Event   // recycled cut buffers (serializing transports, no recovery)
	recycle   []bool            // per shard: cut buffers may be reused
	outs      [][][]event.Event // per node: send-goroutine scratch, regrouped each cut
	pending   int
	lastSeq   uint64
	dead      []bool
	drained   []bool // gracefully emptied and finished; skip its sends
	abandoned []bool // degraded with no successor: stop journaling its shards

	// Cut pipelining: each sealed cut's frames are encoded and sent by
	// per-node goroutines while the coordinator returns to accumulating
	// the next cut. sendWG is the in-flight cut; sendErr[n] is node n's
	// send failure, acted on at the next barrier (waitSends). Per-node
	// frame order is preserved because a new cut's sends only launch
	// after the barrier, and all routing mutation (migrate, adopt, join,
	// drain — which closes, replaces and replays connections) runs
	// strictly behind it.
	sendWG  sync.WaitGroup
	sendErr []error

	col     *shard.Collector
	readers sync.WaitGroup

	nodeShards []int
	finSent    []bool

	// The session's pattern set (ingress goroutine unless noted). specs
	// is the current set — the truth shipped to every join and adoption —
	// and sig its fingerprint under schema; keyAttr re-validates runtime
	// additions; tenants are the shipped budgets. addCut maps
	// runtime-added pattern ids to the cut boundary they joined at;
	// reader goroutines load it to drop matches a migration replay
	// regenerated from events the pattern never saw in the original
	// timeline (see AddPattern).
	specs   []multi.Spec
	schema  *event.Schema
	sig     uint64
	keyAttr string
	tenants map[uint32]shed.TenantBudget
	addCut  atomic.Pointer[map[uint32]uint64]

	// Recovery/elasticity state (nil/empty without
	// IngressOptions.Recovery). released is the collector's delivered
	// watermark.
	rec           *RecoveryConfig
	elastic       *ElasticConfig
	journal       *recovery.Journal
	det           *recovery.Detector
	released      atomic.Uint64
	readerDone    []chan struct{}
	exitCh        chan struct{} // coalesced reader-exit wakeup for the drain loop
	cutsSinceMove int
	moveHorizon   uint64 // cut watermark at the last shard move (staleness horizon)

	// HA state (zero without the internal/ha subsystem driving this
	// ingress). onCut is the replication tap, addrs the per-slot worker
	// addresses it replicates, epoch the coordinator epoch stamped on
	// every Assign, and suppressFloor the takeover boundary a successor
	// imposes on every adoption migration (a fresh collector's release
	// frontier starts at zero, so the mirrored emission watermark — not
	// the collector — is the truth about what was already delivered).
	onCut         func(CutInfo)
	addrs         []string
	epoch         uint64
	suppressFloor uint64

	mu          sync.Mutex
	err         error
	finished    bool
	gen         []int // per-slot reader generation (guards stale suspects)
	suspects    []suspectRec
	failovers   []recovery.Failover
	facked      []int // per failover: migrations acknowledged so far
	migrations  []recovery.Migration
	migFailover []int // per migration: owning failover index, -1 if none
	nodeMetrics []engine.Metrics
	gotMetrics  []bool
	stats       [][]wire.ShardStat // per slot: latest load snapshot
	retired     engine.Metrics     // metrics of drained sessions whose slot was reused
	patMetrics  map[uint32]engine.Metrics
	tenantAgg   map[uint32]shed.TenantStat
}

// NewIngress performs the handshake over the given node connections
// (node i's shard block starts after node i-1's) and starts the merge
// collector. The session hosts pat — shorthand for the set of one,
// multi.Solo — or, with a nil pattern, the set in opts.Patterns. The set
// and schema must match every configured node's — the handshake compares
// fingerprints — and every pattern must be key-partitionable in KeyAttr
// mode, exactly like shard.New.
func NewIngress(pat *pattern.Pattern, conns []Conn, opts IngressOptions) (*Ingress, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("cluster: ingress needs at least one node connection")
	}
	// Every error return below must release the connections: a node left
	// attached to a half-built ingress would block in its handshake (or
	// hold its listener's session slot) forever.
	built := false
	defer func() {
		if !built {
			for _, c := range conns {
				c.Close()
			}
		}
	}()
	if opts.OnMatch != nil && opts.OnTagged != nil {
		return nil, fmt.Errorf("cluster: set at most one of OnMatch and OnTagged")
	}
	specs := append([]multi.Spec(nil), opts.Patterns...)
	switch {
	case pat != nil && len(specs) > 0:
		return nil, fmt.Errorf("cluster: pass a pattern or Options.Patterns, not both")
	case pat != nil:
		specs = multi.Solo(pat, engine.Config{})
	case len(specs) == 0:
		return nil, fmt.Errorf("cluster: ingress needs a pattern (or a pattern set in Options.Patterns)")
	}
	// Fail a bad set here, not as one cryptic handshake error per node.
	if _, err := multi.Analyze(specs, opts.Schema); err != nil {
		return nil, err
	}
	if opts.Batch <= 0 {
		opts.Batch = 256
	}
	if opts.Elastic != nil && opts.Elastic.Rebalance && opts.Recovery == nil {
		return nil, fmt.Errorf("cluster: Elastic.Rebalance requires Recovery (migrations replay from the journal)")
	}
	if opts.OnCut != nil && opts.Recovery == nil {
		return nil, fmt.Errorf("cluster: Options.OnCut requires Recovery (replication rides the journal)")
	}
	if opts.Resume != nil {
		if opts.Recovery == nil {
			return nil, fmt.Errorf("cluster: Options.Resume requires Recovery (adoption migrations replay the mirror)")
		}
		if opts.Resume.Journal == nil || len(opts.Resume.Owner) == 0 {
			return nil, fmt.Errorf("cluster: Options.Resume needs the mirrored journal and owner table")
		}
		for g, o := range opts.Resume.Owner {
			if o >= len(conns) {
				return nil, fmt.Errorf("cluster: Options.Resume: shard %d owned by slot %d, only %d connections", g, o, len(conns))
			}
		}
	}
	key := opts.Key
	switch {
	case key != nil && opts.KeyAttr != "":
		return nil, fmt.Errorf("cluster: set exactly one of Key and KeyAttr")
	case key == nil && opts.KeyAttr == "":
		return nil, fmt.Errorf("cluster: a partition key is required: set Key or KeyAttr")
	case opts.KeyAttr != "":
		if opts.Schema == nil {
			return nil, fmt.Errorf("cluster: KeyAttr needs Schema to resolve the attribute")
		}
		for _, sp := range specs {
			if err := shard.Partitionable(sp.Pattern, opts.Schema, opts.KeyAttr); err != nil {
				return nil, fmt.Errorf("cluster: pattern %d: %w", sp.ID, err)
			}
		}
		k, err := shard.ByAttrName(opts.Schema, opts.KeyAttr)
		if err != nil {
			return nil, err
		}
		key = k
	}

	in := &Ingress{
		conns:       conns,
		key:         key,
		batch:       opts.Batch,
		sendErr:     make([]error, len(conns)),
		dead:        make([]bool, len(conns)),
		drained:     make([]bool, len(conns)),
		abandoned:   make([]bool, len(conns)),
		nodeShards:  make([]int, len(conns)),
		hosted:      make([]map[int]bool, len(conns)),
		outs:        make([][][]event.Event, len(conns)),
		nodeMetrics: make([]engine.Metrics, len(conns)),
		gotMetrics:  make([]bool, len(conns)),
		finSent:     make([]bool, len(conns)),
		stats:       make([][]wire.ShardStat, len(conns)),
		readerDone:  make([]chan struct{}, len(conns)),
		exitCh:      make(chan struct{}, 1),
		gen:         make([]int, len(conns)),
		specs:       specs,
		schema:      opts.Schema,
		sig:         signature(specs, opts.Schema),
		keyAttr:     opts.KeyAttr,
		tenants:     maps.Clone(opts.Tenants),
		patMetrics:  make(map[uint32]engine.Metrics),
		tenantAgg:   make(map[uint32]shed.TenantStat),
		epoch:       opts.Epoch,
		onCut:       opts.OnCut,
	}
	in.addrs = make([]string, len(conns))
	copy(in.addrs, opts.Addrs)
	if opts.Recovery != nil && opts.Recovery.HeartbeatTimeout > 0 {
		// A worker that stops draining its socket (wedged peer, one-way
		// partition) must surface as that slot's link error in bounded
		// time instead of wedging the feed inside a blocking send.
		// Scaled off the heartbeat timeout: a peer making zero write
		// progress for several heartbeat windows is already dead by the
		// read-side detector's standards.
		ws := 4 * opts.Recovery.HeartbeatTimeout
		if ws < 2*time.Second {
			ws = 2 * time.Second
		}
		for _, c := range conns {
			if sc, ok := c.(interface{ SetWriteStall(time.Duration) }); ok {
				sc.SetWriteStall(ws)
			}
		}
	}
	if opts.Elastic != nil {
		ec := *opts.Elastic
		if ec.HotRatio <= 1 {
			ec.HotRatio = 2.0
		}
		if ec.MinWaitP99 <= 0 {
			ec.MinWaitP99 = time.Millisecond
		}
		if ec.CooldownCuts <= 0 {
			ec.CooldownCuts = 16
		}
		in.elastic = &ec
	}
	// Collect every node's greeting, then assign contiguous blocks of the
	// global shard space in connection order.
	for i, c := range conns {
		f, err := c.Recv()
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d hello: %w", i, err)
		}
		h, ok := f.(wire.Hello)
		if !ok {
			return nil, fmt.Errorf("cluster: node %d sent %s, want hello", i, wire.KindOf(f))
		}
		if h.Version != wire.Version {
			return nil, fmt.Errorf("cluster: node %d speaks protocol v%d, ingress v%d", i, h.Version, wire.Version)
		}
		// Fingerprint 0 is a bare node: it hosts whatever set the Assign
		// reply ships. Configured nodes cross-validate.
		if h.PatternSig != 0 && h.PatternSig != in.sig {
			return nil, fmt.Errorf("cluster: node %d serves a different pattern or schema (fingerprint %x, want %x)", i, h.PatternSig, in.sig)
		}
		if h.Shards < 1 {
			return nil, fmt.Errorf("cluster: node %d hosts no shards", i)
		}
		// Cap the claimed shard count before it sizes the global
		// shard->node map: a buggy or hostile hello must not be able to
		// force a multi-gigabyte allocation (the same promise the wire
		// codec makes for frame-internal counts).
		if h.Shards > maxShardsPerNode {
			return nil, fmt.Errorf("cluster: node %d claims %d shards, cap is %d", i, h.Shards, maxShardsPerNode)
		}
		if opts.Resume == nil {
			in.nodeShards[i] = int(h.Shards)
			in.total += int(h.Shards)
		}
	}
	if rs := opts.Resume; rs != nil {
		// Takeover successor: the mirrored table defines the global shard
		// space, every worker session starts bare (it learns its shards
		// through the adoption migrations below), and the stream resumes
		// at the newest mirrored cut.
		in.total = len(rs.Owner)
		in.owner = append([]int(nil), rs.Owner...)
		in.lastSeq = rs.NextSeq
		in.moveHorizon = rs.NextSeq
		in.suppressFloor = rs.Boundary
		for i, c := range conns {
			if err := c.Send(in.assignFrame(0, 0)); err != nil {
				return nil, fmt.Errorf("cluster: assigning successor worker %d: %w", i, err)
			}
			in.hosted[i] = make(map[int]bool)
		}
	} else {
		base := 0
		for i, c := range conns {
			if err := c.Send(in.assignFrame(base, in.nodeShards[i])); err != nil {
				return nil, fmt.Errorf("cluster: assigning node %d: %w", i, err)
			}
			in.hosted[i] = make(map[int]bool, in.nodeShards[i])
			for s := 0; s < in.nodeShards[i]; s++ {
				in.owner = append(in.owner, i)
				in.hosted[i][base+s] = true
			}
			base += in.nodeShards[i]
		}
	}
	in.bufs = make([][]event.Event, in.total)
	in.spare = make([][]event.Event, in.total)

	deliver := func(t shard.Tagged) {
		if opts.OnMatch != nil {
			opts.OnMatch(t.M)
		}
	}
	if opts.OnTagged != nil {
		deliver = opts.OnTagged
	}
	var progress func(uint64)
	if opts.Recovery != nil {
		rc := *opts.Recovery
		if rc.Window <= 0 {
			rc.Window = in.maxWindow()
		}
		in.rec = &rc
		if opts.Resume != nil {
			in.journal = opts.Resume.Journal
		} else {
			journal, err := recovery.NewJournal(recovery.JournalConfig{
				Window: rc.Window, Shards: in.total,
				SlackWindows: rc.SlackWindows,
				MaxBytes:     rc.MaxJournalBytes,
			})
			if err != nil {
				return nil, err
			}
			in.journal = journal
		}
		in.det = recovery.NewDetector(len(conns), rc.HeartbeatTimeout)
		progress = func(w uint64) { in.released.Store(w) }
	}
	if tap := opts.OnProgress; tap != nil {
		if inner := progress; inner != nil {
			progress = func(w uint64) { inner(w); tap(w) }
		} else {
			progress = tap
		}
	}
	// Cut-buffer recycling: on a serializing transport the Batch frame
	// is fully encoded onto the wire by the time Send returns, so a
	// cut's event buffer is reusable once its send has been barriered
	// (behind waitSends). The in-process pipe hands the slice to the
	// node by reference — stable for the run, never reused — and the
	// recovery journal retains cut history (and lets shards change
	// owner), so a pipe conn or a configured Recovery disables recycling
	// for the session.
	if in.rec == nil {
		in.recycle = make([]bool, in.total)
		for g, o := range in.owner {
			_, serializing := conns[o].(interface{ SetDecodeArena(*match.Arena) })
			in.recycle[g] = serializing
		}
	}
	in.col = shard.NewCollectorOwned(in.owner, deliver, progress)
	for i, c := range conns {
		done := make(chan struct{})
		in.readerDone[i] = done
		in.readers.Add(1)
		go in.read(i, c, 0, done)
	}
	if rs := opts.Resume; rs != nil {
		if err := in.takeoverAdopt(rs); err != nil {
			// Orderly teardown: close every session so the readers exit,
			// then drain the collector — the deferred sweep above would
			// leave both running.
			for _, c := range conns {
				c.Close()
			}
			in.readers.Wait()
			in.col.Close()
			built = true // connections already released
			return nil, err
		}
	}
	built = true
	return in, nil
}

// takeoverAdopt re-establishes every mirrored shard on its slot's fresh
// worker session: a Takeover frame announces the successor's epoch and
// suppress boundary, then each shard runs the standard adoption
// migration (reason "takeover") — replaying the mirrored journal with
// duplicates at or below the boundary suppressed on the worker. Runs
// once, at successor construction, before any ingest.
func (in *Ingress) takeoverAdopt(rs *ResumeState) error {
	tk := wire.Takeover{Epoch: in.epoch, Boundary: rs.Boundary}
	for i, c := range in.conns {
		if err := c.Send(tk); err != nil {
			return fmt.Errorf("cluster: takeover announce to worker %d: %w", i, err)
		}
		in.det.Sent(i)
	}
	for g, o := range in.owner {
		if o < 0 {
			continue
		}
		if err := in.migrateShard(g, o, "takeover", -1); err != nil {
			return err
		}
	}
	in.routeBroadcast()
	return nil
}

// maxWindow is the widest time window any hosted pattern can reach back
// — the journal-sizing horizon.
func (in *Ingress) maxWindow() event.Time {
	var w event.Time
	for _, sp := range in.specs {
		if sp.Pattern.Window > w {
			w = sp.Pattern.Window
		}
	}
	return w
}

// assignFrame builds the handshake reply for a session hosting shards
// [base, base+shards): the current pattern set plus the tenant budgets,
// sorted for a deterministic wire image. Ingress goroutine (reads
// in.specs).
func (in *Ingress) assignFrame(base, shards int) wire.Assign {
	a := wire.Assign{
		Base: uint32(base), Shards: uint32(shards), Total: uint32(in.total),
		Schema: in.schema, Epoch: in.epoch,
	}
	for _, sp := range in.specs {
		a.Patterns = append(a.Patterns, wire.PatternEntry{ID: sp.ID, Tenant: sp.Tenant, Pattern: sp.Pattern})
	}
	ids := make([]int, 0, len(in.tenants))
	for t := range in.tenants {
		ids = append(ids, int(t))
	}
	sort.Ints(ids)
	for _, t := range ids {
		a.Tenants = append(a.Tenants, wire.TenantBudgetEntry{Tenant: uint32(t), Budget: in.tenants[uint32(t)]})
	}
	return a
}

// dropRegen reports whether a match of pattern p tagged at seq is a
// replay artifact: a migration replays journaled history into a live
// session whose evaluators already host patterns added later, so a
// replayed cut can regenerate matches from events the pattern never saw
// in the original timeline. Every legitimate match of a runtime-added
// pattern is triggered by an event after its add boundary, so matches
// at or below the boundary are dropped. Reader goroutines.
func (in *Ingress) dropRegen(p uint32, seq uint64) bool {
	m := in.addCut.Load()
	if m == nil {
		return false
	}
	born, ok := (*m)[p]
	return ok && seq <= born
}

// metricsDone reports whether slot i delivered its final metrics (the
// clean-exit marker), synchronized with the reader that records them.
func (in *Ingress) metricsDone(i int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.gotMetrics[i]
}

// read is node slot i's reader goroutine (generation gen): it buffers
// tagged matches and posts them to the merge collector together with
// each completion watermark, applies migration acknowledgements,
// stores the node's load snapshots and final metrics, and on failure
// either queues a suspect for failover (recovery configured, posting
// nothing — the slot will be re-registered) or posts a terminal
// watermark so the merge never deadlocks on a dead node.
func (in *Ingress) read(i int, c Conn, gen int, done chan struct{}) {
	defer func() { // runs last: done is closed by the time the drain wakes
		select {
		case in.exitCh <- struct{}{}:
		default:
		}
	}()
	defer close(done)
	defer in.readers.Done()
	var pend []shard.Tagged
	for {
		f, err := c.Recv()
		if err != nil {
			clean := err == io.EOF && in.metricsDone(i)
			if in.rec != nil && !clean {
				in.suspect(i, gen, fmt.Errorf("cluster: node %d stream: %w", i, err))
				return
			}
			if !clean {
				in.recordErr(fmt.Errorf("cluster: node %d stream: %w", i, err))
			}
			in.col.Post(i, maxSeq, pend)
			return
		}
		in.det.Heard(i)
		switch v := f.(type) {
		case wire.TaggedMatch:
			if in.dropRegen(v.Pattern, v.Seq) {
				break
			}
			pend = append(pend, shard.Tagged{M: v.M, Seq: v.Seq, Src: int(v.Shard), Pattern: v.Pattern})
		case wire.TaggedMatchRaw:
			// Owned-emit match over a reference transport (the pipe): the
			// body is the worker's pre-encoded outbox slice; decode it
			// here. A serializing transport never delivers this frame —
			// its codec reads the identical bytes back as a TaggedMatch.
			if in.dropRegen(v.Pattern, v.Seq) {
				break
			}
			m, derr := wire.DecodeMatchBody(v.Body)
			if derr != nil {
				err := fmt.Errorf("cluster: node %d match body: %w", i, derr)
				if in.rec != nil {
					in.suspect(i, gen, err)
					return
				}
				in.recordErr(err)
				in.col.Post(i, maxSeq, pend)
				return
			}
			pend = append(pend, shard.Tagged{M: m, Seq: v.Seq, Src: int(v.Shard), Pattern: v.Pattern})
		case wire.Watermark:
			in.col.Post(i, v.UpTo, pend)
			pend = nil
		case wire.Heartbeat:
			// Liveness only (recorded above).
		case wire.MigrateAck:
			// The destination caught up to a migration's replay horizon.
			// Flush buffered matches first (watermark 0 never advances a
			// mark) so unfreezing cannot release past a match still
			// sitting in this reader's buffer.
			if len(pend) > 0 {
				in.col.Post(i, 0, pend)
				pend = nil
			}
			in.col.Complete(i, int(v.Shard), v.UpTo)
			in.migrationAcked(i, int(v.Shard))
		case wire.ShardStats:
			in.mu.Lock()
			in.stats[i] = v.Stats
			in.mu.Unlock()
		case wire.Metrics:
			// The session's one report: fold it into the per-slot,
			// per-pattern and per-tenant views.
			in.mu.Lock()
			in.nodeMetrics[i] = v.M
			for _, pm := range v.Patterns {
				agg := in.patMetrics[pm.ID]
				agg.Merge(pm.M)
				in.patMetrics[pm.ID] = agg
			}
			for _, ts := range v.Tenants {
				agg := in.tenantAgg[ts.Tenant]
				agg.Tenant = ts.Tenant
				agg.Admitted += ts.Admitted
				agg.Shed += ts.Shed
				in.tenantAgg[ts.Tenant] = agg
			}
			in.gotMetrics[i] = true
			in.mu.Unlock()
		default:
			err := fmt.Errorf("cluster: node %d sent unexpected %s frame", i, wire.KindOf(f))
			if in.rec != nil {
				in.suspect(i, gen, err)
				return
			}
			in.recordErr(err)
			in.col.Post(i, maxSeq, pend)
			return
		}
	}
}

// kill records a node's transport failure and closes its connection
// immediately: the node then observes end-of-input and drains instead of
// waiting for cuts that will never come, and the node's reader
// goroutine observes the close and posts its terminal watermark — either
// way the cluster finishes instead of deadlocking on a dead link.
func (in *Ingress) kill(n int, err error) {
	in.recordErr(err)
	in.dead[n] = true
	in.conns[n].Close()
}

func (in *Ingress) recordErr(err error) {
	in.mu.Lock()
	if in.err == nil {
		in.err = err
	}
	in.mu.Unlock()
}

// Err reports the first transport or protocol error observed (nil while
// healthy). Finish returns the same error.
func (in *Ingress) Err() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.err
}

// Process routes one event to its shard. Events must arrive in
// non-decreasing timestamp order with unique, increasing Seq numbers
// (the same contract as the engines underneath).
func (in *Ingress) Process(ev *event.Event) {
	if in.finished {
		panic("cluster: Process after Finish")
	}
	g := shard.GlobalIndex(in.key(ev), in.total)
	in.bufs[g] = append(in.bufs[g], *ev)
	in.lastSeq = ev.Seq
	in.pending++
	if in.pending >= in.batch {
		in.cutAll()
	}
}

// cutAll seals the current cut: the previous cut's pipelined sends are
// barriered first and their failures — together with pending reader
// suspects — handled (so a failover's replay ends at the previous cut
// and this one rides the normal send), the placement controller gets a
// chance to move a shard, the cut is journaled per shard when recovery
// is on, and then every live node's frames — one Batch per owned shard
// with accumulated events, or a bare one carrying just the global
// watermark — are encoded and sent by a per-node goroutine while the
// coordinator goes back to ingesting. A send failure surfaces at the
// next barrier and fails over there; the successor receives the
// journaled cuts through replay.
func (in *Ingress) cutAll() {
	in.waitSends()
	in.checkSuspects()
	in.rebalance()
	if in.journal != nil {
		in.journal.Advance(in.released.Load())
		in.journal.Append(in.bufs, in.lastSeq)
	}
	if in.onCut != nil {
		// Replication tap: behind the barrier (routing settled for this
		// cut, the previous cut fully sent) and after journaling, so what
		// the standby mirrors is exactly what a failover would replay.
		in.onCut(CutInfo{
			UpTo: in.lastSeq, Final: in.finished,
			Bufs: in.bufs, Owner: in.owner, Addrs: in.addrs,
		})
	}
	upTo := in.lastSeq
	for n := range in.outs {
		in.outs[n] = in.outs[n][:0]
	}
	for g := range in.bufs {
		evs := in.bufs[g]
		in.bufs[g] = nil
		if in.recycle != nil && in.recycle[g] {
			// Hand the next cut the previous cut's buffer (its send
			// completed at the barrier above) and queue this one.
			in.bufs[g] = in.spare[g][:0]
			in.spare[g] = evs
		}
		o := in.owner[g]
		if o < 0 || in.dead[o] || in.drained[o] || len(evs) == 0 {
			continue
		}
		in.outs[o] = append(in.outs[o], evs)
	}
	for n, c := range in.conns {
		if in.dead[n] || in.drained[n] {
			continue
		}
		in.det.Sent(n)
		in.sendWG.Add(1)
		go func(n int, c Conn, slices [][]event.Event) {
			defer in.sendWG.Done()
			// Events-only frames (UpTo 0), one per owned shard with
			// traffic, then the cut's single watermark frame: the node
			// reassembles the runs into seq order and seals its cut only
			// when the watermark arrives, so a cut split across shards
			// can never publish a watermark ahead of its own events.
			for _, evs := range slices {
				if err := c.Send(wire.Batch{Events: evs}); err != nil {
					in.sendErr[n] = err
					return
				}
			}
			if err := c.Send(wire.Batch{UpTo: upTo}); err != nil {
				in.sendErr[n] = err
			}
		}(n, c, in.outs[n])
	}
	in.pending = 0
}

// waitSends is the pipeline barrier: it blocks until the in-flight cut's
// sends complete and routes any send failure into the failover (or
// record-and-drain) path. All connection and routing mutation — close,
// replace, migrate, replay — happens behind this barrier, which is what
// keeps per-node frame order and the one-writer-per-connection
// discipline intact.
func (in *Ingress) waitSends() {
	in.sendWG.Wait()
	for n, err := range in.sendErr {
		if err == nil {
			continue
		}
		in.sendErr[n] = nil
		if !in.dead[n] {
			in.fail(n, fmt.Errorf("cluster: sending cut to node %d: %w", n, err))
		}
	}
}

// ownedShards lists the global shards currently owned by slot n.
// Ingress goroutine only.
func (in *Ingress) ownedShards(n int) []int {
	var owned []int
	for g, o := range in.owner {
		if o == n {
			owned = append(owned, g)
		}
	}
	return owned
}

// migrateShard is the one primitive every routing change is built from:
// it freezes shard g at the merge collector (capturing the release
// boundary), flips its owner to slot `to`, ships the Migrate frame with
// the suppress boundary and replay horizon, and replays g's journaled
// history to the destination. Failover, rebalance, scale-out handoff
// and drain are all callers. Must run on the ingress goroutine behind
// the send barrier; fidx >= 0 folds the move into that failover record.
// On error the destination is in an unknown state — the caller routes
// it into the failure path (and aborted in-flight records are dropped
// there).
func (in *Ingress) migrateShard(g, to int, reason string, fidx int) error {
	if in.hosted[to][g] {
		return fmt.Errorf("cluster: node %d already hosted shard %d this session; migrating it back would double-process", to, g)
	}
	if err := in.journal.CoveredShard(g); err != nil {
		return err
	}
	from := in.owner[g]
	boundary := in.col.Migrate(g, to)
	if boundary < in.suppressFloor {
		// Takeover successor: the fresh collector's release frontier is
		// zero, but the mirrored emission watermark proves everything at
		// or below it already delivered by the old primary.
		boundary = in.suppressFloor
	}
	in.owner[g] = to
	in.hosted[to][g] = true
	// Every move invalidates the fleet's load picture: reports stamped
	// before this cut describe the pre-move distribution, and the
	// placement controller must not act on them (see rebalance).
	in.moveHorizon = in.lastSeq
	replayUpTo := in.journal.ReplayUpToShard(g)
	// Register the record before the replay: the destination's ack races
	// with the tail of the replay loop, and an ack that finds no record
	// would leave the migration in flight forever.
	in.mu.Lock()
	in.migrations = append(in.migrations, recovery.Migration{
		Shard: g, From: from, To: to, Reason: reason,
		StartedAt: time.Now(), SuppressUpTo: boundary, ReplayUpTo: replayUpTo,
	})
	in.migFailover = append(in.migFailover, fidx)
	idx := len(in.migrations) - 1
	if fidx >= 0 {
		f := &in.failovers[fidx]
		f.Shards++
		if boundary > f.SuppressUpTo {
			f.SuppressUpTo = boundary
		}
		if replayUpTo > f.ReplayUpTo {
			f.ReplayUpTo = replayUpTo
		}
	}
	in.mu.Unlock()
	c := in.conns[to]
	in.det.Sent(to)
	if err := c.Send(wire.Migrate{Shard: uint32(g), SuppressUpTo: boundary, ReplayUpTo: replayUpTo}); err != nil {
		return fmt.Errorf("cluster: migrating shard %d to node %d: %w", g, to, err)
	}
	var cuts, events int
	var bytes int64
	rerr := in.journal.ReplayShard(g, func(evs []event.Event, upTo uint64) error {
		in.det.Sent(to)
		if err := c.Send(wire.Batch{UpTo: upTo, Events: evs}); err != nil {
			return err
		}
		cuts++
		events += len(evs)
		bytes += recovery.EventsBytes(evs)
		return nil
	})
	in.mu.Lock()
	m := &in.migrations[idx]
	m.ReplayCuts, m.ReplayEvents, m.ReplayBytes = cuts, events, bytes
	if fidx >= 0 {
		f := &in.failovers[fidx]
		f.ReplayCuts += cuts
		f.ReplayEvents += events
		f.ReplayBytes += bytes
	}
	in.mu.Unlock()
	if rerr != nil {
		return fmt.Errorf("cluster: replaying shard %d to node %d: %w", g, to, rerr)
	}
	return nil
}

// routeBroadcast ships the current shard->slot owner table to every
// live node still in session (abandoned shards carry ^uint32(0); a node
// already handed its Finish frame has drained and may have closed its
// end — a frame written at it would be answered with a reset that its
// reader can see before the clean end of stream, turning a finished
// node into a failover during the Finish drain). Advisory for the
// nodes — ownership semantics ride the Migrate frames — but it keeps
// every member's picture of the routing current. Ingress goroutine,
// behind the barrier; a send failure is parked in sendErr and handled
// at the next waitSends.
func (in *Ingress) routeBroadcast() {
	route := wire.ShardRoute{Owner: make([]uint32, len(in.owner))}
	for g, o := range in.owner {
		if o < 0 {
			route.Owner[g] = ^uint32(0)
		} else {
			route.Owner[g] = uint32(o)
		}
	}
	for n, c := range in.conns {
		if in.dead[n] || in.drained[n] || in.finSent[n] {
			continue
		}
		if err := c.Send(route); err != nil {
			if in.sendErr[n] == nil {
				in.sendErr[n] = err
			}
			continue
		}
		in.det.Sent(n)
	}
}

// migrationAcked stamps the youngest in-flight migration of shard g to
// slot n complete, and — when the move belonged to a failover — counts
// it toward the failover's recovery, stamping RecoveredAt when the
// last migrated shard has acknowledged. Reader goroutines.
func (in *Ingress) migrationAcked(n, g int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := len(in.migrations) - 1; i >= 0; i-- {
		m := &in.migrations[i]
		if m.Shard != g || m.To != n || !m.CompletedAt.IsZero() {
			continue
		}
		m.CompletedAt = time.Now()
		if fi := in.migFailover[i]; fi >= 0 {
			in.facked[fi]++
			if in.facked[fi] >= in.failovers[fi].Shards {
				// The final ack wins: an adoption retry resets the
				// aggregates and this overwrites any premature stamp.
				in.failovers[fi].RecoveredAt = time.Now()
			}
		}
		return
	}
}

// rebalance is the placement controller, run once per cut behind the
// barrier: when the hottest node's max owned-shard queue-wait p99
// exceeds both the absolute floor and HotRatio times the coolest
// node's, the hottest node's busiest shard migrates to the coolest
// node. Hysteresis plus the cut cooldown (and never moving while any
// migration is still in flight) keep it from thrashing.
func (in *Ingress) rebalance() {
	if in.journal == nil || in.elastic == nil || !in.elastic.Rebalance {
		return
	}
	in.cutsSinceMove++
	if in.cutsSinceMove < in.elastic.CooldownCuts {
		return
	}
	waits := make([]time.Duration, in.total)
	events := make([]uint64, in.total)
	// A report also goes stale by age alone: stats ride the nodes'
	// upstream frame flow, so a node that stops reporting (wedged, or
	// about to be declared dead) leaves numbers describing a
	// distribution many cuts old next to its peers' current ones.
	// Discount any report whose cut stamp trails the freshest report by
	// more than one controller period (floored at two reporting
	// intervals so a report is never discarded just for riding the
	// statsEveryCuts cadence). The reference is the newest *report*, not
	// the ingest frontier: nothing paces Process against worker
	// progress, so all reports trail in.lastSeq by an unbounded, shared
	// lag — what marks one stale is falling behind its peers.
	staleCuts := in.elastic.CooldownCuts
	if staleCuts < 2*statsEveryCuts {
		staleCuts = 2 * statsEveryCuts
	}
	ageHorizon := uint64(staleCuts * in.batch)
	in.mu.Lock()
	for _, m := range in.migrations {
		if m.CompletedAt.IsZero() {
			in.mu.Unlock()
			return
		}
	}
	var freshest uint64
	for n, ss := range in.stats {
		for _, s := range ss {
			g := int(s.Shard)
			if g >= 0 && g < in.total && in.owner[g] == n && s.Cut > freshest {
				freshest = s.Cut
			}
		}
	}
	for n, ss := range in.stats {
		for _, s := range ss {
			g := int(s.Shard)
			if g < 0 || g >= in.total || in.owner[g] != n {
				continue // stale: reported by a slot that no longer owns g
			}
			// Reports stamped before the cooldown horizon — the cut at
			// which the last move happened — describe a load distribution
			// that move already reshaped; acting on them would ping-pong
			// the same shard. Wait for numbers from after the move.
			if s.Cut < in.moveHorizon {
				continue
			}
			if s.Cut+ageHorizon < freshest {
				continue // older than one controller period: stale reporter
			}
			waits[g] = time.Duration(s.P99Nanos)
			events[g] = s.Events
		}
	}
	in.mu.Unlock()
	ownedCount := make([]int, len(in.conns))
	for _, o := range in.owner {
		if o >= 0 {
			ownedCount[o]++
		}
	}
	hot, cold := -1, -1
	var hotLoad, coldLoad time.Duration
	for n := range in.conns {
		if in.dead[n] || in.drained[n] || in.abandoned[n] {
			continue
		}
		var load time.Duration
		for g, o := range in.owner {
			if o == n && waits[g] > load {
				load = waits[g]
			}
		}
		if hot < 0 || load > hotLoad {
			hot, hotLoad = n, load
		}
		if cold < 0 || load < coldLoad {
			cold, coldLoad = n, load
		}
	}
	if hot < 0 || cold < 0 || hot == cold {
		return
	}
	if hotLoad <= in.elastic.MinWaitP99 {
		return
	}
	if float64(hotLoad) <= in.elastic.HotRatio*float64(coldLoad) {
		return
	}
	// Never empty the hot node unless the cold one has nothing: moving a
	// sole shard between two busy nodes just relocates the hotspot.
	if ownedCount[hot] < 2 && ownedCount[cold] != 0 {
		return
	}
	pick := -1
	var pickEv uint64
	for g, o := range in.owner {
		if o != hot || in.hosted[cold][g] {
			continue
		}
		if in.journal.CoveredShard(g) != nil {
			continue
		}
		if pick < 0 || events[g] > pickEv {
			pick, pickEv = g, events[g]
		}
	}
	if pick < 0 {
		return
	}
	reason := "rebalance"
	if ownedCount[cold] == 0 {
		reason = "join"
	}
	if err := in.migrateShard(pick, cold, reason, -1); err != nil {
		if in.sendErr[cold] == nil {
			in.sendErr[cold] = err
		}
	} else {
		in.routeBroadcast()
	}
	in.cutsSinceMove = 0
}

// AddNode admits a freshly dialed node into the running cluster: it
// runs the hello/assign handshake (the node joins with zero shards and
// a total-sized engine), registers the new slot's reader and heartbeat
// clock, and returns the slot index. The placement controller (or an
// explicit MigrateShard) hands it work. Requires Recovery; must be
// called from the Process goroutine. The connection is closed on error.
func (in *Ingress) AddNode(c Conn) (int, error) {
	if in.finished {
		c.Close()
		return -1, fmt.Errorf("cluster: AddNode after Finish")
	}
	if in.rec == nil {
		c.Close()
		return -1, fmt.Errorf("cluster: AddNode requires Recovery (the journal feeds shard handoff)")
	}
	in.waitSends()
	f, err := c.Recv()
	if err != nil {
		c.Close()
		return -1, fmt.Errorf("cluster: joining node hello: %w", err)
	}
	h, ok := f.(wire.Hello)
	if !ok {
		c.Close()
		return -1, fmt.Errorf("cluster: joining node sent %s, want hello", wire.KindOf(f))
	}
	if h.Version != wire.Version {
		c.Close()
		return -1, fmt.Errorf("cluster: joining node speaks protocol v%d, ingress v%d", h.Version, wire.Version)
	}
	if h.PatternSig != 0 && h.PatternSig != in.sig {
		c.Close()
		return -1, fmt.Errorf("cluster: joining node serves a different pattern or schema (fingerprint %x, want %x)", h.PatternSig, in.sig)
	}
	if err := c.Send(in.assignFrame(0, 0)); err != nil {
		c.Close()
		return -1, fmt.Errorf("cluster: assigning joining node: %w", err)
	}
	// Ghost-slot compaction: a drained slot whose session has fully
	// ended (reader exited, final metrics recorded) is a ghost — it owns
	// nothing and will never speak again. Reuse the oldest one for the
	// joining node instead of growing every per-slot array, so a
	// long-running cluster's join/drain churn doesn't leak slots. The
	// retired session's metrics move to the retired accumulator first,
	// keeping the cluster-wide Metrics sum intact.
	slot := -1
	for m := range in.conns {
		if !in.drained[m] || in.dead[m] || in.abandoned[m] {
			continue
		}
		select {
		case <-in.readerDone[m]:
		default:
			continue // session still draining
		}
		if !in.metricsDone(m) {
			continue
		}
		slot = m
		break
	}
	if slot >= 0 {
		in.conns[slot] = c
		in.sendErr[slot] = nil
		in.dead[slot] = false
		in.drained[slot] = false
		in.finSent[slot] = false
		in.nodeShards[slot] = 0
		in.hosted[slot] = map[int]bool{} // a fresh session has hosted nothing
		in.outs[slot] = nil
		in.addrs[slot] = connAddr(c)
		done := make(chan struct{})
		in.readerDone[slot] = done
		in.mu.Lock()
		in.gen[slot]++
		gen := in.gen[slot]
		in.retired.Merge(in.nodeMetrics[slot])
		in.nodeMetrics[slot] = engine.Metrics{}
		in.gotMetrics[slot] = false
		in.stats[slot] = nil
		in.mu.Unlock()
		in.det.Heard(slot)
		in.readers.Add(1)
		go in.read(slot, c, gen, done)
		return slot, nil
	}
	n := len(in.conns)
	in.conns = append(in.conns, c)
	in.sendErr = append(in.sendErr, nil)
	in.dead = append(in.dead, false)
	in.drained = append(in.drained, false)
	in.abandoned = append(in.abandoned, false)
	in.nodeShards = append(in.nodeShards, 0)
	in.finSent = append(in.finSent, false)
	in.hosted = append(in.hosted, map[int]bool{})
	in.outs = append(in.outs, nil)
	in.addrs = append(in.addrs, connAddr(c))
	done := make(chan struct{})
	in.readerDone = append(in.readerDone, done)
	in.mu.Lock()
	in.gen = append(in.gen, 0)
	in.nodeMetrics = append(in.nodeMetrics, engine.Metrics{})
	in.gotMetrics = append(in.gotMetrics, false)
	in.stats = append(in.stats, nil)
	in.mu.Unlock()
	in.det.Grow()
	in.readers.Add(1)
	go in.read(n, c, 0, done)
	return n, nil
}

// Drain gracefully empties node slot n: every shard it owns migrates
// to a live peer (round-robin, skipping peers whose session already
// hosted the shard), then the node gets its Finish frame and reports
// final metrics while the rest of the cluster keeps running. Requires
// Recovery; must be called from the Process goroutine.
func (in *Ingress) Drain(n int) error {
	if in.finished {
		return fmt.Errorf("cluster: Drain after Finish")
	}
	if in.rec == nil {
		return fmt.Errorf("cluster: Drain requires Recovery (migrations replay from the journal)")
	}
	if n < 0 || n >= len(in.conns) {
		return fmt.Errorf("cluster: Drain: no node slot %d", n)
	}
	in.waitSends()
	in.checkSuspects()
	if in.dead[n] {
		return fmt.Errorf("cluster: Drain: node %d is dead", n)
	}
	if in.drained[n] {
		return fmt.Errorf("cluster: Drain: node %d already drained", n)
	}
	owned := in.ownedShards(n)
	var targets []int
	for m := range in.conns {
		if m != n && !in.dead[m] && !in.drained[m] && !in.abandoned[m] {
			targets = append(targets, m)
		}
	}
	if len(owned) > 0 && len(targets) == 0 {
		return fmt.Errorf("cluster: draining node %d: no live node can take its shards", n)
	}
	ti := 0
	for _, g := range owned {
		pick := -1
		for k := 0; k < len(targets); k++ {
			t := targets[(ti+k)%len(targets)]
			if !in.hosted[t][g] {
				pick = t
				ti = (ti + k + 1) % len(targets)
				break
			}
		}
		if pick < 0 {
			return fmt.Errorf("cluster: draining node %d: every live node already hosted shard %d this session", n, g)
		}
		if err := in.migrateShard(g, pick, "drain", -1); err != nil {
			if in.sendErr[pick] == nil {
				in.sendErr[pick] = err
			}
			return err
		}
	}
	if len(owned) > 0 {
		in.routeBroadcast()
	}
	if err := in.conns[n].Send(wire.Finish{}); err != nil {
		// The shards are already safe on their new owners; the node's
		// death at this point is a benign failover.
		in.fail(n, fmt.Errorf("cluster: finishing drained node %d: %w", n, err))
		return nil
	}
	in.det.Sent(n)
	in.finSent[n] = true
	in.drained[n] = true
	in.addrs[n] = "" // the slot no longer lives anywhere dialable
	// The ghost slot's last load report is history now — drop it so
	// NodeStats and the placement controller never see it again.
	in.mu.Lock()
	in.stats[n] = nil
	in.mu.Unlock()
	return nil
}

// RemoveNode scales the cluster in — the symmetric inverse of AddNode,
// in one call: it drains slot n (every owned shard migrates to a live
// peer), waits for the drained session to report its final metrics and
// end, folds those metrics into the retired accumulator, closes the
// connection — which returns a pooled standby address to circulation
// for later adoptions and joins — and compacts the slot into an
// immediately reusable ghost. Requires Recovery; must be called from
// the Process goroutine.
func (in *Ingress) RemoveNode(n int) error {
	if err := in.Drain(n); err != nil {
		return err
	}
	// The drained session ends on its own clock: it owns nothing, but
	// its engines still flush and its reader must record the final
	// metrics before the slot can be compacted. The wait cannot starve —
	// draining needs no further ingress sends, and the merge collector
	// runs on its own goroutine.
	<-in.readerDone[n]
	in.conns[n].Close()
	in.mu.Lock()
	if in.gotMetrics[n] {
		// Fold the retired session's counters now so the slot's metrics
		// slate is clean for reuse; gotMetrics stays set — it is the
		// clean-end marker ghost-slot compaction keys on.
		in.retired.Merge(in.nodeMetrics[n])
		in.nodeMetrics[n] = engine.Metrics{}
	}
	in.stats[n] = nil
	in.mu.Unlock()
	in.nodeShards[n] = 0
	in.outs[n] = nil
	return nil
}

// connAddr reports a connection's dialable remote address ("" when the
// transport does not expose one — the in-process pipe).
func connAddr(c Conn) string {
	if ra, ok := c.(interface{ RemoteAddr() string }); ok {
		return ra.RemoteAddr()
	}
	return ""
}

// MigrateShard moves one shard to node slot `to` on demand — the
// manual override of the placement controller. Requires Recovery; must
// be called from the Process goroutine.
func (in *Ingress) MigrateShard(g, to int) error {
	if in.finished {
		return fmt.Errorf("cluster: MigrateShard after Finish")
	}
	if in.journal == nil {
		return fmt.Errorf("cluster: MigrateShard requires Recovery (migrations replay from the journal)")
	}
	if g < 0 || g >= in.total {
		return fmt.Errorf("cluster: MigrateShard: no shard %d", g)
	}
	if to < 0 || to >= len(in.conns) {
		return fmt.Errorf("cluster: MigrateShard: no node slot %d", to)
	}
	in.waitSends()
	in.checkSuspects()
	if in.dead[to] || in.drained[to] || in.abandoned[to] {
		return fmt.Errorf("cluster: MigrateShard: node %d cannot take shards", to)
	}
	if in.owner[g] == to {
		return fmt.Errorf("cluster: MigrateShard: node %d already owns shard %d", to, g)
	}
	reason := "rebalance"
	if len(in.ownedShards(to)) == 0 {
		reason = "join"
	}
	if err := in.migrateShard(g, to, reason, -1); err != nil {
		if in.sendErr[to] == nil {
			in.sendErr[to] = err
		}
		return err
	}
	in.routeBroadcast()
	return nil
}

// AddPattern registers one more pattern on a running cluster. The
// in-progress cut is sealed first, so the mutation lands
// on a clean cut boundary on every node: events already ingested stay
// ahead of the new pattern and events after this call are the first it
// sees. The spec joins the shipped set — future joins, adoptions and
// failover replays host it — and matches a migration replay regenerates
// from history before the boundary are filtered at the merge, so the
// delivered stream for the new pattern is exactly what a cluster that
// had hosted it from this boundary onward would produce. The spec's
// Config is ignored (each node applies its own engine configuration).
// Must be called from the Process goroutine.
func (in *Ingress) AddPattern(sp multi.Spec) error {
	if in.finished {
		return fmt.Errorf("cluster: AddPattern after Finish")
	}
	for _, have := range in.specs {
		if have.ID == sp.ID {
			return fmt.Errorf("cluster: pattern id %d already registered", sp.ID)
		}
	}
	// Prevalidate here so a bad spec is one error return, not a poisoned
	// session on every node.
	if _, err := multi.Analyze([]multi.Spec{sp}, in.schema); err != nil {
		return err
	}
	if in.keyAttr != "" {
		if err := shard.Partitionable(sp.Pattern, in.schema, in.keyAttr); err != nil {
			return err
		}
	}
	if in.pending > 0 {
		in.cutAll()
	}
	in.waitSends()
	in.checkSuspects()
	in.specs = append(in.specs, sp)
	in.sig = signature(in.specs, in.schema)
	// Publish the add boundary before any node can emit for the new
	// pattern: the reader-side replay filter must be in place first.
	next := map[uint32]uint64{sp.ID: in.lastSeq}
	if old := in.addCut.Load(); old != nil {
		for id, cut := range *old {
			next[id] = cut
		}
	}
	in.addCut.Store(&next)
	entry := wire.PatternEntry{ID: sp.ID, Tenant: sp.Tenant, Pattern: sp.Pattern}
	for n, c := range in.conns {
		if in.dead[n] || in.drained[n] {
			continue
		}
		if err := c.Send(wire.PatternAdd{Entry: entry}); err != nil {
			// Parked like any cut-send failure: the next barrier fails the
			// node over, and its successor adopts the updated set.
			if in.sendErr[n] == nil {
				in.sendErr[n] = err
			}
			continue
		}
		in.det.Sent(n)
	}
	return nil
}

// RemovePattern retires a pattern cluster-wide at the next cut
// boundary: its evaluation state is dropped on every node and no
// further matches of it are delivered. Removal is a deliberate
// stop-caring operation — matches the pattern produced before the
// boundary but not yet delivered still drain normally, but if a shard
// later migrates or fails over, undelivered matches of the retired
// pattern inside the replayed span are not regenerated (the successor
// no longer hosts it). The last live pattern cannot be removed. Must be
// called from the Process goroutine.
func (in *Ingress) RemovePattern(id uint32) error {
	if in.finished {
		return fmt.Errorf("cluster: RemovePattern after Finish")
	}
	at := -1
	for i, sp := range in.specs {
		if sp.ID == id {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("cluster: no pattern %d registered", id)
	}
	if len(in.specs) == 1 {
		return fmt.Errorf("cluster: cannot remove the last pattern (joins and adoptions need a live set)")
	}
	if in.pending > 0 {
		in.cutAll()
	}
	in.waitSends()
	in.checkSuspects()
	in.specs = append(in.specs[:at:at], in.specs[at+1:]...)
	in.sig = signature(in.specs, in.schema)
	for n, c := range in.conns {
		if in.dead[n] || in.drained[n] {
			continue
		}
		if err := c.Send(wire.PatternRemove{ID: id}); err != nil {
			if in.sendErr[n] == nil {
				in.sendErr[n] = err
			}
			continue
		}
		in.det.Sent(n)
	}
	return nil
}

// Patterns snapshots the current pattern set. Process goroutine.
func (in *Ingress) Patterns() []multi.Spec {
	return append([]multi.Spec(nil), in.specs...)
}

// PatternMetrics merges every node's per-pattern engine counters,
// ascending by pattern id. Patterns removed before Finish stop reporting
// and are absent. Call after Finish.
func (in *Ingress) PatternMetrics() []multi.PatternMetrics {
	tenant := make(map[uint32]uint32, len(in.specs))
	for _, sp := range in.specs {
		tenant[sp.ID] = sp.Tenant
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	ids := make([]int, 0, len(in.patMetrics))
	for id := range in.patMetrics {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]multi.PatternMetrics, 0, len(ids))
	for _, id := range ids {
		out = append(out, multi.PatternMetrics{
			ID: uint32(id), Tenant: tenant[uint32(id)], M: in.patMetrics[uint32(id)],
		})
	}
	return out
}

// TenantStats merges the per-tenant admission accounting reported by
// every node, sorted by tenant id. Call after Finish.
func (in *Ingress) TenantStats() []shed.TenantStat {
	in.mu.Lock()
	defer in.mu.Unlock()
	ids := make([]int, 0, len(in.tenantAgg))
	for t := range in.tenantAgg {
		ids = append(ids, int(t))
	}
	sort.Ints(ids)
	out := make([]shed.TenantStat, 0, len(ids))
	for _, t := range ids {
		out = append(out, in.tenantAgg[uint32(t)])
	}
	return out
}

// Migrations reports every shard move so far (completed and in
// flight), oldest first.
func (in *Ingress) Migrations() []recovery.Migration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]recovery.Migration(nil), in.migrations...)
}

// Owners snapshots the shard->slot routing table (-1: abandoned).
// Process goroutine.
func (in *Ingress) Owners() []int {
	return append([]int(nil), in.owner...)
}

// NodeStats snapshots the latest per-shard load report of every node
// slot (nil for a slot that has not reported yet — a dead node, or one
// whose shards have seen no traffic). This is the placement
// controller's input, exposed so operators and benchmarks can observe
// when load telemetry has actually arrived: stats ride the node's
// upstream frame flow, so a coordinator far ahead of its workers sees
// them lag.
func (in *Ingress) NodeStats() [][]wire.ShardStat {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([][]wire.ShardStat, len(in.stats))
	for i, ss := range in.stats {
		if len(ss) > 0 {
			out[i] = append([]wire.ShardStat(nil), ss...)
		}
	}
	return out
}

// finishNodes delivers the Finish frame to every live node that has not
// received one, failing over (and retrying the successor) on send
// errors. Terminates because every failed attempt either consumes a
// standby or degrades the slot.
func (in *Ingress) finishNodes() {
	for again := true; again; {
		again = false
		for n, c := range in.conns {
			if in.dead[n] || in.finSent[n] {
				continue
			}
			if err := c.Send(wire.Finish{}); err != nil {
				in.fail(n, fmt.Errorf("cluster: finishing node %d: %w", n, err))
				again = true
				continue
			}
			in.det.Sent(n)
			in.finSent[n] = true
		}
	}
}

// Finish flushes the final partial cut, tells every node to finish,
// waits until every node's matches have been merged and delivered, and
// closes the connections. With recovery configured, nodes that die
// during the drain still fail over: their successors replay, finish and
// deliver the missing tail before the merge closes. It returns the
// first unrecovered error observed anywhere in the cluster session (nil
// for a clean or fully recovered run). Idempotent.
func (in *Ingress) Finish() error {
	if in.finished {
		return in.Err()
	}
	in.finished = true
	in.cutAll()
	// Barrier the final cut's pipelined sends before the Finish frames:
	// per-node ordering requires the last Batch to hit the wire first,
	// and a send failure must fail over before the drain begins.
	in.waitSends()
	in.finishNodes()
	if in.rec == nil {
		in.readers.Wait()
	} else {
		in.drainRecovered()
	}
	in.col.Close()
	for _, c := range in.conns {
		c.Close()
	}
	return in.Err()
}

// Kill abandons the ingress as if its process died: every connection
// closes without Finish frames or a drain, the readers exit without
// posting, and the merge collector shuts down delivering nothing
// further downstream (the HA layer freezes its emission gate first).
// Worker sessions observe the closed links and discard their state —
// takeover re-establishes them fresh. Must be called from the Process
// goroutine; idempotent with Finish.
func (in *Ingress) Kill() {
	if in.finished {
		return
	}
	in.finished = true
	for _, c := range in.conns {
		c.Close()
	}
	in.sendWG.Wait()
	in.readers.Wait()
	in.col.Close()
}

// Nodes reports the node slot count (live, drained and dead slots
// included).
func (in *Ingress) Nodes() int { return len(in.conns) }

// TotalShards reports the global shard count across all nodes.
func (in *Ingress) TotalShards() int { return in.total }

// Metrics merges every node's engine metrics into one cluster-wide view.
// Call after Finish.
func (in *Ingress) Metrics() engine.Metrics {
	in.mu.Lock()
	defer in.mu.Unlock()
	var m engine.Metrics
	m.Merge(in.retired)
	for i := range in.nodeMetrics {
		if in.gotMetrics[i] {
			m.Merge(in.nodeMetrics[i])
		}
	}
	return m
}

// NodeMetrics is the per-node breakdown behind Metrics (zero-valued for
// nodes that failed before reporting). Call after Finish.
func (in *Ingress) NodeMetrics() []engine.Metrics {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]engine.Metrics, len(in.nodeMetrics))
	copy(out, in.nodeMetrics)
	return out
}

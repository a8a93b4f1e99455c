package cluster

import (
	"fmt"
	"maps"
	"slices"
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

// CutInfo is one sealed cut as observed by RecoveryConfig.OnCut: the
// global watermark, the encoded run of every shard that had events in
// the cut, and the routing truth at seal time. The Runs and Owner slices
// are ingress-owned scratch, valid only during the call — a replicator
// copies them before returning. The run bodies are the bytes the journal
// retains, immutable from here on (each capped at its length: they are
// carved one after another from the ingress's chunks). Addrs is an
// immutable snapshot, the same slice from cut to cut until the fleet or
// an address changes, and the observer's to keep. Final marks the cut
// sealed by Finish (the stream's last).
type CutInfo struct {
	UpTo  uint64
	Final bool
	Runs  []wire.ReplRun // ascending shard; shards without events omitted
	Owner []int          // shard -> slot (-1: abandoned)
	Addrs []string       // per slot: dialable worker address ("" unknown)
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
	// merge tags (Src is the global shard index). Either way the match is
	// decoded as it is handed over — it crossed the coordinator as the
	// bytes its worker wrote — and is the consumer's to keep.
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
	// RecoveryConfig and DESIGN.md "Elasticity"). When nil, a failed
	// node's slot and shards are abandoned and the failure surfaces as an
	// error from Finish (exactness over availability), and migration is
	// unavailable.
	Recovery *RecoveryConfig
	// Epoch stamps every Assign frame this ingress issues (0 without
	// HA). Worker processes latch the highest epoch they have served and
	// fence sessions from anything lower, so a superseded primary cannot
	// keep driving the cluster after its standby took over.
	Epoch uint64
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
}

// Ingress is the cluster coordinator: it partitions one input stream
// across worker nodes, drives uniform watermark cuts, and merges the
// per-shard match streams into one deterministic, ordered output.
// Process, Finish, AddNode, Drain and MigrateShard must be called from
// a single goroutine; the match callback fires on the collector
// goroutine. Construct with NewIngress.
type Ingress struct {
	// slots are the node seats, one per member past and present (slot.go).
	// The ingress goroutine owns the slice and every slot field except the
	// reader-written ones; it replaces or appends an element only under mu,
	// which is what lets readers and accessors index it there.
	slots []*slot
	key   shard.KeyFunc
	batch int
	total int

	// owner is the routing truth: global shard index -> the node slot
	// currently feeding it (-1: abandoned). Mutated only on the ingress
	// goroutine, strictly behind the send barrier.
	owner []int

	// The accumulating cut: an event is encoded onto its shard's run as
	// it is accepted, and the sealed bytes are what the worker link, the
	// journal and the replication tap all carry. Without a journal nothing
	// keeps a sealed run past its send, which has copied the bytes when it
	// returns, so two encoders per shard alternate, the idle one's run
	// being the cut in flight.
	runs    []wire.RunEncoder // per global shard
	spare   []wire.RunEncoder // the alternates (nil under Recovery)
	sealed  []wire.ReplRun    // cutAll scratch: the runs of the cut being sealed
	pending int               // events Process took since the last cut, elided ones included
	lastSeq uint64
	elided  uint64 // events Process offered no shard: no hosted pattern reads their type
	// delivered counts the matches handed to the consumer, by pattern
	// (collector goroutine).
	delivered map[uint32]uint64

	// Cut pipelining: each sealed cut's frames are encoded and sent by
	// per-node goroutines while the coordinator returns to accumulating
	// the next cut. sendWG is the in-flight cut; a send failure is parked
	// on its slot and acted on at the next barrier (waitSends). Per-node
	// frame order is preserved because a new cut's sends only launch
	// after the barrier, and all routing mutation (migrate, adopt, join,
	// drain — which closes, replaces and replays connections) runs
	// strictly behind it.
	sendWG sync.WaitGroup

	col *shard.Collector

	patternSet
	// sealedTags: the consumer takes the tags sealed (NewSealedIngress).
	// It rebuilds the session from its own configuration, so AddPattern
	// and RemovePattern refuse.
	sealedTags bool

	// Recovery/elasticity state (zero without IngressOptions.Recovery;
	// the journal is what the coordinator asks of; rec.Elastic carries
	// its defaults). released is the collector's delivered watermark.
	rec           RecoveryConfig
	journal       *recovery.Journal  // nil: no failover, no migration
	det           *recovery.Detector // nil without a HeartbeatTimeout: nothing would read its clocks
	released      atomic.Uint64
	exitCh        chan struct{} // coalesced reader-exit wakeup for the drain loop
	cutsSinceMove int
	// load is the placement controller's input (nil without one): per
	// global shard, the events routed to it since the last move.
	load []uint64

	// HA state (zero without the internal/ha subsystem driving this
	// ingress, whose replication tap is rec.OnCut). epoch is the
	// coordinator epoch stamped on every Assign, and suppressFloor the
	// takeover boundary a successor imposes on every adoption migration
	// (a fresh collector's release frontier starts at zero, so the
	// mirrored emission watermark — not the collector — is the truth
	// about what was already delivered).
	addrs         []string // what rec.OnCut last replicated as Addrs (replAddrs)
	epoch         uint64
	suppressFloor uint64

	mu       sync.Mutex
	err      error
	finished bool
	// rouse is closed, and replaced, when a reader's wait gains an exit
	// (a suspect is queued, a migration starts): it wakes the parked
	// readers.
	rouse    chan struct{}
	suspects []suspectRec
	ledger
	retired    engine.Metrics // metrics of drained sessions whose slot was reused
	patMetrics map[uint32]engine.Metrics
	tenantAgg  map[uint32]shed.TenantStat
}

// NewIngress performs the handshake over the given node connections
// (node i's shard block starts after node i-1's) and starts the merge
// collector. The session hosts pat — shorthand for the set of one,
// multi.Solo — or, with a nil pattern, the set in opts.Patterns. The set
// and schema must match every configured node's — the handshake compares
// fingerprints — and every pattern must be key-partitionable in KeyAttr
// mode, exactly like shard.New.
func NewIngress(pat *pattern.Pattern, conns []Conn, opts IngressOptions) (*Ingress, error) {
	return newIngress(pat, conns, opts, false)
}

// NewSealedIngress is NewIngress for a consumer that holds matches back
// before it emits them — the HA emission gate. opts.OnTagged receives
// every tag sealed: Enc holds the match as its worker encoded it —
// checked on receipt, aliasing the frame it arrived in — and M is nil;
// the consumer decodes where it emits (Open), and what it holds until
// then is bytes. Enc is valid only during the OnTagged call: the frame
// goes back to its reader once its last match is delivered, and the next
// Matches frame is read into it, so a consumer copies the bodies it
// keeps. Its pattern set is the one it was built with: AddPattern and
// RemovePattern refuse, because the consumer that holds the matches back
// (the HA pair) rebuilds a successor from its own configuration, where a
// runtime change would be lost.
func NewSealedIngress(pat *pattern.Pattern, conns []Conn, opts IngressOptions) (*Ingress, error) {
	return newIngress(pat, conns, opts, true)
}

func newIngress(pat *pattern.Pattern, conns []Conn, opts IngressOptions, sealed bool) (*Ingress, error) {
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
	if sealed && opts.OnTagged == nil {
		return nil, fmt.Errorf("cluster: a sealed ingress delivers through OnTagged")
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
	// The recovery-only settings are zero without Recovery.
	var rc RecoveryConfig
	if opts.Recovery != nil {
		rc = *opts.Recovery
	}
	if rc.Elastic != nil {
		ec := rc.Elastic.withDefaults()
		rc.Elastic = &ec
	}
	if rs := rc.Resume; rs != nil {
		if rs.Journal == nil || len(rs.Owner) == 0 {
			return nil, fmt.Errorf("cluster: Recovery.Resume needs the mirrored journal and owner table")
		}
		for g, o := range rs.Owner {
			if o >= len(conns) {
				return nil, fmt.Errorf("cluster: Recovery.Resume: shard %d owned by slot %d, only %d connections", g, o, len(conns))
			}
		}
	}
	key, err := shard.KeyFor(opts.Key, opts.KeyAttr, opts.Schema, specs)
	if err != nil {
		return nil, err
	}

	in := &Ingress{
		key:        key,
		batch:      opts.Batch,
		exitCh:     make(chan struct{}, 1),
		rouse:      make(chan struct{}),
		patternSet: patternSet{schema: opts.Schema, keyAttr: opts.KeyAttr, tenants: maps.Clone(opts.Tenants)},
		patMetrics: make(map[uint32]engine.Metrics),
		tenantAgg:  make(map[uint32]shed.TenantStat),
		epoch:      opts.Epoch,
		rec:        rc,
		sealedTags: sealed,
	}
	in.derive(specs)
	// Collect every node's greeting. A founding fleet routes contiguous
	// blocks of the global shard space in connection order, each as large
	// as its node's claim; every session gets the same Assign, which names
	// no shard.
	claims := make([]int, len(conns))
	for i, c := range conns {
		if claims[i], err = in.hello(c, fmt.Sprintf("node %d", i)); err != nil {
			return nil, err
		}
	}
	if rs := rc.Resume; rs != nil {
		// Takeover successor: the mirrored table defines the global shard
		// space, every worker session learns its shards through the
		// adoption migrations below, and the stream resumes at the newest
		// mirrored cut.
		in.owner = append([]int(nil), rs.Owner...)
		in.lastSeq = rs.NextSeq
		in.suppressFloor = rs.Boundary
	} else {
		for i, n := range claims {
			for s := 0; s < n; s++ {
				in.owner = append(in.owner, i)
			}
		}
	}
	in.total = len(in.owner)
	assign := in.assignFrame()
	for i, c := range conns {
		if err := c.Send(assign); err != nil {
			return nil, fmt.Errorf("cluster: assigning node %d: %w", i, err)
		}
	}
	in.runs = make([]wire.RunEncoder, in.total)
	if rc.Elastic != nil {
		in.load = make([]uint64, in.total)
	}

	deliver := in.deliverer(opts, sealed)
	tap := opts.OnProgress
	progress := tap
	if opts.Recovery != nil {
		if rc.Resume != nil {
			in.journal = rc.Resume.Journal
		} else if in.journal, err = recovery.NewJournal(recovery.JournalConfig{Window: in.maxWindow(), Shards: in.total}); err != nil {
			return nil, err
		}
		if rc.HeartbeatTimeout > 0 {
			in.det = recovery.NewDetector(0, rc.HeartbeatTimeout) // install grows it
		}
		progress = func(w uint64) {
			in.released.Store(w)
			if tap != nil {
				tap(w)
			}
		}
	}
	// Run recycling: a sealed run's storage is reusable once its send has
	// been barriered (behind waitSends), unless the recovery journal keeps
	// it.
	if in.journal == nil {
		in.spare = make([]wire.RunEncoder, in.total)
	}
	in.col = shard.NewCollectorOwned(in.owner, deliver, progress)
	for i, c := range conns {
		addr := ""
		if i < len(opts.Addrs) {
			addr = opts.Addrs[i]
		}
		in.install(i, c, addr)
	}
	if rs := rc.Resume; rs == nil {
		for g, o := range in.owner {
			in.slots[o].hosted[g] = true
		}
	} else if err := in.takeoverAdopt(); err != nil {
		// Orderly teardown: the deferred sweep above would leave the
		// readers and the collector running.
		in.teardown()
		built = true // connections already released
		return nil, err
	}
	built = true
	return in, nil
}

// takeoverAdopt re-establishes every mirrored shard on its slot's fresh
// worker session by the standard adoption migration (reason
// "takeover"): it replays the mirrored journal, and its Migrate frame
// carries the resumed boundary (migrateShard raises it to
// suppressFloor), so the worker suppresses the duplicates at or below
// it. Runs once, at successor construction, before any ingest.
func (in *Ingress) takeoverAdopt() error {
	for g, o := range in.owner {
		if o < 0 {
			continue
		}
		if _, err := in.migrateShard(g, o, "takeover"); err != nil {
			return err
		}
	}
	in.routeBroadcast()
	return nil
}

// Process routes one event to its shard. An event of a type no hosted
// pattern reads goes to no shard — it is neither encoded, journaled nor
// sent — but counts toward Batch and the cut's watermark like any other,
// exactly as shard.Engine.Process elides it. Events must arrive in
// non-decreasing timestamp order with unique, increasing Seq numbers
// (the same contract as the engines underneath).
func (in *Ingress) Process(ev *event.Event) {
	if in.finished {
		panic("cluster: Process after Finish")
	}
	if in.reads.Has(ev.Type) {
		in.runs[shard.GlobalIndex(in.key(ev), in.total)].Append(ev)
	} else {
		in.elided++
	}
	in.lastSeq = ev.Seq
	in.pending++
	if in.pending >= in.batch {
		in.cutAll()
	}
}

// replAddrs returns the slots' addresses as an immutable snapshot, made
// anew only when the fleet or a slot's address has changed since the last
// one: the replication tap's observer keeps it. Ingress goroutine.
func (in *Ingress) replAddrs() []string {
	if !slices.EqualFunc(in.addrs, in.slots, func(a string, s *slot) bool { return a == s.addr }) {
		in.addrs = make([]string, len(in.slots))
		for n, s := range in.slots {
			in.addrs[n] = s.addr
		}
	}
	return in.addrs
}

// cutAll seals the current cut: the previous cut's pipelined sends are
// barriered first and their failures — together with pending reader
// suspects — handled (so a failover's replay ends at the previous cut
// and this one rides the normal send), the placement controller gets a
// chance to move a shard, the cut's runs are journaled when recovery is
// on, and then every live node's frames — one Batch per owned shard
// with a run, then a bare one carrying the global watermark — are sent
// by a per-node goroutine while the coordinator goes back to ingesting.
// A send failure surfaces at the next barrier and fails over there; the
// successor receives the journaled cuts through replay.
func (in *Ingress) cutAll() {
	in.waitSends()
	in.rebalance()
	in.sealed = in.sealed[:0]
	for g := range in.runs {
		if n := in.runs[g].Events(); n > 0 {
			if in.load != nil {
				in.load[g] += uint64(n)
			}
			in.sealed = append(in.sealed, in.runs[g].Seal(uint32(g)))
		}
	}
	if in.journal != nil {
		in.journal.Advance(in.released.Load())
		if err := in.journal.AppendRuns(in.sealed, in.lastSeq); err != nil {
			panic(err) // every shard index above is below in.total
		}
	}
	if in.rec.OnCut != nil {
		// Replication tap: behind the barrier (routing settled for this
		// cut, the previous cut fully sent) and after journaling, so what
		// the standby mirrors is exactly what a failover would replay.
		in.rec.OnCut(CutInfo{
			UpTo: in.lastSeq, Final: in.finished,
			Runs: in.sealed, Owner: in.owner, Addrs: in.replAddrs(),
		})
	}
	upTo := in.lastSeq
	for _, s := range in.slots {
		s.outs = s.outs[:0]
	}
	recycle := in.spare != nil
	for _, r := range in.sealed {
		g := int(r.Shard)
		if recycle {
			// The alternate's run was the previous cut's; its send
			// completed at the barrier above.
			in.runs[g], in.spare[g] = in.spare[g], in.runs[g]
		}
		in.runs[g].Reset(recycle)
		if o := in.owner[g]; o >= 0 && in.slots[o].receives() {
			in.slots[o].outs = append(in.slots[o].outs, r.Body)
		}
	}
	for n, s := range in.slots {
		if !s.receives() {
			continue
		}
		in.det.Sent(n)
		in.sendWG.Add(1)
		go func(s *slot) {
			defer in.sendWG.Done()
			if err := s.sendCut(upTo); err != nil {
				s.sendErr = err
			}
		}(s)
	}
	in.pending = 0
}

// waitSends is the pipeline barrier: it blocks until the in-flight cut's
// sends complete, then fails every node a failure was observed on — the
// readers' suspects and heartbeat expiries first (a reader closes its
// link as it queues its suspect, which can fail the send in flight: the
// reader's cause is the one recorded), then the parked send errors. All
// connection and routing mutation — close, replace, migrate, replay —
// happens behind this barrier, which is what keeps per-node frame order
// and the one-writer-per-connection discipline intact.
func (in *Ingress) waitSends() {
	in.sendWG.Wait()
	in.checkSuspects()
	for n, s := range in.slots {
		if err := s.sendErr; err != nil {
			s.sendErr = nil
			if s.inSession() {
				in.failNode(n, fmt.Errorf("cluster: sending to node %d: %w", n, err))
			}
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
// history to the destination. A healthy shard moves through handoff; a
// failover's adoption and a takeover's re-establishment call it
// directly. Must run on the ingress goroutine behind the send barrier.
// It returns the number of events it replayed. On error the destination
// is in an unknown state — the caller routes it into the failure path
// (and aborted in-flight records are struck there).
func (in *Ingress) migrateShard(g, to int, reason string) (replayed int, err error) {
	dst := in.slots[to]
	if dst.hosted[g] {
		return 0, fmt.Errorf("cluster: node %d already hosted shard %d this session; migrating it back would double-process", to, g)
	}
	if err := in.journal.CoveredShard(g); err != nil {
		return 0, err
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
	dst.hosted[g] = true
	// Every move reshapes the fleet's load: the placement controller
	// counts afresh from here (see rebalance).
	clear(in.load)
	replayUpTo := in.journal.ReplayUpToShard(g)
	// Register the record before the replay: the destination's ack races
	// with the tail of the replay loop, and an ack that finds no record
	// would leave the migration in flight forever.
	in.mu.Lock()
	idx := len(in.migrations)
	in.migrations = append(in.migrations, recovery.Migration{
		Shard: g, From: from, To: to, Reason: reason,
		StartedAt: time.Now(), SuppressUpTo: boundary, ReplayUpTo: replayUpTo,
	})
	in.wake()
	in.mu.Unlock()
	c := dst.conn
	in.det.Sent(to)
	if err := c.Send(wire.Migrate{Shard: uint32(g), SuppressUpTo: boundary, ReplayUpTo: replayUpTo}); err != nil {
		return 0, fmt.Errorf("cluster: migrating shard %d to node %d: %w", g, to, err)
	}
	var cuts, events int
	var bytes int64
	rerr := in.journal.ReplayShard(g, func(r wire.ReplRun, upTo uint64) error {
		in.det.Sent(to)
		if err := c.Send(wire.BatchRaw{UpTo: upTo, Run: r.Body}); err != nil {
			return err
		}
		cuts++
		events += r.Events
		bytes += int64(len(r.Body))
		return nil
	})
	in.mu.Lock()
	m := &in.migrations[idx]
	m.ReplayCuts, m.ReplayEvents, m.ReplayBytes = cuts, events, bytes
	in.mu.Unlock()
	if rerr != nil {
		return events, fmt.Errorf("cluster: replaying shard %d to node %d: %w", g, to, rerr)
	}
	return events, nil
}

// routeBroadcast ships the current shard->slot owner table to every
// slot that receives control frames (abandoned shards carry
// ^uint32(0)). Advisory for the nodes — ownership semantics ride the
// Migrate frames — but it keeps every member's picture of the routing
// current, and its position behind a migration's replay is what the
// destination's acknowledgement keys on.
func (in *Ingress) routeBroadcast() {
	route := wire.ShardRoute{Owner: make([]uint32, len(in.owner))}
	for g, o := range in.owner {
		route.Owner[g] = uint32(o) // -1 converts to ^uint32(0)
	}
	in.broadcast(route, slotLive)
}

// wake rouses every reader parked in wait: it has an exit now. Under mu.
func (in *Ingress) wake() {
	close(in.rouse)
	in.rouse = make(chan struct{})
}

// finishNodes hands Finish to every slot still live, failing over (and
// finishing the successor) on send errors. Terminates because every
// failed attempt either consumes a standby or ends the slot.
func (in *Ingress) finishNodes() {
	for in.broadcast(wire.Finish{}, slotFinishing) > 0 {
		in.waitSends()
	}
}

// Finish flushes the final partial cut, tells every node to finish,
// waits until every node's matches have been merged and delivered, and
// closes the connections. A node that dies during the drain is failed
// like one that dies mid-stream: with recovery its successor replays,
// finishes and delivers the missing tail before the merge closes. It
// returns the first unrecovered error observed anywhere in the cluster
// session (nil for a clean or fully recovered run). Idempotent.
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
	in.drain()
	in.teardown()
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
	in.teardown()
}

// teardown closes every session, waits for the in-flight sends and every
// reader to end, and shuts the merge collector down, delivering what it
// holds.
func (in *Ingress) teardown() {
	for _, s := range in.slots {
		s.close()
	}
	in.sendWG.Wait()
	for _, s := range in.slots {
		<-s.done
	}
	in.col.Close()
}

// Nodes reports the node slot count (live, drained and dead slots
// included).
func (in *Ingress) Nodes() int { return len(in.slots) }

// TotalShards reports the global shard count across all nodes.
func (in *Ingress) TotalShards() int { return in.total }

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

// PatternMetrics merges every node's per-pattern engine counters,
// ascending by pattern id, with Matches the pattern's matches delivered
// (see Metrics). Patterns removed before Finish stop reporting and are
// absent. Call after Finish.
func (in *Ingress) PatternMetrics() []multi.PatternMetrics {
	tenant := make(map[uint32]uint32, len(in.specs))
	for _, sp := range in.specs {
		tenant[sp.ID] = sp.Tenant
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]multi.PatternMetrics, 0, len(in.patMetrics))
	for _, id := range slices.Sorted(maps.Keys(in.patMetrics)) {
		m := in.patMetrics[id]
		m.Matches = in.delivered[id]
		out = append(out, multi.PatternMetrics{ID: id, Tenant: tenant[id], M: m})
	}
	return out
}

// TenantStats merges the per-tenant admission accounting reported by
// every node, sorted by tenant id. Call after Finish.
func (in *Ingress) TenantStats() []shed.TenantStat {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]shed.TenantStat, 0, len(in.tenantAgg))
	for _, t := range slices.Sorted(maps.Keys(in.tenantAgg)) {
		out = append(out, in.tenantAgg[t])
	}
	return out
}

// Metrics merges every node's engine metrics into one cluster-wide view;
// EventsArrived also counts, once, every event Process offered no shard,
// and not again the events a handoff replayed to a shard's new owner.
// Matches counts the matches this ingress delivered, not the ones the
// engines emitted: a moved shard's engines emit some twice. Call after
// Finish.
func (in *Ingress) Metrics() engine.Metrics {
	in.mu.Lock()
	defer in.mu.Unlock()
	m := engine.Metrics{EventsArrived: in.elided}
	m.Merge(in.retired)
	for _, s := range in.slots {
		if s.gotMetrics {
			m.Merge(s.final())
		}
	}
	m.Matches = 0
	for _, n := range in.delivered {
		m.Matches += n
	}
	return m
}

// NodeMetrics is the per-node breakdown behind Metrics (zero-valued for
// nodes that failed before reporting). Call after Finish.
func (in *Ingress) NodeMetrics() []engine.Metrics {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]engine.Metrics, len(in.slots))
	for i, s := range in.slots {
		out[i] = s.metrics
	}
	return out
}

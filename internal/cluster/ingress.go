package cluster

import (
	"fmt"
	"io"
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

	// The session's pattern set (ingress goroutine unless noted). specs
	// is the current set — the truth shipped to every join and adoption —
	// reads the types it reads, which Process routes by, and sig its
	// fingerprint under schema; keyAttr re-validates runtime
	// additions; tenants are the shipped budgets. addCut maps
	// runtime-added pattern ids to the cut boundary they joined at;
	// reader goroutines load it to drop matches a migration replay
	// regenerated from events the pattern never saw in the original
	// timeline (see AddPattern).
	specs   []multi.Spec
	reads   multi.Reads
	schema  *event.Schema
	sig     uint64
	keyAttr string
	tenants map[uint32]shed.TenantBudget
	addCut  atomic.Pointer[map[uint32]uint64]
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
	rouse       chan struct{}
	suspects    []suspectRec
	failovers   []recovery.Failover
	facked      []int // per failover: migrations acknowledged so far
	migrations  []recovery.Migration
	migFailover []int          // per migration: owning failover index, -1 if none
	retired     engine.Metrics // metrics of drained sessions whose slot was reused
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
		specs:      specs,
		reads:      multi.ReadsOf(specs),
		schema:     opts.Schema,
		sig:        signature(specs, opts.Schema),
		keyAttr:    opts.KeyAttr,
		tenants:    maps.Clone(opts.Tenants),
		patMetrics: make(map[uint32]engine.Metrics),
		tenantAgg:  make(map[uint32]shed.TenantStat),
		epoch:      opts.Epoch,
		rec:        rc,
		sealedTags: sealed,
	}
	// Collect every node's greeting, then assign contiguous blocks of the
	// global shard space in connection order.
	claims := make([]int, len(conns))
	for i, c := range conns {
		if claims[i], err = in.hello(c, fmt.Sprintf("node %d", i)); err != nil {
			return nil, err
		}
	}
	if rs := rc.Resume; rs != nil {
		// Takeover successor: the mirrored table defines the global shard
		// space, every worker session starts bare (it learns its shards
		// through the adoption migrations below), and the stream resumes
		// at the newest mirrored cut.
		clear(claims)
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
	base := 0
	for i, c := range conns {
		if err := c.Send(in.assignFrame(base, claims[i])); err != nil {
			return nil, fmt.Errorf("cluster: assigning node %d: %w", i, err)
		}
		base += claims[i]
	}
	in.runs = make([]wire.RunEncoder, in.total)
	if rc.Elastic != nil {
		in.load = make([]uint64, in.total)
	}

	deliver := in.deliverer(opts, sealed)
	var progress func(uint64)
	if opts.Recovery != nil {
		if rc.Resume != nil {
			in.journal = rc.Resume.Journal
		} else if in.journal, err = recovery.NewJournal(recovery.JournalConfig{Window: in.maxWindow(), Shards: in.total}); err != nil {
			return nil, err
		}
		if rc.HeartbeatTimeout > 0 {
			in.det = recovery.NewDetector(0, rc.HeartbeatTimeout) // install grows it
		}
		progress = func(w uint64) { in.released.Store(w) }
	}
	if tap := opts.OnProgress; tap != nil {
		if inner := progress; inner != nil {
			progress = func(w uint64) { inner(w); tap(w) }
		} else {
			progress = tap
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
	} else if err := in.takeoverAdopt(rs); err != nil {
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
// worker session: a Takeover frame announces the successor's epoch and
// suppress boundary, then each shard runs the standard adoption
// migration (reason "takeover") — replaying the mirrored journal with
// duplicates at or below the boundary suppressed on the worker. Runs
// once, at successor construction, before any ingest.
func (in *Ingress) takeoverAdopt(rs *ResumeState) error {
	tk := wire.Takeover{Epoch: in.epoch, Boundary: rs.Boundary}
	for i, s := range in.slots {
		if err := s.conn.Send(tk); err != nil {
			return fmt.Errorf("cluster: takeover announce to worker %d: %w", i, err)
		}
		in.det.Sent(i)
	}
	for g, o := range in.owner {
		if o < 0 {
			continue
		}
		if _, err := in.migrateShard(g, o, "takeover", -1); err != nil {
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
	for _, t := range slices.Sorted(maps.Keys(in.tenants)) {
		a.Tenants = append(a.Tenants, wire.TenantBudgetEntry{Tenant: t, Budget: in.tenants[t]})
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

// Open decodes a sealed tag in place (Enc into M, kept by k, whose slab's
// matches share their events): the one decode of a match's life, and the
// emission boundary is the only place for it — this ingress handing a
// match to its consumer, or a consumer of sealed tags
// (NewSealedIngress) doing so later. The reader's decode checked these
// bytes when they arrived (tagsOf), so an error is a fault of the
// coordinator, not of the worker that sent them.
func Open(t *shard.Tagged, k *match.Keeper) error {
	m, err := wire.DecodeMatchBody(t.Enc, k)
	if err != nil {
		return fmt.Errorf("match at %d of shard %d does not decode at emission: %w", t.Seq, t.Src, err)
	}
	t.M, t.Enc = m, nil
	return nil
}

// deliverer returns the emission boundary: the collector orders sealed
// tags, and each match is decoded here, as the consumer takes it —
// unless the consumer asked for the tags sealed. The matches metrics
// report are the ones that reach the consumer, counted by pattern: an
// engine also counts the ones a moved shard's collector purge or its
// destination's replay suppression keeps from the consumer, and a match
// that does not open is not delivered. Collector goroutine.
func (in *Ingress) deliverer(opts IngressOptions, sealed bool) func(shard.Tagged) {
	in.delivered = make(map[uint32]uint64)
	counted := func(out func(shard.Tagged)) func(shard.Tagged) {
		return func(t shard.Tagged) {
			in.delivered[t.Pattern]++
			if out != nil {
				out(t)
			}
		}
	}
	switch {
	case sealed:
		return counted(opts.OnTagged)
	case opts.OnTagged != nil:
		return in.opened(counted(opts.OnTagged))
	case opts.OnMatch != nil:
		return in.opened(counted(func(t shard.Tagged) { opts.OnMatch(t.M) }))
	}
	return counted(nil)
}

// opened wraps a consumer that takes matches decoded, on the collector
// goroutine. A match that does not open is not delivered, and Finish
// reports why.
func (in *Ingress) opened(out func(shard.Tagged)) func(shard.Tagged) {
	k := &match.Keeper{}
	return func(t shard.Tagged) {
		if err := Open(&t, k); err != nil {
			in.recordErr(fmt.Errorf("cluster: %w", err))
			return
		}
		out(t)
	}
}

// tagsOf appends to tags (empty) a node's Matches frame as the tags the
// merge collector orders: each carries its body as Enc, aliasing the
// frame's own bytes, undecoded. The frame is one the reader decoded, which
// checked it whole (wire.Matches.Each) — corrupt bytes failed this node's
// session there, before anything of the frame could be posted — so the
// walk reads its records without checking the bodies again
// (wire.Matches.Records), and drops replay artifacts of runtime-added
// patterns. Reader goroutines.
func (in *Ingress) tagsOf(v *wire.Matches, tags []shard.Tagged) ([]shard.Tagged, error) {
	tags = slices.Grow(tags, v.Count) // decoding held the count against the bytes
	err := v.Records(func(r wire.MatchRecord) {
		if !in.dropRegen(r.Pattern, r.Seq) {
			tags = append(tags, shard.Tagged{Seq: r.Seq, Src: int(r.Shard), Pattern: r.Pattern, Enc: r.Body})
		}
	})
	return tags, err
}

// metricsDone reports whether the session delivered its final metrics
// (the clean-exit marker), synchronized with the reader that records them.
func (in *Ingress) metricsDone(s *slot) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return s.gotMetrics
}

// read is the reader goroutine of session s on node slot i: it turns each
// Matches frame into one post to the merge collector — the frame's
// matches, sealed, and its completion watermark — applies migration
// acknowledgements and the node's final metrics, and on failure queues
// a suspect and closes the link, posting nothing: the ingress goroutine
// fails the node at its next barrier (failNode), which either seats a
// successor or abandons the slot's shards at the collector.
func (in *Ingress) read(i int, s *slot) {
	defer func() { // runs last: done is closed by the time the drain wakes
		select {
		case in.exitCh <- struct{}{}:
		default:
		}
	}()
	defer close(s.done)
	// lost ends the session on a failure. Closing the link stops a node
	// that is still talking from filling it, undrained, and stalling the
	// cut in flight to it; the suspect is queued first, so the next
	// barrier acts on it.
	lost := func(err error) {
		in.suspect(i, s, err)
		s.close()
	}
	for {
		f, err := s.conn.Recv()
		if err != nil {
			if err == io.EOF && in.metricsDone(s) {
				in.col.Post(i, maxSeq, nil) // clean end of stream
			} else {
				lost(fmt.Errorf("cluster: node %d stream: %w", i, err))
			}
			return
		}
		in.det.Heard(i)
		switch v := f.(type) {
		case *wire.Matches:
			r := in.take(s)
			if r.tags, err = in.tagsOf(v, r.tags); err != nil {
				lost(fmt.Errorf("cluster: node %d: %w", i, err))
				return
			}
			if v.UpTo > 0 || len(r.tags) > 0 {
				in.col.PostRun(i, v.UpTo, r.tags, r)
			} else {
				r.Release()
			}
		case wire.Heartbeat:
			// Liveness only (recorded above).
		case wire.MigrateAck:
			// The destination caught up to a migration's replay horizon; the
			// matches it released on the way arrived ahead of this frame.
			in.col.Complete(i, int(v.Shard), v.UpTo)
			in.migrationAcked(i, int(v.Shard))
		case wire.Metrics:
			// The session's one report: fold it into the per-slot,
			// per-pattern and per-tenant views.
			in.mu.Lock()
			s.metrics = v.M
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
			s.gotMetrics = true
			in.mu.Unlock()
		default:
			lost(fmt.Errorf("cluster: node %d sent unexpected %s frame", i, wire.KindOf(f)))
			return
		}
	}
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
	same := len(in.addrs) == len(in.slots)
	for n := 0; same && n < len(in.slots); n++ {
		same = in.addrs[n] == in.slots[n].addr
	}
	if !same {
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
// directly. Must run on the ingress goroutine behind the send barrier;
// fidx >= 0 folds the move into that failover record. It returns the
// number of events it replayed. On error the destination is in an
// unknown state — the caller routes it into the
// failure path (and aborted in-flight records are dropped there).
func (in *Ingress) migrateShard(g, to int, reason string, fidx int) (replayed int, err error) {
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
	in.migrations = append(in.migrations, recovery.Migration{
		Shard: g, From: from, To: to, Reason: reason,
		StartedAt: time.Now(), SuppressUpTo: boundary, ReplayUpTo: replayUpTo,
	})
	in.migFailover = append(in.migFailover, fidx)
	in.wake()
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
	if fidx >= 0 {
		f := &in.failovers[fidx]
		f.ReplayCuts += cuts
		f.ReplayEvents += events
		f.ReplayBytes += bytes
	}
	in.mu.Unlock()
	if rerr != nil {
		return events, fmt.Errorf("cluster: replaying shard %d to node %d: %w", g, to, rerr)
	}
	return events, nil
}

// handoff migrates healthy shard g to slot `to`. A failed handoff leaves
// the destination in an unknown state, so the error is parked on it (the
// next barrier fails it over) as well as returned. The destination's
// session is charged the events replayed to it (slot.reoffered): g's
// previous owner, still in session, counted them arriving.
func (in *Ingress) handoff(g, to int, reason string) error {
	replayed, err := in.migrateShard(g, to, reason, -1)
	if err != nil {
		in.slots[to].park(err)
		return err
	}
	in.mu.Lock()
	in.slots[to].reoffered += uint64(replayed)
	in.mu.Unlock()
	return nil
}

// move hands shard g to slot `to` and tells the fleet — the one way a
// healthy shard changes owner: the placement controller and MigrateShard
// come through here, and Drain hands off each owned shard the same way
// before its single route broadcast.
func (in *Ingress) move(g, to int, reason string) error {
	if err := in.handoff(g, to, reason); err != nil {
		return err
	}
	in.routeBroadcast()
	return nil
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
		if o < 0 {
			route.Owner[g] = ^uint32(0)
		} else {
			route.Owner[g] = uint32(o)
		}
	}
	in.broadcast(route, slotLive)
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

// migrating reports whether a migration is unacknowledged. Under mu.
func (in *Ingress) migrating() bool {
	for _, m := range in.migrations {
		if m.CompletedAt.IsZero() {
			return true
		}
	}
	return false
}

// wake rouses every reader parked in wait: it has an exit now. Under mu.
func (in *Ingress) wake() {
	close(in.rouse)
	in.rouse = make(chan struct{})
}

// rebalance runs the placement controller once per cut, behind the
// barrier: past the cooldown it gathers what place reads and carries out
// the move it decides on.
func (in *Ingress) rebalance() {
	if in.journal == nil || in.rec.Elastic == nil {
		return
	}
	in.cutsSinceMove++
	if in.cutsSinceMove < in.rec.Elastic.CooldownCuts {
		return
	}
	v := placementView{
		cfg: *in.rec.Elastic, owner: in.owner, load: in.load,
		pinned: make([]bool, in.total),
		slots:  make([]slotView, len(in.slots)),
	}
	for g := range v.pinned {
		v.pinned[g] = in.journal.CoveredShard(g) != nil
	}
	in.mu.Lock()
	v.inFlight = in.migrating()
	for n, s := range in.slots {
		v.slots[n] = slotView{eligible: s.state == slotLive, hosted: s.hosted}
	}
	in.mu.Unlock()
	if g, to, reason, ok := place(v); ok {
		in.move(g, to, reason) //nolint:errcheck // parked on the destination; the next barrier acts on it
		in.cutsSinceMove = 0
	}
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
	if in.journal == nil {
		c.Close()
		return -1, fmt.Errorf("cluster: AddNode requires Recovery (the journal feeds shard handoff)")
	}
	in.waitSends()
	if err := in.openSession(c, "joining node"); err != nil {
		c.Close()
		return -1, err
	}
	// Ghost-slot compaction: reuse the oldest ghost for the joining node
	// instead of growing the fleet, so a long-running cluster's
	// join/drain churn doesn't leak slots. The retired session's metrics
	// move to the retired accumulator first, keeping the cluster-wide
	// Metrics sum intact.
	n := in.ghost()
	if n < 0 {
		n = len(in.slots)
	} else {
		in.mu.Lock()
		in.retired.Merge(in.slots[n].final())
		in.mu.Unlock()
	}
	in.install(n, c, connAddr(c))
	return n, nil
}

// ghost finds the oldest ghost slot (-1: none): drained, its session
// fully ended — reader exited, final metrics recorded. It owns nothing
// and will never speak again.
func (in *Ingress) ghost() int {
	for n, s := range in.slots {
		if s.state != slotDrained {
			continue
		}
		select {
		case <-s.done:
			if in.metricsDone(s) {
				return n
			}
		default: // session still draining
		}
	}
	return -1
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
	if in.journal == nil {
		return fmt.Errorf("cluster: Drain requires Recovery (migrations replay from the journal)")
	}
	if n < 0 || n >= len(in.slots) {
		return fmt.Errorf("cluster: Drain: no node slot %d", n)
	}
	in.waitSends()
	s := in.slots[n]
	if !s.receives() {
		return fmt.Errorf("cluster: Drain: node %d is not live (dead or already drained)", n)
	}
	// Round-robin over the other slots from slot 0, skipping any that
	// cannot take the shard (not live, or its session already hosted it).
	owned := in.ownedShards(n)
	next := len(in.slots) - 1
	for _, g := range owned {
		pick := -1
		for k := 1; k <= len(in.slots) && pick < 0; k++ {
			if t := (next + k) % len(in.slots); t != n && in.slots[t].takes(g) {
				pick = t
			}
		}
		if pick < 0 {
			return fmt.Errorf("cluster: draining node %d: no live node can take shard %d (every one is gone or already hosted it this session)", n, g)
		}
		next = pick
		if err := in.handoff(g, pick, "drain"); err != nil {
			return err
		}
	}
	if len(owned) > 0 {
		in.routeBroadcast()
	}
	if err := s.conn.Send(wire.Finish{}); err != nil {
		// The shards are already safe on their new owners; the node's
		// death at this point is a benign failover.
		in.failNode(n, fmt.Errorf("cluster: finishing drained node %d: %w", n, err))
		return nil
	}
	in.det.Sent(n)
	s.state = slotDrained
	s.addr = "" // the slot no longer lives anywhere dialable
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
	s := in.slots[n]
	<-s.done
	s.conn.Close()
	in.mu.Lock()
	// Fold the retired session's counters now so the slot's metrics slate
	// is clean for reuse; gotMetrics stays set — it is the clean-end
	// marker ghost-slot compaction keys on.
	in.retired.Merge(s.final())
	s.metrics, s.reoffered = engine.Metrics{}, 0
	in.mu.Unlock()
	return nil
}

// connAddr reports a connection's dialable remote address ("" when it has
// none: accepted, in-process or wrapped).
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
	if to < 0 || to >= len(in.slots) {
		return fmt.Errorf("cluster: MigrateShard: no node slot %d", to)
	}
	in.waitSends()
	if !in.slots[to].receives() {
		return fmt.Errorf("cluster: MigrateShard: node %d cannot take shards", to)
	}
	if in.owner[g] == to {
		return fmt.Errorf("cluster: MigrateShard: node %d already owns shard %d", to, g)
	}
	reason := "rebalance"
	if len(in.ownedShards(to)) == 0 {
		reason = "join"
	}
	return in.move(g, to, reason)
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
	if in.sealedTags {
		return fmt.Errorf("cluster: AddPattern on a sealed ingress (its pattern set is fixed)")
	}
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
	in.specs = append(in.specs, sp)
	in.reads = multi.ReadsOf(in.specs)
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
	in.broadcast(wire.PatternAdd{Entry: wire.PatternEntry{ID: sp.ID, Tenant: sp.Tenant, Pattern: sp.Pattern}}, slotLive)
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
	if in.sealedTags {
		return fmt.Errorf("cluster: RemovePattern on a sealed ingress (its pattern set is fixed)")
	}
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
	in.specs = append(in.specs[:at:at], in.specs[at+1:]...)
	in.reads = multi.ReadsOf(in.specs)
	in.sig = signature(in.specs, in.schema)
	in.broadcast(wire.PatternRemove{ID: id}, slotLive)
	return nil
}

// Patterns snapshots the current pattern set. Process goroutine.
func (in *Ingress) Patterns() []multi.Spec {
	return append([]multi.Spec(nil), in.specs...)
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

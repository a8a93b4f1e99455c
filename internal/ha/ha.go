// Package ha removes the cluster's last single point of failure: the
// ingress coordinator. A Pair runs a primary coordinator with a hot
// standby tailing it over a dedicated replication link — every sealed
// cut (events, owner table, worker addresses) is mirrored into a
// standby-side journal, every emission boundary is published, and every
// match is held at an emission gate until the cut producing it has been
// acknowledged by the mirror. On primary death the standby's state
// rebuilds a successor coordinator: it re-dials every worker (the
// replicated address table, falling back to the standby pool),
// announces a higher epoch so workers fence the dead primary,
// re-establishes each shard via adoption migrations that replay the
// mirror with the already-delivered prefix suppressed, re-feeds the
// unacknowledged event tail from a consumer-side ring, and drops the
// bounded skip prefix of regenerated matches the primary delivered past
// its last published emission state. The delivered stream is
// byte-identical to an unkilled run — the same guarantee workers
// already have for shard failover, extended to the coordinator itself.
//
// The standby is a separate process by default in deployment terms: it
// is a StandbyServer speaking only TCP framing (hosted by
// cmd/acep-standby, or spawned on loopback in-process when
// Config.StandbyAddr is empty — one code path either way), and takeover
// pulls the mirrored state back over the wire with the Handover
// exchange. Nothing about a takeover reads the standby's memory.
//
// Partition tolerance is arbitrated by a single-writer lease
// (internal/lease): an external arbiter at Config.LeaseAddr, or the same
// server spawned on loopback in-process when it is empty. The primary
// must hold the lease to emit, commits every prefix that delivers a match
// to it *before* emitting (commit-then-emit), renews it from the feed
// once the last renewal is LeaseTTL/4 old, and demotes — gate frozen, a
// Demotion recorded, the run surfacing an error unless a successor takes
// over — the moment it cannot renew or is fenced. The takeover successor
// must acquire the same lease first. Two coordinators partitioned from
// each other can therefore never both emit: whatever the partition does
// to the replication link, the lease server observes exactly one writer.
// Losing the standby or the replication link demotes the primary too: one
// that cannot prove its mirror is current must not keep emitting a stream
// a successor might re-emit. Losing the primary after the standby is gone
// is a double death and surfaces an explicit error.
package ha

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"acep/internal/cluster"
	"acep/internal/event"
	"acep/internal/lease"
	"acep/internal/match"
	"acep/internal/pattern"
	recovery "acep/internal/recover"
	"acep/internal/shard"
	"acep/internal/wire"
)

// replDepth is the replication sender's frame buffer: deep enough to
// decouple the ingress goroutine from the link's syscall latency,
// shallow enough that a stalled standby backpressures the primary
// within a few cuts instead of buffering unbounded history.
const replDepth = 4

// replLagCuts is the replication flow-control window: the primary
// blocks sealing a new cut once the standby's acknowledged watermark
// trails by more than this many cuts. The window keeps the pipeline
// full (sends overlap acks) while guaranteeing a hot mirror — the
// takeover state is never more than replLagCuts cuts behind the feed —
// and bounding the consumer-side ring, trimmed once per cut behind
// the wait, to replLagCuts+1 cuts of events.
const replLagCuts = 8

// Lease holder identities: the pair only ever has two candidate
// writers, the original primary and the takeover successor.
const (
	leasePrimaryHolder   = 1
	leaseSuccessorHolder = 2
)

// Config assembles a replicated coordinator pair.
type Config struct {
	// Pattern, Schema and KeyAttr mirror cluster.IngressOptions: the
	// pattern must be key-partitionable in KeyAttr over Schema.
	Pattern *pattern.Pattern
	Schema  *event.Schema
	KeyAttr string
	// Batch is the events-per-cut granularity (default 256). It is also
	// the replication granularity: the standby mirrors whole cuts.
	Batch int
	// Workers are the worker node listener addresses. The primary dials
	// each one; the successor re-dials them (or their replicated
	// replacements) on takeover.
	Workers []string
	// Standbys is the worker standby pool, shared between the primary's
	// node-failover path and the successor's takeover fallback dialing.
	Standbys []string
	// OnTagged receives the delivered match stream — gated, so a match
	// arrives only once across any single takeover.
	OnTagged func(shard.Tagged)
	// HeartbeatTimeout passes through to the coordinator's RecoveryConfig.
	HeartbeatTimeout time.Duration
	// StandbyAddr is the listener address of an out-of-process standby
	// (cmd/acep-standby). Empty spawns a StandbyServer on loopback
	// inside this process — same server, same protocol.
	StandbyAddr string
	// LeaseAddr is the lease arbiter's address (internal/lease). Empty
	// spawns a lease.Server on loopback inside this process — same
	// server, same protocol — which the pair closes when the run ends.
	LeaseAddr string
	// LeaseTTL is the emission lease's time-to-live (default 2s): the
	// window a partitioned primary can keep believing it is primary,
	// and the longest a successor waits for a dead primary's grant to
	// lapse.
	LeaseTTL time.Duration
	// ReplTimeout bounds the replication flow-control wait (default
	// 30s): a standby that has not acknowledged within it demotes the
	// primary even though the link never errored — the silently
	// blackholed peer a plain TCP read would wait on forever.
	ReplTimeout time.Duration
	// wrapWorker (tests) wraps each initially dialed worker connection,
	// by slot, to inject failures.
	wrapWorker func(i int, c cluster.Conn) cluster.Conn
	// WrapRepl (tests, chaos) wraps the primary's replication
	// connection to inject failures: drops, duplicates, delays,
	// partitions. The replication protocol is the one place silent
	// drops and duplicates are safe to inject — the cut ordinal detects
	// them.
	WrapRepl func(c cluster.Conn) cluster.Conn
}

// Pair is a replicated coordinator: one primary ingress, one hot
// standby, one replication link between them. Process, Finish,
// KillPrimary and KillStandby must run on a single goroutine (the
// feed); the OnTagged callback fires on collector or link goroutines.
type Pair struct {
	cfg         Config
	pool        func() (cluster.Conn, error)
	g           *gate
	srv         *StandbyServer // in-process standby; nil when StandbyAddr is set
	standbyAddr string
	arb         *lease.Server // in-process arbiter; nil when LeaseAddr is set
	leaseAddr   string
	ing         *cluster.Ingress

	replCh       chan wire.Frame
	replConn     cluster.Conn
	replDown     atomic.Bool
	replDownCh   chan struct{} // closed when replDown is first set
	replDownOnce sync.Once
	cleanFinal   atomic.Bool
	killedFlag   atomic.Bool
	senderDone   chan struct{}
	ackDone      chan struct{}
	replClosed   bool
	srvStopped   bool
	cutSeq       uint64   // dense replication cut ordinal (ingress goroutine)
	owner        []uint32 // the routing snapshot onCut last replicated (replOwner)

	leaseCl     *lease.Client
	leaseHolder uint64
	leaseEpoch  uint64
	// renewedAt is when the last successful lease RPC started, as an
	// offset from born (a monotonic reading): the keepalive in onCut
	// renews only once it is LeaseTTL/4 old. Written by the feed and the
	// gate's drain alike; two racing renewals may leave the earlier
	// start, which makes the next renewal due early, never late.
	born      time.Time
	renewedAt atomic.Int64

	// ring retains copies, attribute values included, of the fed events
	// the standby has not yet acknowledged (consumer side): the takeover
	// successor re-feeds the tail past the last mirrored cut. onCut trims
	// it to the gate's acked watermark after the flow-control wait, so it
	// holds at most replLagCuts+1 cuts of events. ringForfeited records
	// that a demoted primary outgrew demotedRingCap and dropped the tail —
	// takeover is off the table.
	ring          match.Block
	ringForfeited bool

	tookOver    bool
	standbyLost bool
	demotedFlag atomic.Bool
	demotion    atomic.Pointer[recovery.Demotion]
	takeover    *recovery.Takeover
	mirrorCuts  int
	mirrorEvs   int
	err         error
}

// New acquires the emission lease and connects the standby (spawning
// either server on loopback when no external address is given), dials
// the workers, and brings up the primary coordinator at epoch 1.
func New(cfg Config) (*Pair, error) {
	if cfg.Pattern == nil || cfg.Schema == nil || cfg.KeyAttr == "" {
		return nil, fmt.Errorf("ha: Pattern, Schema and KeyAttr are required")
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("ha: at least one worker address is required")
	}
	if cfg.OnTagged == nil {
		return nil, fmt.Errorf("ha: OnTagged is required (the pair exists to deliver a stream)")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 256
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.ReplTimeout <= 0 {
		cfg.ReplTimeout = 30 * time.Second
	}
	if cfg.Pattern.Window <= 0 {
		return nil, fmt.Errorf("ha: pattern window must be positive (it sizes the mirror journal)")
	}
	p := &Pair{
		cfg:        cfg,
		born:       time.Now(),
		replCh:     make(chan wire.Frame, replDepth),
		replDownCh: make(chan struct{}),
		senderDone: make(chan struct{}),
		ackDone:    make(chan struct{}),
	}
	if len(cfg.Standbys) > 0 {
		p.pool = cluster.DialStandbys(cfg.Standbys)
	}

	// The lease comes before anything else: a primary that cannot acquire
	// it must not start at all.
	p.leaseAddr = cfg.LeaseAddr
	if p.leaseAddr == "" {
		p.arb = lease.New()
		addr, err := p.arb.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		p.leaseAddr = addr
	}
	if _, err := p.acquireLease(leasePrimaryHolder); err != nil {
		p.closeArbiter()
		return nil, err
	}

	// The standby: an external process's listener, or the same server
	// spawned on loopback — the replication link is a real TCP stream
	// either way, so the frames serialize end to end and the mirror's
	// run bodies are its own copies with no aliasing back into the
	// primary.
	p.standbyAddr = cfg.StandbyAddr
	if p.standbyAddr == "" {
		l, err := cluster.ListenTCP("127.0.0.1:0")
		if err != nil {
			p.closeLease()
			return nil, fmt.Errorf("ha: replication listener: %w", err)
		}
		p.srv = NewStandbyServer(l)
		go p.srv.Serve()
		p.standbyAddr = l.Addr()
	}
	replConn, err := cluster.DialTCP(p.standbyAddr)
	if err != nil {
		p.stopStandby()
		p.closeLease()
		return nil, fmt.Errorf("ha: dialing replication link: %w", err)
	}
	if cfg.WrapRepl != nil {
		replConn = cfg.WrapRepl(replConn)
	}
	p.replConn = replConn
	// The opening Epoch frame carries the pattern window, the one journal
	// sizing the standby process cannot know on its own.
	if err := replConn.Send(wire.Epoch{Epoch: 1, Window: int64(cfg.Pattern.Window)}); err != nil {
		// The sender and ack reader have not started: tear down by hand.
		replConn.Close()
		p.stopStandby()
		p.closeLease()
		return nil, fmt.Errorf("ha: opening replication link: %w", err)
	}
	p.g = &gate{out: cfg.OnTagged, publish: p.replSend, commit: p.leaseCommit}
	p.g.ackCond = sync.NewCond(&p.g.mu)
	go p.sender()
	go p.ackReader()

	conns := make([]cluster.Conn, len(cfg.Workers))
	for i, addr := range cfg.Workers {
		c, err := cluster.DialTCP(addr)
		if err != nil {
			for _, cc := range conns[:i] {
				cc.Close()
			}
			p.abort()
			return nil, fmt.Errorf("ha: dialing worker %d: %w", i, err)
		}
		if cfg.wrapWorker != nil {
			c = cfg.wrapWorker(i, c)
		}
		conns[i] = c
	}
	opts := p.ingressOptions(1, cfg.Workers)
	opts.OnProgress = p.g.onProgress
	opts.Recovery.OnCut = p.onCut
	if p.ing, err = cluster.NewSealedIngress(cfg.Pattern, conns, opts); err != nil {
		p.abort()
		return nil, err
	}
	return p, nil
}

// ingressOptions is what the primary and its takeover successor
// configure alike: the session's key and cut size, the gated delivery,
// the coordinator epoch, where each slot's worker can be re-dialed, and
// worker failover from the shared standby pool.
func (p *Pair) ingressOptions(epoch uint64, addrs []string) cluster.IngressOptions {
	return cluster.IngressOptions{
		Batch: p.cfg.Batch, KeyAttr: p.cfg.KeyAttr, Schema: p.cfg.Schema,
		OnTagged: p.g.onTagged,
		Epoch:    epoch,
		Addrs:    addrs,
		Recovery: &cluster.RecoveryConfig{Standby: p.pool, HeartbeatTimeout: p.cfg.HeartbeatTimeout},
	}
}

// acquireLease dials the arbiter and waits out any current grant until
// holder owns the emission lease, returning the match count the previous
// holder committed. The wait is bounded: a grant lapses within one TTL.
func (p *Pair) acquireLease(holder uint64) (committed uint64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*p.cfg.LeaseTTL+2*time.Second)
	defer cancel()
	cl, err := lease.Dial(ctx, p.leaseAddr, cluster.DialPolicy{}, nil)
	if err != nil {
		return 0, fmt.Errorf("ha: lease arbiter unreachable: %w", err)
	}
	start := time.Since(p.born)
	fence, err := cl.AcquireWait(ctx, holder, p.cfg.LeaseTTL)
	if err != nil {
		cl.Close()
		return 0, fmt.Errorf("ha: emission lease not acquired: %w", err)
	}
	p.leaseCl, p.leaseHolder, p.leaseEpoch = cl, holder, fence.Epoch
	p.renewedAt.Store(int64(start))
	return fence.Count, nil
}

// stopStandby stops the in-process standby server (no-op for an
// external one — that is its own process) and waits it out. Idempotent.
func (p *Pair) stopStandby() {
	if p.srv == nil || p.srvStopped {
		return
	}
	p.srvStopped = true
	p.srv.Stop()
	p.srv.Wait()
}

// closeArbiter closes the in-process lease arbiter (no-op for an
// external one). Idempotent.
func (p *Pair) closeArbiter() {
	if p.arb != nil {
		p.arb.Close()
	}
}

// closeLease drops the lease client and closes the in-process arbiter:
// the end of the pair's lease, on every terminal path.
func (p *Pair) closeLease() {
	p.leaseCl.Close()
	p.closeArbiter()
}

// abort tears the replication machinery down from a failed
// construction: closing the link first unblocks the ack reader, so
// shutdownRepl's joins cannot hang on a healthy standby.
func (p *Pair) abort() {
	p.cleanFinal.Store(true) // suppress link-loss bookkeeping: nothing ran
	p.markReplDown()
	p.replConn.Close()
	p.shutdownRepl()
	p.stopStandby()
	p.closeLease()
}

// leaseCommit is the gate's commit hook (called with the gate unlocked,
// from a drain) and the feed's keepalive: renew the lease and durably
// record the emission state. Any failure — transport error or a fence
// from a higher epoch — records the demotion and vetoes the emit; a
// success stamps renewedAt with the time the RPC started, so a renewal
// is never credited with time it spent in flight.
func (p *Pair) leaseCommit(boundary, count uint64) bool {
	start := time.Since(p.born)
	fence, err := p.leaseCl.Renew(p.leaseHolder, p.leaseEpoch, p.cfg.LeaseTTL, boundary, count)
	if err != nil {
		p.noteDemotion(fmt.Sprintf("ha: lease renew failed: %v", err))
		return false
	}
	if !fence.Granted {
		p.noteDemotion(fmt.Sprintf("ha: fenced off the emission lease by holder %d at epoch %d", fence.Holder, fence.Epoch))
		return false
	}
	p.renewedAt.Store(int64(start))
	return true
}

// renewDue reports whether the keepalive should renew: the last
// successful lease RPC started LeaseTTL/4 ago or more. A silently
// partitioned arbiter is therefore caught within LeaseTTL/4 plus one RPC
// timeout of feed time, while a healthy pair renews a few times per TTL
// instead of once per cut.
func (p *Pair) renewDue() bool {
	return time.Since(p.born)-time.Duration(p.renewedAt.Load()) >= p.cfg.LeaseTTL/4
}

// noteDemotion records the demotion and severs replication (the gate
// freeze happens at the call site — inside the failing drain, or via
// demote). Idempotent.
func (p *Pair) noteDemotion(cause string) {
	if !p.demotedFlag.CompareAndSwap(false, true) {
		return
	}
	b, c := p.g.committedState()
	p.demotion.Store(&recovery.Demotion{
		At: time.Now(), Cause: cause,
		Epoch: p.leaseEpoch, Boundary: b, Count: c,
	})
	// Stop replicating: the mirror may be partitioned away, and a
	// frozen primary has nothing further to mirror. Closing the link
	// also unblocks the sender and ack reader. The lease is NOT
	// released — the last committed state must stand exactly as the
	// final commit left it, and the grant lapses by TTL.
	p.markReplDown()
	p.replConn.Close()
}

// demote is the feed-side demotion path (keepalive failure, replication
// timeout): record it and freeze the gate.
func (p *Pair) demote(cause string) {
	p.noteDemotion(cause)
	p.g.demote()
}

// onCut is the primary's replication tap (ingress goroutine, behind the
// send barrier): the sealed cut becomes one ReplCut frame stamped with
// the next dense cut ordinal — the standby's dedup/gap detector. The run
// headers are copied — the ingress reuses them after the call — Owner is
// the routing snapshot (replOwner), Addrs is ours to keep, and the run
// bodies are the bytes the ingress framed to the workers and its journal
// retains, immutable for the rest of the run.
func (p *Pair) onCut(ci cluster.CutInfo) {
	if p.replDown.Load() {
		return
	}
	p.cutSeq++
	p.replCh <- wire.ReplCut{
		UpTo: ci.UpTo, Cut: p.cutSeq, Final: ci.Final,
		Owner: p.replOwner(ci.Owner),
		Addrs: ci.Addrs,
		Runs:  slices.Clone(ci.Runs),
	}
	if ci.Final {
		// The Final cut resolves through the stand-down handshake in
		// Finish rather than flow control.
		return
	}
	if !p.demotedFlag.Load() && p.renewDue() {
		// Lease keepalive: on a silently partitioned arbiter this is
		// what demotes the primary promptly — the gate commits only a
		// prefix that emits, and none once acks stop advancing the
		// threshold.
		b, c := p.g.committedState()
		if !p.leaseCommit(b, c) {
			p.g.demote()
			return
		}
	}
	if ci.UpTo > uint64(replLagCuts*p.cfg.Batch) {
		// Flow control: block the feed until the mirror is within the
		// replication window — but never forever. A timeout here is the
		// silently blackholed standby.
		floor := ci.UpTo - uint64(replLagCuts*p.cfg.Batch)
		if !p.g.waitAckedTimeout(floor, p.cfg.ReplTimeout) {
			p.markReplDown()
			p.replConn.Close()
			p.linkLost(fmt.Errorf("ha: standby acknowledgements stalled for %v (silent partition)", p.cfg.ReplTimeout))
		}
	}
	if !p.demotedFlag.Load() && !p.replDown.Load() {
		p.trimRing()
	}
}

// replOwner returns the routing table as the wire carries it (an
// abandoned shard is ^0): an immutable snapshot, made anew only when the
// ingress's routing has changed since the last cut, so the sender
// goroutine may encode it while the next cut is sealed. Ingress goroutine.
func (p *Pair) replOwner(owner []int) []uint32 {
	same := len(p.owner) == len(owner)
	for g := 0; same && g < len(owner); g++ {
		same = p.owner[g] == uint32(owner[g])
	}
	if !same {
		p.owner = make([]uint32, len(owner))
		for g, o := range owner {
			p.owner[g] = uint32(o) // -1 becomes ^0
		}
	}
	return p.owner
}

// markReplDown records that the replication link is gone and releases
// every producer blocked on it.
func (p *Pair) markReplDown() {
	p.replDown.Store(true)
	p.replDownOnce.Do(func() { close(p.replDownCh) })
}

// replSend enqueues a gate-published frame on the replication link. It
// runs under the gate lock, so it must not outwait a dead link: whoever
// notices the failure — the sender itself included — goes on to
// linkLost, which needs that lock, and so cannot be relied on to drain
// replCh first.
func (p *Pair) replSend(f wire.Frame) {
	select {
	case <-p.replDownCh:
	case p.replCh <- f:
	}
}

// sender owns all writes to the replication link: ReplCut frames from
// the ingress goroutine and ReplState frames from the gate serialize
// through one channel, keeping the single-writer contract of the Conn.
// After a link failure it keeps draining (discarding) so no producer
// ever blocks on a dead standby.
func (p *Pair) sender() {
	defer close(p.senderDone)
	for f := range p.replCh {
		if p.replDown.Load() {
			continue
		}
		if err := p.replConn.Send(f); err != nil {
			p.markReplDown()
			p.linkLost(err)
		}
	}
}

// ackReader consumes the standby's acknowledgements: per-cut mirror
// watermarks, and the terminal stand-down ack that fully opens the
// gate at end of stream.
func (p *Pair) ackReader() {
	defer close(p.ackDone)
	for {
		f, err := p.replConn.Recv()
		if err != nil {
			if !p.cleanFinal.Load() {
				p.markReplDown()
				p.linkLost(err)
			}
			return
		}
		if w, ok := f.(wire.Watermark); ok {
			if w.UpTo == math.MaxUint64 {
				// Terminal stand-down ack: the standby saw the Final cut
				// and holds its session open for our teardown. Exit here
				// rather than wait for a link event that never comes.
				p.cleanFinal.Store(true)
				p.g.onAck(w.UpTo)
				return
			}
			p.g.onAck(w.UpTo)
		}
	}
}

// linkLost routes a replication-link failure. After a clean final, a
// deliberate primary kill, or a demotion already recorded it is
// expected. Otherwise a primary that lost its mirror must demote: it can
// no longer prove a successor could resume exactly, and availability now
// belongs to whoever holds the lease next.
func (p *Pair) linkLost(err error) {
	if p.cleanFinal.Load() || p.killedFlag.Load() || p.demotedFlag.Load() {
		return
	}
	p.demote(fmt.Sprintf("ha: replication link lost: %v", err))
}

// demotedRingCap bounds the consumer-side ring on a demoted primary.
// After a demotion the acked watermark is frozen, so trimRing can never
// reclaim the ring again — yet the tail must keep growing, because a
// demoted primary can still be superseded (KillPrimary drives the
// standby takeover) and the successor re-feeds exactly this tail.
// Retaining it forever trades unbounded memory for takeover coverage;
// past the cap the pair forfeits takeover explicitly (the ring is
// dropped and KillPrimary reports it) rather than grow without bound
// or lose tail events silently. A var so tests can shrink the window.
var demotedRingCap = 1 << 18

// Process feeds one event through the primary (or, after takeover, the
// successor). Same contract as Ingress.Process: nothing of ev is kept —
// the refeed ring copies it, attribute values included, into storage of
// its own that onCut trims.
func (p *Pair) Process(ev *event.Event) {
	if p.err != nil {
		return
	}
	switch {
	case p.tookOver || p.standbyLost || p.ringForfeited:
		// No successor can ever consume the ring from here (the
		// successor replays its own journal after a takeover; a lost
		// standby means a later kill is a double death) — it is dead
		// weight, and with acks stopped trimRing would never reclaim it.
		p.ring = match.Block{}
	case p.demotedFlag.Load():
		// Demoted but still supersedable: retain the takeover tail up
		// to the cap, then forfeit takeover instead of growing forever.
		if p.ring.Len() >= demotedRingCap {
			p.ring = match.Block{}
			p.ringForfeited = true
		} else {
			p.ring.Intern(ev)
		}
	default:
		p.ring.Intern(ev)
	}
	p.ing.Process(ev)
}

// trimRing drops the ring prefix the standby has acknowledged — those
// events live in the mirror journal now and will never be re-fed. onCut
// calls it once per cut, after the flow-control wait.
func (p *Pair) trimRing() {
	acked := p.g.ackedSeq()
	i := 0
	for i < p.ring.Len() && p.ring.At(i).Seq <= acked {
		i++
	}
	p.ring.DropFront(i)
}

// Finish flushes and drains the stream. On the primary path the final
// cut rides the replication link, the standby acknowledges it and
// stands down, and the gate opens fully — so every match (including
// the end-of-stream flush matches at the max watermark) is delivered
// before Finish returns. A demoted primary that was never taken over
// finishes with an explicit error: its stream is incomplete by design,
// and silence would hide the partition.
func (p *Pair) Finish() error {
	if p.err != nil {
		return p.err
	}
	err := p.ing.Finish()
	p.shutdownRepl()
	p.stopStandby()
	demoted := p.demotedFlag.Load()
	if p.tookOver || !demoted {
		b, c := p.g.committedState()
		p.leaseCl.Release(p.leaseHolder, p.leaseEpoch, b, c) //nolint:errcheck // best-effort courtesy to the next holder
	}
	p.closeLease()
	if err != nil {
		return err
	}
	if err := p.g.failure(); err != nil {
		return err // the stream stopped short at a match that would not decode
	}
	if demoted && !p.tookOver {
		d := p.demotion.Load()
		return fmt.Errorf("ha: primary demoted without takeover: %s", d.Cause)
	}
	return nil
}

// shutdownRepl tears the replication machinery down in dependency
// order: wait for the ack reader (it exits on stand-down, link failure,
// demotion, or kill), stop the sender, then close the link. Idempotent;
// safe on every path (clean finish, demoted, takeover).
func (p *Pair) shutdownRepl() {
	if p.replClosed {
		return
	}
	p.replClosed = true
	<-p.ackDone
	close(p.replCh)
	<-p.senderDone
	p.replConn.Close()
}

// KillPrimary kills the primary coordinator as if its process died —
// the emission gate freezes, the replication link drops, every worker
// connection slams shut — and then drives the standby's takeover: the
// successor acquires the emission lease, pulls the mirrored state from
// the standby process over the handover protocol, and resumes the
// stream. Returns the double-death error when the standby was already
// lost; the takeover record is available from Takeover(). Once the
// primary is dead the standby stops whatever the outcome, and a failed
// takeover closes the pair's lease too: no successor will ever hold it.
func (p *Pair) KillPrimary() (err error) {
	if p.err != nil {
		return p.err
	}
	if p.tookOver {
		return fmt.Errorf("ha: primary already killed (successor running)")
	}
	p.killedFlag.Store(true)
	// The link goes first: a drain the kill waits out must not block
	// publishing to it.
	p.markReplDown()
	p.replConn.Close()
	p.g.kill()
	p.ing.Kill()
	p.shutdownRepl()
	// The dead primary's client dies with it; the grant lapses by TTL (a
	// dead process releases nothing).
	p.leaseCl.Close()
	defer func() {
		p.stopStandby()
		if err != nil {
			p.closeLease()
			p.err = err
		}
	}()

	if p.standbyLost {
		return fmt.Errorf("ha: double death: primary killed after the standby was lost; the stream cannot resume")
	}
	if p.ringForfeited {
		return fmt.Errorf("ha: takeover impossible: the demoted primary outlived its takeover window (event tail exceeded %d events and was dropped)", demotedRingCap)
	}

	// Arbitration before anything else: no lease, no takeover. The
	// successor waits out the dead primary's grant, and reads from the
	// lease how many matches the dead primary delivered — exact by
	// commit-then-emit, readable across a process boundary, immune to
	// partition-lost ReplStates.
	delivered, err := p.acquireLease(leaseSuccessorHolder)
	if err != nil {
		return fmt.Errorf("ha: takeover blocked: %w", err)
	}

	st, err := p.fetchMirror(2)
	if err != nil {
		return fmt.Errorf("ha: double death: %w", err)
	}
	p.mirrorCuts, p.mirrorEvs = st.cuts, st.events
	detectedAt := st.detectedAt
	cause := st.cause
	if !st.dead {
		// The standby had not yet observed the death when we read the
		// handover; the death is still real, just attributed here.
		detectedAt = time.Now()
		cause = "ha: primary killed before the mirror observed it"
	}
	if st.journal == nil {
		return fmt.Errorf("ha: takeover impossible: the standby mirrored no cut before the primary died")
	}
	return p.runTakeover(delivered, st, cause, detectedAt)
}

// fetchMirror pulls the mirrored state out of the standby process over
// the handover protocol: dial, one Handover request, the HandoverState
// header, then the retained journal cuts as ReplCut frames.
func (p *Pair) fetchMirror(epoch uint64) (mirrorState, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c, err := cluster.DialTCPContext(ctx, p.standbyAddr, cluster.DialPolicy{})
	if err != nil {
		return mirrorState{}, fmt.Errorf("standby unreachable for handover: %w", err)
	}
	defer c.Close()
	// A response is owed for the whole session: a wedged standby must
	// surface as an error, not hang the takeover.
	if sc, ok := c.(interface{ SetReadStall(time.Duration) }); ok {
		sc.SetReadStall(5 * time.Second)
	}
	if err := c.Send(wire.Handover{Epoch: epoch}); err != nil {
		return mirrorState{}, fmt.Errorf("handover request: %w", err)
	}
	f, err := c.Recv()
	if err != nil {
		return mirrorState{}, fmt.Errorf("handover header: %w", err)
	}
	hs, ok := f.(wire.HandoverState)
	if !ok {
		return mirrorState{}, fmt.Errorf("handover: unexpected %s frame", wire.KindOf(f))
	}
	st := mirrorState{
		lastUpTo: hs.LastUpTo,
		emitted:  hs.EmittedUpTo, count: hs.Count,
		cuts: int(hs.LastCut), events: int(hs.Events),
		dead: hs.Dead, cause: hs.Cause,
		addrs: hs.Addrs,
	}
	if hs.DetectedAt != 0 {
		st.detectedAt = time.Unix(0, int64(hs.DetectedAt))
	}
	st.owner = make([]int, len(hs.Owner))
	for g, o := range hs.Owner {
		if o == ^uint32(0) {
			st.owner[g] = -1
		} else {
			st.owner[g] = int(o)
		}
	}
	if hs.Cuts > 0 && len(hs.Owner) > 0 {
		// Rebuild the mirror journal locally: the successor knows the
		// pattern window (it shares the pair's Config).
		j, err := recovery.NewJournal(recovery.JournalConfig{Window: p.cfg.Pattern.Window, Shards: len(hs.Owner)})
		if err != nil {
			return mirrorState{}, fmt.Errorf("rebuilding mirror journal: %w", err)
		}
		for i := uint64(0); i < hs.Cuts; i++ {
			f, err := c.Recv()
			if err != nil {
				return mirrorState{}, fmt.Errorf("handover cut %d/%d: %w", i+1, hs.Cuts, err)
			}
			rc, ok := f.(*wire.ReplCut)
			if !ok {
				return mirrorState{}, fmt.Errorf("handover cut %d/%d: unexpected %s frame", i+1, hs.Cuts, wire.KindOf(f))
			}
			if err := j.AppendRuns(rc.Runs, rc.UpTo); err != nil {
				return mirrorState{}, fmt.Errorf("handover cut %d/%d: %w", i+1, hs.Cuts, err)
			}
		}
		j.Advance(hs.EmittedUpTo)
		st.journal = j
	}
	return st, nil
}

// runTakeover builds the successor from the mirrored state: re-dial
// every live slot (replicated address first, standby pool as fallback),
// construct a resuming ingress at epoch 2, re-feed the unacknowledged
// event tail, and record the incident.
func (p *Pair) runTakeover(delivered uint64, st mirrorState, cause string, detectedAt time.Time) error {
	slotIdx := make(map[int]int)
	var conns []cluster.Conn
	var addrs []string
	redialed := 0
	newOwner := make([]int, len(st.owner))
	fail := func(err error) error {
		for _, c := range conns {
			c.Close()
		}
		return err
	}
	for g, o := range st.owner {
		if o < 0 {
			newOwner[g] = -1
			continue
		}
		idx, ok := slotIdx[o]
		if !ok {
			var c cluster.Conn
			addr := ""
			if o < len(st.addrs) {
				addr = st.addrs[o]
			}
			if addr != "" {
				if cc, err := cluster.DialTCP(addr); err == nil {
					c = cc
					redialed++
				}
			}
			if c == nil && p.pool != nil {
				if cc, err := p.pool(); err == nil {
					c = cc
				}
			}
			if c == nil {
				return fail(fmt.Errorf("ha: double death: worker slot %d (addr %q) unreachable and no standby remains", o, addr))
			}
			idx = len(conns)
			conns = append(conns, c)
			addrs = append(addrs, addr)
			slotIdx[o] = idx
		}
		newOwner[g] = idx
	}
	// The regenerated stream repeats, in the same deterministic merge
	// order, exactly the matches the primary delivered past the last
	// emission state the mirror received — drop that many.
	skip := delivered - st.count
	p.g.takeover(skip)
	opts := p.ingressOptions(2, addrs)
	opts.Recovery.Resume = &cluster.ResumeState{
		NextSeq: st.lastUpTo, Boundary: st.emitted,
		Owner: newOwner, Journal: st.journal,
	}
	ing, err := cluster.NewSealedIngress(p.cfg.Pattern, conns, opts)
	if err != nil {
		return fmt.Errorf("ha: building takeover successor: %w", err)
	}
	p.ing = ing
	p.tookOver = true
	refed := 0
	for i := 0; i < p.ring.Len(); i++ {
		if p.ring.At(i).Seq <= st.lastUpTo {
			continue
		}
		ing.Process(p.ring.At(i))
		refed++
	}
	p.ring = match.Block{}
	var replayCuts, replayEvents int
	for _, m := range ing.Migrations() {
		if m.Reason == "takeover" {
			replayCuts += m.ReplayCuts
			replayEvents += m.ReplayEvents
		}
	}
	p.takeover = &recovery.Takeover{
		Epoch: 2, Cause: cause, DetectedAt: detectedAt,
		Boundary: st.emitted, Skipped: skip,
		Workers: len(conns), Redialed: redialed,
		ReplayCuts: replayCuts, ReplayEvents: replayEvents,
		RefedEvents: refed, ResumedAt: time.Now(),
	}
	return nil
}

// KillStandby kills the standby as if its process died. The primary
// demotes at once (it can no longer prove its mirror) — before the
// standby stops, so the demotion names the standby rather than the
// link loss its death causes — and a later KillPrimary is a double
// death.
func (p *Pair) KillStandby() {
	p.standbyLost = true
	if !p.tookOver {
		p.demote("ha: standby killed; the primary cannot prove its mirror is current")
	}
	p.stopStandby()
}

// Ingress exposes the live coordinator (primary, or successor after
// takeover) for metrics and placement introspection.
func (p *Pair) Ingress() *cluster.Ingress { return p.ing }

// Takeover reports the coordinator-takeover record (nil if the primary
// was never killed or takeover failed).
func (p *Pair) Takeover() *recovery.Takeover { return p.takeover }

// Demotion reports the primary's demotion record (nil if it never lost
// the emission lease).
func (p *Pair) Demotion() *recovery.Demotion { return p.demotion.Load() }

// Degraded always reports false: a pair that loses its standby or its
// replication link demotes (see Demotion) rather than serve on.
//
// Deprecated: there is no degraded mode; use Demotion.
func (p *Pair) Degraded() (bool, string) { return false, "" }

// MirrorStats reports how much the standby mirrored (cuts, events) —
// the replication volume behind the overhead measurements. For an
// external standby the numbers come from the handover (zero before a
// takeover).
func (p *Pair) MirrorStats() (cuts, events int) {
	if p.srv != nil {
		return p.srv.Stats()
	}
	return p.mirrorCuts, p.mirrorEvs
}

// Delivered reports the matches emitted downstream so far.
func (p *Pair) Delivered() uint64 { return p.g.deliveredCount() }

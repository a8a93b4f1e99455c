package cluster

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/shard"
	"acep/internal/shed"
	"acep/internal/wire"
)

// NodeConfig assembles a worker node: which pattern set it is willing to
// host, how many shards it claims at the handshake, and the shard-layer
// tuning its engine runs with. The ingress assigns the node's initial
// slice of the global shard space during the handshake — and may migrate
// shards in and out afterwards — so the same binary can serve any
// position in any cluster layout.
type NodeConfig struct {
	// Pattern pins the session to the set of one: the node greets with
	// the fingerprint of {Pattern} under Schema and the ingress refuses to
	// pair unless that is the set it opens with. Nil runs the node bare:
	// it greets with fingerprint 0 and hosts whatever set the ingress
	// ships — the standby/join mode of the elasticity subsystem, and the
	// zero-config way to start a worker fleet. Either way the node hosts
	// the set and schema shipped in the Assign frame.
	Pattern *pattern.Pattern
	// Engine configures every hosted pattern's engine on every local shard
	// identically (same contract as shard.New: OnMatch must be nil).
	// Ingress shedding lives here too: Engine.Shedding applies per pattern
	// per local shard, with each shard's queue-wait p99 probing the load
	// monitor.
	Engine engine.Config
	// Shards is the number of shards this node claims in its hello
	// (default 1); the ingress sizes the global shard space from the
	// fleet's claims. The session's engine spans the whole global space
	// — shards the node does not own simply stay idle — which is what
	// lets any shard migrate onto any node mid-run.
	Shards int
	// Batch cuts nothing on a node — the ingress's network cut is the
	// only cut, and each shard's run of it is one handoff — it only
	// converts QueueCap into handoffs (default 256; see shard.Options).
	Batch int
	// QueueCap bounds each local shard's ingestion queue in events: a
	// shard may fall QueueCap/Batch handoffs behind (see shard.Options).
	QueueCap int
	// Overflow selects the full-queue behavior (default Backpressure).
	// DropNewest discards a shard's whole run of the overflowing cut.
	Overflow shard.Overflow
	// KeyAttr pins the partition key the way Pattern pins the set: the
	// node greets with it and the ingress refuses to pair unless it is
	// the session's key. Empty takes whatever key the ingress ships.
	KeyAttr string
	// Schema is the schema Pattern is fingerprinted under (required with
	// a Pattern).
	Schema *event.Schema
	// writeStall bounds how long the node's upstream sender tolerates
	// zero write progress before failing the session (0: 30s; tests
	// shorten it). A coordinator that stops reading — wedged process,
	// one-way partition — otherwise blocks the sender mutex forever and
	// wedges the whole session with it.
	writeStall time.Duration
}

// Node hosts shards of the global shard space behind a transport
// connection. Construct with NewNode, then Serve one connection (or
// ServeListener for an accept loop).
type Node struct {
	cfg NodeConfig
	sig uint64

	// epoch is the highest coordinator epoch any session of this Node
	// has served — process-level state, deliberately shared across
	// ServeListener sessions. A takeover successor raises it through its
	// Assign frame; sessions a superseded primary still drives are
	// refused at the handshake or terminated at their next frame, so a
	// zombie coordinator cannot keep feeding workers after its standby
	// took over. Non-HA coordinators all stamp epoch 0 and never move
	// the fence.
	epoch atomic.Uint64
}

// signature fingerprints a pattern set plus the schema's type/attribute
// layout; ingress and node must agree on both for events and matches to
// mean the same thing on either side.
func signature(specs []multi.Spec, s *event.Schema) uint64 {
	var b strings.Builder
	for _, sp := range specs {
		fmt.Fprintf(&b, "%d@%d:%s;", sp.ID, sp.Tenant, sp.Pattern.String())
	}
	if s != nil {
		for t := 0; t < s.NumTypes(); t++ {
			fmt.Fprintf(&b, "|%s:%v", s.TypeName(t), s.Attrs(t))
		}
	}
	return wire.Fingerprint(b.String())
}

// NewNode validates the configuration and fingerprints a pinned
// pattern. The schema, the key and the set a session runs are the ones
// its handshake ships.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	n := &Node{cfg: cfg}
	if cfg.Pattern != nil {
		if cfg.Schema == nil {
			return nil, fmt.Errorf("cluster: a node's Pattern needs its Schema")
		}
		n.sig = signature(multi.Solo(cfg.Pattern, cfg.Engine), cfg.Schema)
	}
	return n, nil
}

// sender serializes a node's upstream frames and latches the first send
// error; after a failure every further send is a no-op, so the engines
// can still drain cleanly. The mutex interleaves the Serve loop's
// heartbeats with the collector goroutine's Matches frames.
// When the conn supports held sends (fl non-nil), frames accumulate in
// its write buffer until a flush pushes the burst out in one syscall: the
// loop's, after each frame it handles (take marks it busy until then), or
// the collector's own, when it releases results while the loop is idle.
type sender struct {
	mu   sync.Mutex
	c    Conn
	rs   resultSender // nil: beats and Matches frames go boxed through c.Send
	fl   sendHolder
	busy bool // the loop is handling a frame and will flush after it
	err  error
}

func (s *sender) send(f wire.Frame) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.c.Send(f)
	}
	s.mu.Unlock()
}

// beat sends a Heartbeat, unboxed where the transport offers it.
func (s *sender) beat(upTo uint64) {
	s.mu.Lock()
	if s.err == nil {
		if s.rs != nil {
			s.err = s.rs.SendBeat(upTo)
		} else {
			s.err = s.c.Send(wire.Heartbeat{UpTo: upTo})
		}
	}
	s.mu.Unlock()
}

// release sends the collector's Matches frame, unboxed where the
// transport offers it, and, unless the loop will flush it, flushes: a
// cut's results leave when they are released.
func (s *sender) release(m wire.Matches) {
	s.mu.Lock()
	if s.err == nil {
		if s.rs != nil {
			s.err = s.rs.SendMatches(m)
		} else {
			s.err = s.c.Send(m)
		}
	}
	if s.err == nil && s.fl != nil && !s.busy {
		s.err = s.fl.Flush()
	}
	s.mu.Unlock()
}

// take marks the loop busy with a frame it received.
func (s *sender) take() {
	s.mu.Lock()
	s.busy = true
	s.mu.Unlock()
}

// flush pushes out what is held and marks the loop idle.
func (s *sender) flush() {
	s.mu.Lock()
	if s.err == nil && s.fl != nil {
		s.err = s.fl.Flush()
	}
	s.busy = false
	s.mu.Unlock()
}

func (s *sender) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Serve runs one ingress session over the connection: handshake, event
// ingestion with uniform watermark flushes, one Matches frame back per
// progress step, shard migration in and out, and a final metrics report. It
// returns when the ingress finishes the stream (nil) or the transport
// fails (the error), closing the connection either way.
//
// The Assign reply fixes the global shard space and names no shard.
// Every session runs one engine spanning the whole space and runs the
// shards it is sent runs of. A shard Migrated in replays its journaled
// history, with matches at or below the shipped release boundary
// suppressed as already delivered, so it lands on a worker bit-identical
// to the one a founding member would have run.
func (n *Node) Serve(conn Conn) error {
	defer conn.Close()
	if sc, ok := conn.(interface{ SetWriteStall(time.Duration) }); ok {
		sc.SetWriteStall(cmp.Or(n.cfg.writeStall, 30*time.Second))
	}
	if err := conn.Send(wire.Hello{
		Version:    wire.Version,
		Shards:     uint32(n.cfg.Shards),
		PatternSig: n.sig,
		KeyAttr:    n.cfg.KeyAttr,
	}); err != nil {
		return fmt.Errorf("cluster: node hello: %w", err)
	}
	f, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: node awaiting assignment: %w", err)
	}
	a, ok := f.(wire.Assign)
	if !ok {
		return fmt.Errorf("cluster: node expected assign frame, got %s", wire.KindOf(f))
	}
	return n.serveSession(conn, a)
}

// serveSession hosts one ingress session.
func (n *Node) serveSession(conn Conn, a wire.Assign) error {
	// Epoch fence, entry half: latch the highest coordinator epoch this
	// process has served and refuse anything lower — a session from a
	// primary that a takeover already superseded must not rebuild state.
	// (The loop half below terminates a session that was current at the
	// handshake but got superseded mid-run.)
	for {
		cur := n.epoch.Load()
		if a.Epoch < cur {
			return fmt.Errorf("cluster: node fencing coordinator epoch %d (process has served epoch %d)", a.Epoch, cur)
		}
		if n.epoch.CompareAndSwap(cur, a.Epoch) {
			break
		}
	}
	// The session hosts the shipped set behind one shared-evaluation
	// engine; a configured node's fingerprint was already cross-validated
	// against it by the ingress.
	if len(a.Patterns) == 0 {
		return fmt.Errorf("cluster: node got an assignment without a pattern set")
	}
	specs := make([]multi.Spec, len(a.Patterns))
	for i, e := range a.Patterns {
		specs[i] = multi.Spec{ID: e.ID, Tenant: e.Tenant, Pattern: e.Pattern, Config: n.cfg.Engine}
	}
	total := int(a.Total)
	if total < 1 {
		return fmt.Errorf("cluster: assignment of an empty global shard space")
	}

	// The engine spans the full global shard space — worker g IS global
	// shard g — so the cluster-wide event-to-engine assignment, and
	// therefore every engine's event subsequence and its match tags, is
	// identical to a single-process sharded engine with `total` shards
	// regardless of which node runs which shard. Workers for shards this
	// session does not own receive
	// no events and stay idle; a migrated-in shard rebuilds its worker
	// from replayed history (the adaptation trajectory differs — plans
	// restart fresh — but match sets and tags do not depend on it).
	up := &sender{c: conn}
	up.rs, _ = conn.(resultSender)
	// Coalesced upstream writes: the transport holds the cut's burst
	// (heartbeat, Matches) in its write buffer. The loop flushes once per
	// inbound frame, carrying out whatever the collector released
	// meanwhile; the collector flushes its own only while the loop waits
	// for a frame. A loop kept busy then costs one write syscall per cut,
	// and an idle one still sends a cut's results when they are released.
	// The handler boundary is a protocol quiescence point: the ingress
	// never blocks on a node frame while it still has frames of its own
	// to send, and the final drain is flushed before the session returns.
	if h, ok := conn.(sendHolder); ok {
		h.SetSendHold(true)
		up.fl = h
	}

	// Migration state, shared between the session loop (which receives
	// Migrate frames and the ShardRoute markers that end each replay
	// burst) and the engine collector goroutine (which emits matches and
	// watermarks). suppress[g] is the release boundary below which
	// regenerated matches are duplicates. ackWait[g] is the strict
	// watermark threshold above which shard g's replay is provably
	// processed: it is the highest cut watermark enqueued when the
	// post-replay marker arrived, so any completion watermark beyond it
	// belongs to a cut enqueued after every replay batch — and cuts
	// complete in order, with matches delivered before their watermark.
	var (
		migMu    sync.Mutex
		suppress = map[int]uint64{}
		ackWait  = map[int]uint64{}
		pending  []int // Migrate received, awaiting the ShardRoute marker
		maxUpTo  uint64
	)

	// The Matches frame being filled, on the engine's collector goroutine:
	// every match it releases is copied in as a record — so nothing outside
	// this node aliases a worker's outbox slab — and each progress step
	// sends the frame. Send has copied the bytes when it returns, so the
	// buffer is refilled.
	var (
		recs []byte
		nrec int
	)
	sendMatches := func(upTo uint64) {
		up.release(wire.Matches{UpTo: upTo, Count: nrec, Recs: recs})
		recs, nrec = recs[:0], 0
	}

	// Per-tenant budgets apply per local shard.
	budgets := make(map[uint32]shed.TenantBudget, len(a.Tenants))
	for _, t := range a.Tenants {
		budgets[t.Tenant] = t.Budget
	}
	eng, err := shard.New(nil, engine.Config{}, shard.Options{
		Shards:   total,
		Batch:    n.cfg.Batch,
		QueueCap: n.cfg.QueueCap,
		Overflow: n.cfg.Overflow,
		KeyAttr:  a.KeyAttr,
		Schema:   a.Schema,
		Patterns: specs,
		Tenants:  budgets,
		// Workers encode each match into the cut's outbox slab as it is
		// emitted — the one encode of its life: the tag carries the body,
		// the body is copied into the frame, and everything from here to
		// the emission boundary carries those bytes.
		EncodeMatch: wire.AppendMatchBody,
		OnTagged: func(t shard.Tagged) {
			migMu.Lock()
			boundary, migrated := suppress[t.Src]
			migMu.Unlock()
			if migrated && t.Seq <= boundary {
				return // already delivered before the shard moved here
			}
			recs = wire.AppendMatchRecord(recs, uint32(t.Src), t.Seq, t.Pattern, t.Enc)
			nrec++
		},
		OnProgress: func(w uint64) {
			// Acknowledge caught-up migrations before the watermark that
			// proves them, so the ingress completes the move before it
			// can act on the watermark — and behind the matches released
			// so far: completing a move unfreezes the shard at the ingress,
			// which must not release past a match still on its way.
			var ready []int
			migMu.Lock()
			for g, limit := range ackWait {
				if w > limit {
					ready = append(ready, g)
				}
			}
			for _, g := range ready {
				delete(ackWait, g)
			}
			migMu.Unlock()
			if len(ready) > 0 {
				if nrec > 0 {
					sendMatches(0)
				}
				sort.Ints(ready)
				for _, g := range ready {
					up.send(wire.MigrateAck{Shard: uint32(g), UpTo: w})
				}
			}
			sendMatches(w)
		},
	})
	if err != nil {
		return err
	}
	// Zero-copy receive: the transport decodes a run inside Recv straight
	// into a block of the engine's pool — the decoded slots are the events
	// the evaluators retain, no re-intern — through this arena, which holds
	// the block only until a Batch frame's case takes it out for the engine,
	// and surfaces the frame as a wire.BatchView. The block comes back to
	// the pool from the shard worker that consumed it, on that worker's own
	// clock — which is what makes replaying old-timestamp history into a
	// live session safe.
	dec := &match.Arena{}
	dec.SetPool(eng.Pool())
	if da, ok := conn.(interface{ SetDecodeArena(*match.Arena) }); ok {
		da.SetDecodeArena(dec)
	}
	// abort ends the session on an error: drain the engines (Finish is
	// idempotent by shard.Engine contract) and push out what they still
	// produced — best-effort, the drained tail may still arrive.
	abort := func(err error) error {
		eng.Finish()
		up.flush()
		return err
	}
	for {
		f, err := conn.Recv()
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("cluster: ingress closed before finish")
			}
			return abort(err)
		}
		up.take()
		// Epoch fence, loop half: a takeover successor may have raised
		// the process epoch since the handshake — stop serving the
		// superseded coordinator at its next frame.
		if cur := n.epoch.Load(); cur > a.Epoch {
			return abort(fmt.Errorf("cluster: session fenced: coordinator epoch %d superseded by %d", a.Epoch, cur))
		}
		switch v := f.(type) {
		case *wire.BatchView:
			// A frame carries one global shard's run of the open cut and
			// names that shard: a live cut arrives as one events-only frame
			// (UpTo 0) per owned shard with traffic, then one
			// watermark-bearing frame; a replay frame is one shard's
			// journaled run with its cut's watermark. The block the run was
			// decoded into goes whole to the worker of the shard the ingress
			// placed it on — the node places nothing — and only the
			// watermark seals, covering every run of the cut, whatever order
			// the shards came in. Then: beat on receipt, seal.
			if v.Shard >= a.Total {
				return abort(fmt.Errorf("cluster: batch for shard %d outside global space of %d", v.Shard, total))
			}
			if run := dec.Take(); run != nil {
				eng.ProcessStable(int(v.Shard), run)
			}
			if v.UpTo == 0 {
				break // events-only frame; the cut's watermark frame follows
			}
			up.beat(v.UpTo)
			eng.Flush(v.UpTo)
			migMu.Lock()
			maxUpTo = max(maxUpTo, v.UpTo)
			migMu.Unlock()
		case wire.Migrate:
			// A shard is moving onto this session: suppress its
			// regenerated duplicates, and queue it for acknowledgement
			// once the post-replay marker and a proving watermark pass.
			g := int(v.Shard)
			if g < 0 || g >= total {
				return abort(fmt.Errorf("cluster: migrate for shard %d outside global space of %d", g, total))
			}
			migMu.Lock()
			suppress[g] = v.SuppressUpTo
			pending = append(pending, g)
			migMu.Unlock()
			up.beat(v.ReplayUpTo) // receipt beat: replay may be long
		case wire.ShardRoute:
			// Routing is advisory here (ownership semantics ride the
			// Migrate frames), but its position is load-bearing: the
			// ingress broadcasts it after a migration burst's replay, so
			// every pending migration's history is enqueued behind us —
			// any completion watermark beyond the cuts seen so far proves
			// the replay (and its regenerated matches) fully processed.
			migMu.Lock()
			for _, g := range pending {
				ackWait[g] = maxUpTo
			}
			pending = pending[:0]
			migMu.Unlock()
		case wire.PatternAdd:
			// Register a pattern on the running set. The frame sits
			// between two cuts in the stream, so the engine pins the
			// mutation to that cut boundary on every local shard.
			sp := multi.Spec{
				ID: v.Entry.ID, Tenant: v.Entry.Tenant,
				Pattern: v.Entry.Pattern, Config: n.cfg.Engine,
			}
			if err := eng.AddPattern(sp); err != nil {
				return abort(fmt.Errorf("cluster: node adding pattern %d: %w", sp.ID, err))
			}
		case wire.PatternRemove:
			if err := eng.RemovePattern(v.ID); err != nil {
				return abort(fmt.Errorf("cluster: node removing pattern %d: %w", v.ID, err))
			}
		case wire.Finish:
			// Drain everything: Finish returns only after the collector
			// has delivered every match, and the MaxUint64 watermark that
			// sends the last of them, through the sender above.
			eng.Finish()
			report := wire.Metrics{M: eng.Metrics(), Tenants: eng.TenantStats()}
			for _, pm := range eng.PatternMetrics() {
				report.Patterns = append(report.Patterns, wire.PatternMetrics{ID: pm.ID, M: pm.M})
			}
			up.send(report)
			up.flush()
			if err := up.failed(); err != nil {
				return fmt.Errorf("cluster: node streaming results: %w", err)
			}
			return nil
		default:
			return abort(fmt.Errorf("cluster: node received unexpected %s frame", wire.KindOf(f)))
		}
		up.flush()
		if err := up.failed(); err != nil {
			// The upstream write failed — wedged coordinator, one-way
			// partition, write stall. Without this check the session
			// would go back to Recv and block forever on a peer that is
			// done talking to us; surface the link error instead.
			return abort(fmt.Errorf("cluster: node upstream send: %w", err))
		}
	}
}

// ServeListener accepts ingress sessions in a loop, serving each on its
// own goroutine: a Node is stateless across sessions, so one worker
// process can serve consecutive runs, act as a recovery standby, or
// join a running cluster. It returns when the listener closes;
// per-session errors go to onErr (nil to ignore).
func (n *Node) ServeListener(l *Listener, onErr func(error)) error {
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			if err := n.Serve(c); err != nil && onErr != nil {
				onErr(err)
			}
		}()
	}
}

// maxSeq is the final watermark every source reports at end of stream.
const maxSeq = math.MaxUint64

package cluster

import (
	"fmt"
	"sync"
	"time"

	"acep/internal/engine"
	"acep/internal/match"
	"acep/internal/shard"
	"acep/internal/wire"
)

// slotState is where a node slot stands in its lifecycle (DESIGN.md
// "Slot lifecycle" has the table). Everything the coordinator asks
// about a slot — does it get this frame, is its session still watched,
// may it take this shard — is a predicate over this one field. The
// in-session states come first; inSession relies on the order.
type slotState uint8

const (
	// slotLive: in session and serving. Receives cuts and control frames,
	// may be handed shards.
	slotLive slotState = iota
	// slotFinishing: handed Finish at end of stream and draining its
	// results upstream. It has stopped reading: a frame written at it now
	// would be answered with a reset its reader can see before the clean
	// end of stream, turning a finished node into a failover.
	slotFinishing
	// slotDrained: emptied by Drain and handed Finish mid-stream. Once
	// its reader has exited and its metrics are in it is a ghost, and
	// AddNode reuses the slot.
	slotDrained
	// slotDead: the link failed. Transient: it lasts only while failNode
	// finds a successor session.
	slotDead
	// slotAbandoned: the one terminal failure state — dead with no
	// successor (no journal, no standby, or nothing owned to recover);
	// its shards are abandoned at the collector and the journal.
	slotAbandoned
)

// slot is one node's seat at the coordinator: the session currently
// installed on it and everything the coordinator keeps per session. A
// new session gets a new slot value (install), so nothing carries over
// by accident and a reader's stale reference identifies itself.
type slot struct {
	conn  Conn
	state slotState
	// addr is the worker's dialable address ("" unknown), replicated by
	// OnCut so a standby coordinator can re-dial it on takeover.
	addr string
	// hosted records every shard this session has ever hosted: a session
	// that already ran a shard holds stale window state for it, so
	// migrating the shard back would double-process.
	hosted map[int]bool
	outs   []wire.ReplRun // the open cut's runs bound for this node, regrouped each cut
	// cuts is the conn's whole-cut writer (nil: sendCut sends frame by
	// frame, through whatever wraps the transport).
	cuts cutSender
	// sendErr is a send failure parked for the next barrier (waitSends),
	// which routes it into failNode.
	sendErr error
	done    chan struct{} // closed when the session's reader exits
	// quit is closed when the session is shut (close): it wakes a reader
	// waiting for a run, which a closed conn does not.
	quit     chan struct{}
	quitOnce sync.Once

	// The reader's runs (inRun, at most runsPerReader outside an exit;
	// see take). back holds the ones the collector handed back: the
	// collector goroutine puts, the reader takes. pending is the one the
	// frame being read went into, made counts the runs the reader made,
	// and bound is its clock for the heartbeat exit (nil without a
	// detector); all three are the reader goroutine's.
	back    chan *inRun
	pending *inRun
	made    int
	bound   *time.Timer

	// Written by the slot's reader goroutine, under Ingress.mu.
	metrics    engine.Metrics
	gotMetrics bool // final metrics recorded: the clean-exit marker

	// reoffered counts the events handoffs replayed to this session,
	// which it counts arriving again (ingress goroutine, under
	// Ingress.mu).
	reoffered uint64
}

// final returns the session's metrics as the cluster sums them:
// EventsArrived leaves out the events handoffs replayed to it, which
// their previous owner counted arriving. Under Ingress.mu.
func (s *slot) final() engine.Metrics {
	m := s.metrics
	m.EventsArrived -= s.reoffered
	return m
}

// runsPerReader is how many runs (inRun) a reader keeps: it fills one
// while the collector holds the other, and reads a node's next Matches
// frame only once the collector has handed back the run before last. A
// node ahead of the merge then keeps its surplus results in its own socket
// and send buffer, outside this process's heap; the lagging node's runs
// are always released, so the merge moves. The benchmark's cluster-tcp
// workload on a 2-core machine allocated 19.9, 20.6, 21.4, 22.6 and 24.1
// B/event at 2, 4, 8, 16 and 32 runs a reader, and 26.1 with no bound.
const runsPerReader = 2

// inRun is what a node's Matches frame is posted to the merge collector
// in: the tags and the frame's buffer, which their Enc slices alias. The
// reader fills one per frame and the collector hands it back (Release)
// once it has delivered or purged the last of the tags, so a reader in
// steady state allocates neither. A consumer that holds a match past its
// delivery — the HA gate, under NewSealedIngress — copies what it keeps.
type inRun struct {
	tags  []shard.Tagged
	frame []byte
	home  *slot
}

// Release returns the run to its slot's reader. A run that finds
// runsPerReader already waiting there is a surplus one, made at an exit,
// and is left to the GC: the reader still has its runsPerReader, so
// take's count of runs made stays a bound on the runs it lacks. Under the
// race detector the frame is overwritten at once (match.PoisonBytes), so
// an Enc that outlived its delivery fails a byte-identity suite.
// Collector goroutine.
func (r *inRun) Release() {
	clear(r.tags) // a parked slice must not pin what its tags point at
	r.tags = r.tags[:0]
	match.PoisonBytes(r.frame)
	select {
	case r.home.back <- r:
	default:
	}
}

// take returns the run the frame just read went into, else one back from
// the collector, else a new one while the reader has fewer than
// runsPerReader. Past that it waits for the collector to hand one back
// and makes one only at an exit (wait). Reader goroutine.
func (in *Ingress) take(s *slot) *inRun {
	if r := s.pending; r != nil {
		s.pending = nil
		return r
	}
	select {
	case r := <-s.back:
		return r
	default:
	}
	if s.made >= runsPerReader {
		if r := in.wait(s); r != nil {
			return r
		}
	}
	s.made++
	return &inRun{home: s}
}

// wait parks the reader until the collector hands one of its runs back,
// and returns it — or nil at an exit, where the reader makes a run (the
// GC takes the surplus when it comes back). A wait has these exits:
//
//   - a shard migration is unacknowledged: its MigrateAck rides behind
//     frames on some reader, and the frozen shard holds runs until it
//     arrives (derived from the migration records, where a failed
//     destination's moves are struck out);
//   - a failure is queued for the next barrier (a suspect): a peer whose
//     reader died posts nothing more, so this reader's runs come back
//     only once the barrier acts, which a blocked send to this node would
//     hold up;
//   - the session is shut (close: teardown, Kill, failNode): a parked
//     reader is not in Recv, so closing its conn does not wake it;
//   - half the heartbeat timeout, when a detector runs: a parked reader
//     must not stall the barrier that fails a silent peer, nor make its
//     own live node look silent.
func (in *Ingress) wait(s *slot) *inRun {
	in.mu.Lock()
	exit := len(in.suspects) > 0 || in.migrating()
	rouse := in.rouse
	in.mu.Unlock()
	if exit {
		return nil
	}
	var bound <-chan time.Time
	if s.bound != nil {
		s.bound.Reset(in.rec.HeartbeatTimeout / 2)
		bound = s.bound.C
	}
	select {
	case r := <-s.back:
		return r
	case <-rouse:
	case <-s.quit:
	case <-bound:
	}
	return nil
}

// frame is the reader's Matches buffer (wire.Reader.SetMatchesBuffer):
// a run's frame, grown to n bytes, which the run then carries. Reader
// goroutine.
func (in *Ingress) frame(s *slot, n int) []byte {
	r := in.take(s)
	if cap(r.frame) < n {
		r.frame = make([]byte, n) // the run keeps it whole: len is cap
	}
	s.pending = r
	return r.frame[:n]
}

// close shuts the session: its conn, and a reader parked in wait.
// Idempotent.
func (s *slot) close() {
	s.conn.Close()
	s.quitOnce.Do(func() { close(s.quit) })
}

// receives reports whether the slot gets cuts and control frames
// (ShardRoute, PatternAdd, PatternRemove, Finish).
func (s *slot) receives() bool { return s.state == slotLive }

// inSession reports whether the slot's session is still open: its link
// is up, its heartbeat is watched and its failure would be acted on.
func (s *slot) inSession() bool { return s.state <= slotDrained }

// takes reports whether shard g may migrate onto the slot.
func (s *slot) takes(g int) bool { return s.state == slotLive && !s.hosted[g] }

// sendCut ships the open cut to the node: events-only frames (UpTo 0),
// one per owned shard with a run, each naming its shard, then the cut's
// single watermark frame. The node hands each run to the worker of the
// shard its frame names and seals only when the watermark arrives, so a
// cut split across shards can never publish a watermark ahead of its
// events. On a buffering transport the frames go out in one write. Runs
// on the cut's per-node send goroutine, the connection's only writer
// until the next barrier.
func (s *slot) sendCut(upTo uint64) error {
	if s.cuts != nil {
		return s.cuts.SendCut(s.outs, upTo)
	}
	for _, r := range s.outs {
		if err := s.conn.Send(wire.BatchRaw{Shard: r.Shard, Run: r.Body}); err != nil {
			return err
		}
	}
	return s.conn.Send(wire.BatchRaw{UpTo: upTo})
}

// park records a send failure for the next barrier; the first one wins.
func (s *slot) park(err error) {
	if s.sendErr == nil {
		s.sendErr = err
	}
}

// hello receives and validates a node's greeting — the one place the
// coordinator decides whether a peer may join the session — and returns
// the shard count it claims. who names the peer in errors.
func (in *Ingress) hello(c Conn, who string) (int, error) {
	f, err := c.Recv()
	if err != nil {
		return 0, fmt.Errorf("cluster: %s hello: %w", who, err)
	}
	h, ok := f.(wire.Hello)
	if !ok {
		return 0, fmt.Errorf("cluster: %s sent %s, want hello", who, wire.KindOf(f))
	}
	if h.Version != wire.Version {
		return 0, fmt.Errorf("cluster: %s speaks protocol v%d, ingress v%d", who, h.Version, wire.Version)
	}
	// Fingerprint 0 is a bare node: it hosts whatever set the Assign
	// reply ships. Configured nodes cross-validate.
	if h.PatternSig != 0 && h.PatternSig != in.sig {
		return 0, fmt.Errorf("cluster: %s serves a different pattern or schema (fingerprint %x, want %x)", who, h.PatternSig, in.sig)
	}
	// Likewise an empty KeyAttr takes the shipped key; a pinned one must
	// be it.
	if h.KeyAttr != "" && h.KeyAttr != in.keyAttr {
		return 0, fmt.Errorf("cluster: %s partitions by key %q, the session by %q", who, h.KeyAttr, in.keyAttr)
	}
	if h.Shards < 1 {
		return 0, fmt.Errorf("cluster: %s hosts no shards", who)
	}
	// Cap the claimed shard count before it sizes the global shard->node
	// map: a buggy or hostile hello must not be able to force a
	// multi-gigabyte allocation (the same promise the wire codec makes
	// for frame-internal counts).
	if h.Shards > maxShardsPerNode {
		return 0, fmt.Errorf("cluster: %s claims %d shards, cap is %d", who, h.Shards, maxShardsPerNode)
	}
	return int(h.Shards), nil
}

// openSession handshakes a peer into a session after construction — a
// join's or a standby's adopting a dead slot: the node runs a total-sized
// engine and learns its shards from Migrate frames.
func (in *Ingress) openSession(c Conn, who string) error {
	if _, err := in.hello(c, who); err != nil {
		return err
	}
	if err := c.Send(in.assignFrame()); err != nil {
		return fmt.Errorf("cluster: assigning %s: %w", who, err)
	}
	return nil
}

// install seats a handshaken session on slot n (n == len(in.slots)
// grows the fleet by one) and starts its reader. Every session — a
// founding member's, a join's, a standby's adopting a dead slot — comes
// through here, so what a session needs is armed in one place.
func (in *Ingress) install(n int, c Conn, addr string) *slot {
	s := &slot{
		conn: c, addr: addr, hosted: map[int]bool{},
		done: make(chan struct{}), quit: make(chan struct{}),
		back: make(chan *inRun, runsPerReader),
	}
	s.cuts, _ = c.(cutSender)
	if mb, ok := c.(interface{ SetMatchesBuffer(func(int) []byte) }); ok {
		mb.SetMatchesBuffer(func(n int) []byte { return in.frame(s, n) })
	}
	if in.rec.HeartbeatTimeout > 0 {
		// A worker that stops draining its socket (wedged peer, one-way
		// partition) must surface as this slot's link error in bounded
		// time instead of wedging the feed inside a blocking send. Scaled
		// off the heartbeat timeout: a peer making zero write progress for
		// several heartbeat windows is already dead by the read-side
		// detector's standards.
		if sc, ok := c.(interface{ SetWriteStall(time.Duration) }); ok {
			sc.SetWriteStall(max(4*in.rec.HeartbeatTimeout, 2*time.Second))
		}
		s.bound = time.NewTimer(in.rec.HeartbeatTimeout) // wait's heartbeat exit
		s.bound.Stop()
	}
	grow := n == len(in.slots)
	in.mu.Lock()
	if grow {
		in.slots = append(in.slots, s)
	} else {
		in.slots[n] = s
	}
	in.mu.Unlock()
	if !grow {
		in.det.Heard(n)
	} else if in.det != nil {
		in.det.Grow()
	}
	go in.read(n, s)
	return s
}

// broadcast sends one control frame to every slot that receives them,
// moves each slot it reached to state then, and reports how many sends
// failed. A failure is parked on the slot: the next barrier fails the
// node (a successor adopts the current set and routing, or the slot is
// abandoned). Ingress goroutine, behind the barrier.
func (in *Ingress) broadcast(f wire.Frame, then slotState) (failed int) {
	for n, s := range in.slots {
		if !s.receives() {
			continue
		}
		if err := s.conn.Send(f); err != nil {
			s.park(err)
			failed++
			continue
		}
		in.det.Sent(n)
		s.state = then
	}
	return failed
}

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
	outs   [][]byte // the open cut's runs bound for this node, regrouped each cut
	// burst is the conn's held-send probe (nil: every Send writes
	// through): sendCut brackets a cut's frames with it.
	burst sendHolder
	// sendErr is a send failure parked for the next barrier (waitSends),
	// which routes it into failNode.
	sendErr error
	done    chan struct{} // closed when the session's reader exits

	// The reader's runs (inRun) back from the collector, waiting to be
	// refilled: the collector goroutine puts, the reader takes. pending
	// is the one the frame being read went into (reader goroutine).
	runMu   sync.Mutex
	runFree []*inRun
	pending *inRun

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

// inRun is what a node's Matches frame is posted to the merge collector
// in: the tags and, under NewIngress, the frame's buffer, which their Enc
// slices alias. The reader fills one per frame and the collector hands it
// back (Release) once it has delivered or purged the last of the tags, so
// a reader in steady state allocates neither, and the runs in existence
// are the most the collector ever held at once — a backlog behind a
// lagging watermark included, since a run is made only when none waits.
// Under NewSealedIngress the consumer keeps Enc past delivery: the frame
// is the reader's own (frame nil) and never comes back.
type inRun struct {
	tags  []shard.Tagged
	frame []byte
	home  *slot
}

// Release returns the run to its slot's reader. Under the race detector
// the frame is overwritten at once (match.PoisonBytes), so an Enc that
// outlived its delivery fails a byte-identity suite. Collector goroutine.
func (r *inRun) Release() {
	clear(r.tags) // a parked slice must not pin what its tags point at
	r.tags = r.tags[:0]
	match.PoisonBytes(r.frame)
	s := r.home
	s.runMu.Lock()
	s.runFree = append(s.runFree, r)
	s.runMu.Unlock()
}

// take returns the run the frame just read went into, else one back from
// the collector, else a new one. Reader goroutine.
func (s *slot) take() *inRun {
	if r := s.pending; r != nil {
		s.pending = nil
		return r
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if n := len(s.runFree); n > 0 {
		r := s.runFree[n-1]
		s.runFree[n-1] = nil
		s.runFree = s.runFree[:n-1]
		return r
	}
	return &inRun{home: s}
}

// frame is the reader's Matches buffer (wire.Reader.SetMatchesBuffer):
// a run's frame, grown to n bytes, which the run then carries. Reader
// goroutine.
func (s *slot) frame(n int) []byte {
	r := s.take()
	if cap(r.frame) < n {
		r.frame = make([]byte, n) // the run keeps it whole: len is cap
	}
	s.pending = r
	return r.frame[:n]
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
// one per owned shard with a run, then the cut's single watermark frame.
// The node hands each run to its shard's worker as it is and seals only
// when the watermark arrives, so a cut split across shards can never
// publish a watermark ahead of its events. On a buffering transport the
// frames go out in one write. Runs on the cut's per-node send goroutine,
// the connection's only writer until the next barrier.
func (s *slot) sendCut(upTo uint64) error {
	if s.burst != nil {
		s.burst.SetSendHold(true)
		defer s.burst.SetSendHold(false)
	}
	for _, run := range s.outs {
		if err := s.conn.Send(wire.BatchRaw{Run: run}); err != nil {
			return err
		}
	}
	if err := s.conn.Send(wire.BatchRaw{UpTo: upTo}); err != nil || s.burst == nil {
		return err
	}
	return s.burst.Flush()
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

// openSession handshakes a peer into a zero-shard session — every
// session but a founding member's: the node runs a total-sized engine
// and learns its shards from Migrate frames.
func (in *Ingress) openSession(c Conn, who string) error {
	if _, err := in.hello(c, who); err != nil {
		return err
	}
	if err := c.Send(in.assignFrame(0, 0)); err != nil {
		return fmt.Errorf("cluster: assigning %s: %w", who, err)
	}
	return nil
}

// install seats a handshaken session on slot n (n == len(in.slots)
// grows the fleet by one) and starts its reader. Every session — a
// founding member's, a join's, a standby's adopting a dead slot — comes
// through here, so what a session needs is armed in one place.
func (in *Ingress) install(n int, c Conn, addr string) *slot {
	s := &slot{conn: c, addr: addr, hosted: map[int]bool{}, done: make(chan struct{})}
	s.burst, _ = c.(sendHolder)
	if mb, ok := c.(interface{ SetMatchesBuffer(func(int) []byte) }); ok && !in.sealedTags {
		mb.SetMatchesBuffer(s.frame)
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

package cluster

import (
	"fmt"

	"acep/internal/engine"
	"acep/internal/wire"
)

// fleetOp is the guard every fleet operation (AddNode, Drain,
// MigrateShard) passes before it changes the fleet or its routing:
// refused after Finish and without Recovery, whose journal the moves
// replay from, then the send barrier, behind which routing may change.
func (in *Ingress) fleetOp(op string) error {
	if in.finished {
		return fmt.Errorf("cluster: %s after Finish", op)
	}
	if in.journal == nil {
		return fmt.Errorf("cluster: %s requires Recovery (migrations replay from the journal)", op)
	}
	in.waitSends()
	return nil
}

// AddNode admits a freshly dialed node into the running cluster: it
// runs the hello/assign handshake (the node joins with zero shards and
// a total-sized engine), registers the new slot's reader and heartbeat
// clock, and returns the slot index. The placement controller (or an
// explicit MigrateShard) hands it work. Requires Recovery; must be
// called from the Process goroutine. The connection is closed on error.
func (in *Ingress) AddNode(c Conn) (int, error) {
	err := in.fleetOp("AddNode")
	if err == nil {
		err = in.openSession(c, "joining node")
	}
	if err != nil {
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
	if err := in.fleetOp("Drain"); err != nil {
		return err
	}
	if n < 0 || n >= len(in.slots) {
		return fmt.Errorf("cluster: Drain: no node slot %d", n)
	}
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
	if err := in.fleetOp("MigrateShard"); err != nil {
		return err
	}
	if g < 0 || g >= in.total {
		return fmt.Errorf("cluster: MigrateShard: no shard %d", g)
	}
	if to < 0 || to >= len(in.slots) {
		return fmt.Errorf("cluster: MigrateShard: no node slot %d", to)
	}
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
	if err := in.handoff(g, to, reason); err != nil {
		return err
	}
	in.routeBroadcast()
	return nil
}

// handoff migrates healthy shard g to slot `to` — the one way a healthy
// shard changes owner: the placement controller, MigrateShard and Drain
// come through here, and tell the fleet (routeBroadcast) once their
// moves are made. A failed handoff leaves the destination in an unknown
// state, so the error is parked on it (the next barrier fails it over)
// as well as returned. The destination's session is charged the events
// replayed to it (slot.reoffered): g's previous owner, still in session,
// counted them arriving.
func (in *Ingress) handoff(g, to int, reason string) error {
	replayed, err := in.migrateShard(g, to, reason)
	if err != nil {
		in.slots[to].park(err)
		return err
	}
	in.mu.Lock()
	in.slots[to].reoffered += uint64(replayed)
	in.mu.Unlock()
	return nil
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
		// A failed handoff is parked on the destination; the next barrier
		// acts on it.
		if in.handoff(g, to, reason) == nil {
			in.routeBroadcast()
		}
		in.cutsSinceMove = 0
	}
}

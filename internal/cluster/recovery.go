package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	recovery "acep/internal/recover"
)

// maxAdoptAttempts caps how many successor connections one failover
// will try before degrading the slot: with addresses recycled back
// into the standby pool, an endpoint that keeps accepting and dying
// could otherwise hold the ingress in an adopt loop forever.
const maxAdoptAttempts = 8

// RecoveryConfig enables fault-tolerant failover on an ingress: sealed
// cuts are journaled per shard (internal/recover), node failures are
// detected through transport errors and heartbeat silence, and a dead
// node's shards migrate to a standby connection, which replays each
// shard's journaled history and suppresses every match the collector
// had already released — so the delivered stream stays exactly the one
// a fully healthy cluster (or the single-process sharded engine) would
// produce: no duplicate, no loss, same order. The journal's window is the
// widest of the hosted patterns'; its slack (two windows) and byte bound
// (256 MiB) are the journal defaults.
type RecoveryConfig struct {
	// Standby supplies successor connections, one call per adoption
	// attempt (a fresh acep-node, a survivor's listener — any endpoint
	// speaking the node protocol; bare nodes learn the pattern from the
	// Assign frame and their shards from the Migrate handshake). Called
	// on the ingress goroutine. An error means no standby remains: the
	// slot is abandoned and the failure surfaces from Finish.
	Standby func() (Conn, error)
	// HeartbeatTimeout declares a node dead after this much frame
	// silence even without a transport error (0 disables timeout
	// detection; errors always detect). Checked at every cut.
	HeartbeatTimeout time.Duration
	// Elastic, when non-nil, enables and tunes the placement controller,
	// whose migrations replay from the journal.
	Elastic *ElasticConfig
	// OnCut, when set, observes every sealed cut on the ingress
	// goroutine, strictly behind the send barrier and after the cut has
	// been journaled — the replication tap of the HA subsystem
	// (internal/ha), which rides the journal's framing and retention.
	// The CutInfo slices are valid only during the call.
	OnCut func(CutInfo)
	// Resume, when non-nil, builds a takeover successor instead of a
	// founding coordinator: every worker handshakes into a zero-shard
	// session, the mirrored journal and routing table are adopted as-is,
	// and NewIngress re-establishes every shard on its mirrored slot via
	// adoption migrations (reason "takeover") that replay the mirror and
	// suppress matches at or below Resume.Boundary.
	Resume *ResumeState
}

// releaseConn returns its standby address to the pool when the
// connection closes, so a consumed standby whose process restarts (and
// re-listens) can be dialed again by a later failover or join. It embeds
// the concrete stream connection, not the Conn interface, so the probes
// an installed session relies on (SetWriteStall, RemoteAddr: where the
// slot now lives) stay reachable.
type releaseConn struct {
	*streamConn
	once    sync.Once
	release func()
}

func (c *releaseConn) Close() error {
	err := c.streamConn.Close()
	c.once.Do(c.release)
	return err
}

// DialStandbys builds a RecoveryConfig.Standby supplier over a list of
// TCP addresses. Each call dials a free address; an address returns to
// the pool when its connection closes, so a standby that was consumed,
// died and restarted its listener is usable again (a failover retries
// it on the next attempt). It errors when every address is in use or
// unreachable — which degrades that failover: the slot is abandoned and
// the error surfaces from Finish.
func DialStandbys(addrs []string) func() (Conn, error) {
	var mu sync.Mutex
	inUse := make([]bool, len(addrs))
	return func() (Conn, error) {
		var lastErr error
		for i := range addrs {
			mu.Lock()
			busy := inUse[i]
			if !busy {
				inUse[i] = true
			}
			mu.Unlock()
			if busy {
				continue
			}
			c, err := DialTCP(addrs[i])
			if err != nil {
				mu.Lock()
				inUse[i] = false
				mu.Unlock()
				lastErr = err
				continue
			}
			rc := &releaseConn{streamConn: c.(*streamConn)}
			rc.release = func() {
				mu.Lock()
				inUse[i] = false
				mu.Unlock()
			}
			return rc, nil
		}
		if lastErr != nil {
			return nil, fmt.Errorf("cluster: no standby address reachable: %w", lastErr)
		}
		return nil, fmt.Errorf("cluster: all %d standby addresses in use", len(addrs))
	}
}

// suspectRec is a failure observed by a reader goroutine, queued for the
// ingress goroutine to act on. The session it names guards against a
// stale suspect from a previous tenant of the slot killing its successor.
type suspectRec struct {
	node int
	s    *slot
	err  error
}

// suspect queues a failure observation from the reader of session s on
// node slot i.
func (in *Ingress) suspect(i int, s *slot, err error) {
	in.mu.Lock()
	if in.slots[i] == s {
		in.suspects = append(in.suspects, suspectRec{node: i, s: s, err: err})
		in.wake()
	}
	in.mu.Unlock()
}

// checkSuspects acts on queued reader failures and heartbeat expiries.
// Runs on the ingress goroutine at every barrier (waitSends) and in
// Finish's drain.
func (in *Ingress) checkSuspects() {
	in.mu.Lock()
	sus := in.suspects
	in.suspects = nil
	in.mu.Unlock()
	for _, su := range sus {
		if in.slots[su.node] == su.s && su.s.inSession() {
			in.failNode(su.node, su.err)
		}
	}
	for n, s := range in.slots {
		if !s.inSession() {
			continue
		}
		select {
		case <-s.done:
			// The session is over — finished cleanly, or its failure is
			// already queued as a suspect. A finished node stops
			// heartbeating legitimately.
			continue
		default:
		}
		// A slot handed Finish owes frames whatever the send order.
		if in.det.Expired(n, s.state != slotLive) {
			in.failNode(n, fmt.Errorf("cluster: node %d silent past the heartbeat timeout", n))
		}
	}
}

// failNode is the one way a node is lost — a read error, a parked send
// error and heartbeat silence all come here. It declares slot n dead
// and drives the failover: stop the old reader, strike its aborted
// in-flight migrations, verify per-shard journal coverage, then migrate
// its shards to standby connections until one survives adoption, the
// attempt cap is hit, or none remain. Without a journal there is nothing
// to replay, and the slot is abandoned at once. The incident is recorded
// once a successor holds the shards (at once when there were none).
func (in *Ingress) failNode(n int, cause error) {
	if !in.slots[n].inSession() {
		return
	}
	in.stop(n)
	if in.journal == nil {
		in.degrade(n, cause)
		return
	}
	f := failover{Failover: recovery.Failover{Node: n, Cause: cause.Error(), DetectedAt: time.Now()}}
	owned := in.ownedShards(n)
	for _, g := range owned {
		if err := in.journal.CoveredShard(g); err != nil {
			in.degrade(n, fmt.Errorf("%v (node %d failed: %v)", err, n, cause))
			return
		}
	}
	f.JournalBytes, f.JournalCuts = in.journal.Bytes(), in.journal.Cuts()
	for attempt := 0; len(owned) > 0; attempt++ {
		var conn Conn
		var err error
		switch {
		case in.rec.Standby == nil:
			err = fmt.Errorf("no standby configured")
		case attempt >= maxAdoptAttempts:
			err = fmt.Errorf("gave up after %d adoption attempts", attempt)
		default:
			conn, err = in.rec.Standby()
		}
		if err != nil {
			in.degrade(n, fmt.Errorf("cluster: node %d failed (%v) and no standby took over: %w", n, cause, err))
			return
		}
		// The ingress goroutine is the ledger's only appender: the
		// attempt's moves are the ones appended while it runs.
		f.first = len(in.migrations)
		if in.adopt(n, conn) == nil {
			f.end = len(in.migrations)
			break
		}
		// The standby itself died during adoption ("during replay" in
		// the kill matrix); the next one re-purges and replays afresh.
		in.stop(n)
	}
	in.mu.Lock()
	in.failovers = append(in.failovers, f)
	in.mu.Unlock()
	if len(owned) == 0 {
		// A drained or never-loaded slot died: nothing to recover, the
		// delivered stream is unaffected. The slot retires; with nothing
		// lost there is no error to surface.
		in.degrade(n, nil)
	}
}

// stop ends the session on slot n as dead. Closing it makes its reader
// observe the failure and exit without posting (its frames must stop
// before the collector slot is re-registered), and the moves headed to
// it are struck: no acknowledgement will ever arrive. A session already
// stopped stays as it is.
func (in *Ingress) stop(n int) {
	s := in.slots[n]
	s.state = slotDead
	s.close()
	<-s.done
	in.mu.Lock()
	in.strike(n)
	in.mu.Unlock()
}

// degrade gives up on the slot — the one terminal failure state: record
// the error (nil when the slot owned nothing) and abandon its shards at
// the collector so the merge drains instead of deadlocking. The
// abandoned shards' history is released from the journal (no replay
// will ever need it) so their frozen frontiers cannot pin retention at
// MaxBytes for the rest of the run.
func (in *Ingress) degrade(n int, err error) {
	in.recordErr(err)
	in.slots[n].state = slotAbandoned
	in.slots[n].addr = ""
	if in.journal != nil {
		for _, g := range in.ownedShards(n) {
			in.journal.AbandonShard(g)
		}
	}
	in.col.Abandon(n)
}

// adopt hands slot n's shards to one successor connection: a
// zero-shard session (the successor runs a total-sized engine and learns
// its shards from the Migrate frames), then one migrateShard per owned
// shard. On error the caller stops the slot again (stop) and may try
// another standby, which re-migrates every owned shard afresh.
func (in *Ingress) adopt(n int, conn Conn) error {
	if err := in.openSession(conn, fmt.Sprintf("standby for node %d", n)); err != nil {
		conn.Close()
		return err
	}
	// Seat the session — its reader running — before replaying: the
	// reader must drain the upstream (matches, heartbeats, acks) while
	// replay cuts flow down, or a bounded transport fills in both
	// directions and deadlocks. The slot now lives at the standby's
	// address.
	in.install(n, conn, connAddr(conn))
	for _, g := range in.ownedShards(n) {
		if _, err := in.migrateShard(g, n, "failover"); err != nil {
			return err
		}
	}
	in.routeBroadcast()
	return nil
}

// drain is Finish's wait loop: it blocks until every reader has exited,
// while still failing nodes that die — or fall heartbeat-silent — during
// the drain. Successors adopted here receive the Finish frame and
// deliver the missing tail before the merge closes.
func (in *Ingress) drain() {
	var poll time.Duration
	if in.rec.HeartbeatTimeout > 0 {
		// A silent node produces no reader exit to wake on; poll a few
		// times per timeout so expiry is noticed promptly.
		poll = min(max(in.rec.HeartbeatTimeout/4, 5*time.Millisecond), 250*time.Millisecond)
	}
	for {
		in.checkSuspects()
		in.finishNodes()
		idle := true
		for _, s := range in.slots {
			select {
			case <-s.done:
			default:
				idle = false
			}
		}
		in.mu.Lock()
		pending := len(in.suspects)
		in.mu.Unlock()
		if pending > 0 {
			continue // act on fresh suspects immediately
		}
		if idle {
			return
		}
		if poll > 0 {
			select {
			case <-in.exitCh:
			case <-time.After(poll):
			}
		} else {
			<-in.exitCh
		}
	}
}

// ledger is the record of every shard move and node failure, under
// Ingress.mu: a reader's wait reads whether a move is unacknowledged
// together with the suspects and rouse, in one critical section, so a
// move appended while a reader captures rouse cannot be a lost wakeup.
// It is append-only. A move whose destination died before acknowledging
// is struck out (To = -1), never removed, so the span a failover's final
// adoption attempt wrote stays put, and the failover's aggregates are
// computed from that span when asked (Failovers).
type ledger struct {
	migrations []recovery.Migration
	failovers  []failover
}

// failover is a node-death incident as the ledger keeps it: its own
// facts (Node, Cause, DetectedAt and the journal snapshot) and the span
// [first, end) of migrations its final adoption attempt wrote.
type failover struct {
	recovery.Failover
	first, end int
}

// acked stamps the youngest in-flight migration of shard g to slot n
// complete.
func (l *ledger) acked(n, g int) {
	for i := len(l.migrations) - 1; i >= 0; i-- {
		if m := &l.migrations[i]; m.Shard == g && m.To == n && m.CompletedAt.IsZero() {
			m.CompletedAt = time.Now()
			return
		}
	}
}

// migrating reports whether a migration is unacknowledged.
func (l *ledger) migrating() bool {
	return slices.ContainsFunc(l.migrations, func(m recovery.Migration) bool { return m.To >= 0 && m.CompletedAt.IsZero() })
}

// strike strikes out every in-flight migration headed to slot n: its
// session is dead, so no acknowledgement will ever arrive.
func (l *ledger) strike(n int) {
	for i, m := range l.migrations {
		if m.To == n && m.CompletedAt.IsZero() {
			l.migrations[i].To = -1
		}
	}
}

// Failovers reports the node-death incidents so far, in order. Each is
// its own facts plus, over the moves of its final adoption attempt that
// were not struck out, their count, widest boundaries and summed replay
// volume; it recovered when the last of them was acknowledged (zero
// while one is in flight: call after Finish for settled stamps), or at
// detection when it had none.
func (in *Ingress) Failovers() []recovery.Failover {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]recovery.Failover, len(in.failovers))
	for i, f := range in.failovers {
		r, inFlight := f.Failover, false
		r.RecoveredAt = r.DetectedAt
		for _, m := range in.migrations[f.first:f.end] {
			if m.To < 0 {
				continue
			}
			r.Shards++
			r.SuppressUpTo = max(r.SuppressUpTo, m.SuppressUpTo)
			r.ReplayUpTo = max(r.ReplayUpTo, m.ReplayUpTo)
			r.ReplayCuts += m.ReplayCuts
			r.ReplayEvents += m.ReplayEvents
			r.ReplayBytes += m.ReplayBytes
			inFlight = inFlight || m.CompletedAt.IsZero()
			if m.CompletedAt.After(r.RecoveredAt) {
				r.RecoveredAt = m.CompletedAt
			}
		}
		if inFlight {
			r.RecoveredAt = time.Time{}
		}
		out[i] = r
	}
	return out
}

// Migrations reports every shard move so far (completed and in
// flight), oldest first.
func (in *Ingress) Migrations() []recovery.Migration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return slices.DeleteFunc(slices.Clone(in.migrations), func(m recovery.Migration) bool { return m.To < 0 })
}

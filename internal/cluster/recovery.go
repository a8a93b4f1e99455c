package cluster

import (
	"fmt"
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
			i := i
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
// and drives the failover: stop the old reader, drop its aborted
// in-flight migrations, verify per-shard journal coverage, then migrate
// its shards to standby connections until one survives adoption, the
// attempt cap is hit, or none remain. Without a journal there is nothing
// to replay, and the slot is abandoned at once.
func (in *Ingress) failNode(n int, cause error) {
	s := in.slots[n]
	if !s.inSession() {
		return
	}
	s.state = slotDead
	// Closing the session makes the old reader observe the failure and
	// exit without posting; its frames must stop before the collector
	// slot is re-registered.
	s.close()
	<-s.done
	if in.journal == nil {
		in.degrade(n, cause)
		return
	}
	in.dropAbortedMigrations(n)
	owned := in.ownedShards(n)
	if len(owned) == 0 {
		// A drained or never-loaded slot died: nothing to recover, the
		// delivered stream is unaffected. Record the incident and retire
		// the slot; with nothing lost there is no error to surface.
		now := time.Now()
		in.mu.Lock()
		in.failovers = append(in.failovers, recovery.Failover{
			Node: n, Cause: cause.Error(), DetectedAt: now, RecoveredAt: now,
		})
		in.facked = append(in.facked, 0)
		in.mu.Unlock()
		in.degrade(n, nil)
		return
	}
	for _, g := range owned {
		if err := in.journal.CoveredShard(g); err != nil {
			in.degrade(n, fmt.Errorf("%v (node %d failed: %v)", err, n, cause))
			return
		}
	}
	in.mu.Lock()
	fidx := len(in.failovers)
	in.failovers = append(in.failovers, recovery.Failover{
		Node: n, Cause: cause.Error(), DetectedAt: time.Now(),
		JournalBytes: in.journal.Bytes(), JournalCuts: in.journal.Cuts(),
	})
	in.facked = append(in.facked, 0)
	in.mu.Unlock()
	for attempt := 0; ; attempt++ {
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
			in.popFailover(fidx)
			in.degrade(n, fmt.Errorf("cluster: node %d failed (%v) and no standby took over: %w", n, cause, err))
			return
		}
		if in.adopt(n, conn, fidx) == nil {
			return
		}
		// The standby itself died during adoption ("during replay" in
		// the kill matrix); the next one re-purges and replays afresh.
	}
}

// popFailover removes a failover record whose every adoption attempt
// failed (its aborted migrations are already dropped, so nothing can
// reference the index).
func (in *Ingress) popFailover(fidx int) {
	in.mu.Lock()
	in.failovers = in.failovers[:fidx]
	in.facked = in.facked[:fidx]
	in.mu.Unlock()
}

// dropAbortedMigrations compacts away every in-flight migration headed
// to slot n — its session is dead, so no acknowledgement will ever
// arrive. Each dropped move is subtracted from its failover's shard
// count, re-checking whether the remaining acknowledged moves now
// complete the record.
func (in *Ingress) dropAbortedMigrations(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	kept := in.migrations[:0]
	keptF := in.migFailover[:0]
	for i, m := range in.migrations {
		fi := in.migFailover[i]
		if m.To == n && m.CompletedAt.IsZero() {
			if fi >= 0 {
				in.failovers[fi].Shards--
				if in.facked[fi] >= in.failovers[fi].Shards && in.failovers[fi].RecoveredAt.IsZero() {
					in.failovers[fi].RecoveredAt = time.Now()
				}
			}
			continue
		}
		kept = append(kept, m)
		keptF = append(keptF, fi)
	}
	in.migrations = kept
	in.migFailover = keptF
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
// shard. On error the connection is closed, its reader has exited,
// aborted migrations are dropped, and the slot is dead again — the
// caller may try another standby, which re-migrates every owned shard
// afresh.
func (in *Ingress) adopt(n int, conn Conn, fidx int) error {
	if err := in.openSession(conn, fmt.Sprintf("standby for node %d", n)); err != nil {
		conn.Close()
		return err
	}
	// An adoption retry resets the per-replay aggregates the failed
	// attempt accumulated; the final shard's ack re-stamps RecoveredAt,
	// so a premature stamp cannot survive.
	in.mu.Lock()
	fr := &in.failovers[fidx]
	fr.Shards, fr.SuppressUpTo, fr.ReplayUpTo = 0, 0, 0
	fr.ReplayCuts, fr.ReplayEvents, fr.ReplayBytes = 0, 0, 0
	fr.RecoveredAt = time.Time{}
	in.facked[fidx] = 0
	in.mu.Unlock()
	// Seat the session — its reader running — before replaying: the
	// reader must drain the upstream (matches, heartbeats, acks) while
	// replay cuts flow down, or a bounded transport fills in both
	// directions and deadlocks. The slot now lives at the standby's
	// address.
	s := in.install(n, conn, connAddr(conn))
	for _, g := range in.ownedShards(n) {
		if _, err := in.migrateShard(g, n, "failover", fidx); err != nil {
			s.state = slotDead
			s.close()
			<-s.done
			in.dropAbortedMigrations(n)
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

// Failovers reports the node-death incidents so far, in order. Call
// after Finish for settled RecoveredAt stamps.
func (in *Ingress) Failovers() []recovery.Failover {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]recovery.Failover, len(in.failovers))
	copy(out, in.failovers)
	return out
}

package ha

import (
	"fmt"
	"sync"
	"time"

	"acep/internal/cluster"
	"acep/internal/match"
	"acep/internal/shard"
	"acep/internal/wire"
)

// gate is the HA emission gate, the piece that turns replication into
// an exactly-once guarantee. A primary coordinator must not let a match
// reach the consumer before the standby's mirror could regenerate it:
// the gate queues every match the merge collector releases and emits
// only the prefix with Seq <= min(acked, released), where acked is the
// standby's last mirrored cut watermark and released the collector's
// own release frontier. Both bounds are monotone and the queue is in
// merge order, so the emitted set is always exactly {Seq <= T} — which
// is what lets one (EmittedUpTo, Count) pair describe it to the standby
// (see ReplState) and lets a successor resume with a watermark
// suppression plus a bounded skip count.
//
// The gate also obeys commit-then-emit: before emitting a prefix that
// holds a match it commits the boundary and the projected delivered
// count to the lease arbiter, and a commit that fails — fence or
// unreachable arbiter — demotes the gate without emitting a byte. A drain that only advances
// the threshold commits nothing: it leaves the count unchanged, and the
// count is all a successor reads (its skip is the lease's count minus
// the mirror's), so the lease's boundary may lag the published one
// while its count always equals the gate's delivered count. That is
// what lets an out-of-process successor compute an exact skip count
// from the lease alone. (The one
// exception is a torn commit: commit succeeded, process died before the
// emit loop ran — an at-most-once window inherent to commit-then-emit
// without consumer-side dedup. A partition cannot open it: a failed or
// fenced commit emits nothing, and a kill, the in-process death, waits
// for a committed prefix to be emitted.)
//
// The gate moves through phases: gated (primary healthy), frozen
// (killed or demoted: nothing further escapes — except that a freeze
// arriving while a successfully committed prefix is mid-flight lets
// that prefix finish, keeping committed == emitted), and direct
// (takeover successor: matches pass straight through, minus the skip
// prefix the dead primary already delivered).
//
// What the gate holds is what the coordinator received: the queue is the
// collector's sealed tags, and a match is decoded once, as its prefix is
// emitted — before the prefix is committed, so a body that does not
// decode fails the gate (see failure) with the lease still equal to what
// was emitted. A sealed tag's Enc is valid only during onTagged (its frame
// goes back to the ingress reader after delivery), so the gate copies each
// body it queues into its own slab, held: the queued bodies lie there
// back to back in queue order, from hfrom on. The slab is reset when the
// queue empties and compacted once half of it is emitted, so it stays
// within twice the bytes the gate still holds, and those are bounded by
// the replication window the primary may run ahead of its standby.
type gate struct {
	out     func(shard.Tagged)
	publish func(wire.Frame) // enqueues a ReplState on the repl link
	// commit is the lease hook: it must durably record (boundary,
	// projected count) and report whether the gate may emit.
	// Called without the gate lock held (it does an RPC), and only for a
	// prefix that holds at least one match.
	commit func(boundary, count uint64) bool

	mu        sync.Mutex
	ackCond   *sync.Cond     // broadcast whenever acked advances or gating ends
	q         []shard.Tagged // sealed: Enc set (into held), M nil
	head      int
	held      []byte         // the slab: the bodies of q[head:], from hfrom on
	hfrom     int            // the slab's emitted bytes, ahead of the held ones
	open      []shard.Tagged // drain scratch: the prefix being emitted, decoded
	keep      match.Keeper   // what the emitted matches are decoded into
	err       error          // why the gate failed (see failure)
	acked     uint64         // standby's mirrored watermark (ack-reader)
	released  uint64         // collector release frontier (progress tap)
	delivered uint64         // matches emitted downstream so far (D)
	emitted   uint64         // highest threshold published in a ReplState (E)
	frozen    bool           // killed or demoted
	direct    bool
	draining  bool // a drain (possibly unlocked mid-commit) is in flight
	skip      uint64
}

// onTagged receives every match the merge collector delivers — sealed —
// on the collector goroutine. A gated match joins the queue with its body
// copied into the gate's slab, undecoded until its prefix is emitted. A
// successor's passes straight through, decoded on the way.
func (g *gate) onTagged(t shard.Tagged) {
	g.mu.Lock()
	if g.direct {
		if g.skip > 0 {
			g.skip--
			g.mu.Unlock()
			return
		}
		if g.err == nil {
			g.err = cluster.Open(&t, &g.keep)
		}
		ok := g.err == nil
		g.mu.Unlock()
		if ok {
			g.out(t)
		}
		return
	}
	if !g.frozen {
		t.Enc = g.hold(t.Enc)
		g.q = append(g.q, t)
	}
	g.mu.Unlock()
}

// hold copies a queued body into the slab and returns the copy, capped at
// its length. A slab too small for it is first compacted, if half of it
// is emitted, else replaced by one of twice the room, the held bodies
// moved over either way. Under the gate lock.
func (g *gate) hold(enc []byte) []byte {
	if len(g.held)+len(enc) > cap(g.held) {
		live := len(g.held) - g.hfrom
		dst := g.held
		if 2*g.hfrom < len(g.held) || live+len(enc) > cap(g.held) {
			dst = make([]byte, 0, max(2*(live+len(enc)), minHeld))
		}
		g.rebase(dst)
	}
	off := len(g.held)
	g.held = append(g.held, enc...)
	return g.held[off:len(g.held):len(g.held)]
}

// minHeld is the smallest slab the gate makes: a few cuts' matches.
const minHeld = 4 << 10

// rebase moves the held bodies to the front of dst (which may be the slab
// itself) and points the queued tags at them. Under the gate lock.
func (g *gate) rebase(dst []byte) {
	dst = append(dst[:0], g.held[g.hfrom:]...)
	off := 0
	for i := g.head; i < len(g.q); i++ {
		n := len(g.q[i].Enc)
		g.q[i].Enc = dst[off : off+n : off+n]
		off += n
	}
	g.held, g.hfrom = dst, 0
}

// onProgress is the collector's release tap: matches at or below w have
// all been queued (delivery precedes the progress callback), so w is a
// complete emission bound.
func (g *gate) onProgress(w uint64) {
	g.mu.Lock()
	if w > g.released {
		g.released = w
	}
	g.drainLocked()
	g.mu.Unlock()
}

// onAck applies a standby acknowledgement (ack-reader goroutine). The
// final stand-down ack carries ^uint64(0), fully opening the gate for
// the end-of-stream flush matches.
func (g *gate) onAck(w uint64) {
	g.mu.Lock()
	if w > g.acked {
		g.acked = w
	}
	g.drainLocked()
	g.ackCond.Broadcast()
	g.mu.Unlock()
}

// waitAckedTimeout blocks the caller (the feed goroutine, from the
// replication tap) until the standby has acknowledged at least floor —
// the replication flow-control window. Bounding the primary's lead is
// what makes the mirror hot rather than nominal: without it a fast feed
// can run arbitrarily far ahead of the standby (the link and socket
// buffers absorb whole cut batches), leaving a takeover with a cold
// mirror and the consumer ring unbounded. It reports true at once when
// the gate stops gating (frozen, or successor mode), and false when the
// standby still had not acknowledged floor after d — the silently
// blackholed replication link an unbounded wait would block on forever,
// which the caller answers with a demotion.
func (g *gate) waitAckedTimeout(floor uint64, d time.Duration) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.passedLocked(floor) {
		return true // the common case, once per cut: arm no timer
	}
	timedOut := false
	tm := time.AfterFunc(d, func() {
		g.mu.Lock()
		timedOut = true
		g.mu.Unlock()
		g.ackCond.Broadcast()
	})
	defer tm.Stop()
	for !g.passedLocked(floor) && !timedOut {
		g.ackCond.Wait()
	}
	return g.passedLocked(floor)
}

// passedLocked reports whether a feed waiting on floor may go on.
func (g *gate) passedLocked(floor uint64) bool {
	return g.acked >= floor || g.frozen || g.direct
}

// drainLocked emits the queued prefix at or below the current threshold
// and publishes the new emission state to the standby. The gate unlocks
// around the lease RPC of a prefix that holds a match, so the loop
// re-reads the bounds after each commit until no further progress is
// possible; the draining flag keeps concurrent taps from interleaving
// their own drains through the unlocked window.
func (g *gate) drainLocked() {
	if g.frozen || g.direct || g.draining {
		return
	}
	g.draining = true
	for {
		t := min(g.released, g.acked)
		// The emit prefix is fixed before any unlock: every match with
		// seq <= t <= released is already queued (the collector queues
		// matches before advancing the release frontier past them), so
		// the projected count cannot drift while the lock is dropped.
		n := 0
		for i := g.head; i < len(g.q) && g.q[i].Seq <= t; i++ {
			n++
		}
		if n == 0 && t <= g.emitted {
			break
		}
		// Decode the prefix before committing it: a count the lease
		// records must be a count the consumer gets.
		g.open = append(g.open[:0], g.q[g.head:g.head+n]...)
		for i := 0; i < n && g.err == nil; i++ {
			g.err = cluster.Open(&g.open[i], &g.keep)
		}
		if g.err != nil {
			g.demoteLocked()
			break
		}
		committed := n > 0
		if committed {
			proj := g.delivered + uint64(n)
			g.mu.Unlock()
			ok := g.commit(t, proj)
			g.mu.Lock()
			if !ok {
				g.demoteLocked()
				break
			}
			// A freeze that raced the commit still lets this committed
			// prefix out: the lease already records it, and holding it
			// back would leave the lease ahead of the actually delivered
			// stream (a successor would over-skip). demoteLocked defers
			// the queue discard while draining is set, so the prefix is
			// still intact here.
		}
		for i := g.head; i < g.head+n; i++ {
			g.hfrom += len(g.q[i].Enc)
		}
		clear(g.q[g.head : g.head+n])
		g.head += n
		for i := range g.open {
			g.out(g.open[i])
			g.delivered++
		}
		if g.head == len(g.q) {
			g.q, g.head = g.q[:0], 0
			g.held, g.hfrom = g.held[:0], 0
		} else if 2*g.hfrom >= len(g.held) {
			g.rebase(g.held)
		}
		if n > 0 || t > g.emitted {
			g.emitted = t
			g.publish(wire.ReplState{EmittedUpTo: t, Count: g.delivered})
		}
		if g.frozen {
			break // frozen mid-commit: the committed prefix is out, stop
		}
		if !committed {
			break // no unlock happened, the bounds cannot have moved
		}
	}
	g.draining = false
	clear(g.open) // the consumer's now, or never emitted
	if g.frozen {
		// A freeze that landed while this drain was in flight deferred
		// its queue discard to us (see demoteLocked), and a kill waits
		// for us; nothing beyond the committed prefix may ever escape now.
		g.drop()
		g.ackCond.Broadcast()
	}
}

// drop discards the queue and the bodies it holds. Under the gate lock.
func (g *gate) drop() {
	g.q, g.head = nil, 0
	g.held, g.hfrom = nil, 0
}

// demoteLocked freezes the gate after a lost lease: queued uncommitted
// matches are discarded (the successor regenerates them), nothing
// further escapes. While a drain is in flight — possibly unlocked
// mid-commit — the discard is deferred to the drain's exit: the drain
// must still see its fixed prefix to emit what the lease already
// records as committed, and yanking the queue under it would both
// panic the emit loop and leave the lease count ahead of the stream.
func (g *gate) demoteLocked() {
	if g.direct || g.frozen {
		return
	}
	g.frozen = true
	if !g.draining {
		g.drop()
	}
	g.ackCond.Broadcast()
}

// failure reports why the gate failed: a held match did not decode where
// it was to be emitted. The gate demotes itself — nothing further escapes,
// nothing uncommitted was emitted — and the run's Finish returns this.
func (g *gate) failure() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return fmt.Errorf("ha: emission gate: %w", g.err)
	}
	return nil
}

// demote is the external demotion entry (feed goroutine: keepalive
// failure, lost replication link or standby). It reports the last
// committed emission state for the demotion record.
func (g *gate) demote() (boundary, count uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.demoteLocked()
	return g.emitted, g.delivered
}

// kill freezes the gate as a demotion does — the primary is dead,
// nothing further reaches the consumer, the successor regenerates what
// was queued — and returns once no drain is in flight, so a prefix
// already committed to the lease has been emitted: the death lands
// between drains, and the lease's count is the delivered count a
// successor skips by.
func (g *gate) kill() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.demoteLocked()
	for g.draining {
		g.ackCond.Wait()
	}
}

// takeover switches the gate to successor mode: matches pass straight
// through (there is no standby left to gate on), except the first skip
// regenerated ones — the ones the dead primary delivered past the last
// emission state its standby received.
func (g *gate) takeover(skip uint64) {
	g.mu.Lock()
	g.direct = true
	g.skip = skip
	g.ackCond.Broadcast()
	g.mu.Unlock()
}

// ackedSeq reports the standby's mirrored watermark as last
// acknowledged — the bound below which the consumer-side event ring may
// be trimmed.
func (g *gate) ackedSeq() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.acked
}

// deliveredCount reports the matches emitted downstream so far.
func (g *gate) deliveredCount() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.delivered
}

// committedState reports the emission state as last published/committed
// — what a clean lease release should record.
func (g *gate) committedState() (boundary, count uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.emitted, g.delivered
}

package ha

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acep/internal/cluster"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/shard"
	"acep/internal/wire"
)

// TestGateDemoteMidCommitEmitsCommittedPrefix pins the race between a
// feed-side demotion (lease keepalive failure, replication timeout) and
// a drain that is unlocked mid-commit. The demotion must not discard
// the queue under the in-flight drain: the commit already recorded the
// prefix at the lease, so the drain must still emit it — discarding
// would panic the emit loop on the yanked queue and leave the lease
// count ahead of the delivered stream (a successor would over-skip).
// The queue discard is deferred to the drain's exit.
func TestGateDemoteMidCommitEmitsCommittedPrefix(t *testing.T) {
	var got []uint64
	g := &gate{
		out:     func(tg shard.Tagged) { got = append(got, tg.Seq) },
		publish: func(wire.Frame) {},
	}
	g.ackCond = sync.NewCond(&g.mu)
	g.commit = func(boundary, count uint64) bool {
		// The demotion lands while this drain holds no lock (it is out
		// doing the lease RPC); the commit itself succeeded, so the
		// lease durably records (boundary, count) as emitted.
		g.demote()
		return true
	}
	for seq := uint64(1); seq <= 2; seq++ {
		g.onTagged(shard.Tagged{M: &match.Match{}, Seq: seq})
	}
	g.onProgress(2)
	g.onAck(2) // drain: commit(2, 2) succeeds, demotion races in

	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("emitted %v, want [1 2] (the committed prefix must survive a racing demotion)", got)
	}
	if b, c := g.committedState(); b != 2 || c != 2 {
		t.Fatalf("committed state = (%d, %d), want (2, 2)", b, c)
	}
	g.mu.Lock()
	demoted, qlen := g.demoted, len(g.q)
	g.mu.Unlock()
	if !demoted {
		t.Fatal("gate not demoted")
	}
	if qlen != 0 {
		t.Fatalf("queue not discarded after the in-flight drain exited: %d entries", qlen)
	}

	// Nothing further escapes the demoted gate.
	g.onTagged(shard.Tagged{M: &match.Match{}, Seq: 3})
	g.onProgress(3)
	if len(got) != 2 {
		t.Fatalf("demoted gate emitted past the committed prefix: %v", got)
	}
}

// TestGateDemoteMidCommitFenced: the complementary race — the demotion
// lands mid-commit and the commit itself fails (fence). Nothing may be
// emitted: a fenced commit recorded nothing, so the successor resumes
// from the previous boundary and the prefix belongs to it.
func TestGateDemoteMidCommitFenced(t *testing.T) {
	var got []uint64
	g := &gate{
		out:     func(tg shard.Tagged) { got = append(got, tg.Seq) },
		publish: func(wire.Frame) {},
	}
	g.ackCond = sync.NewCond(&g.mu)
	g.commit = func(boundary, count uint64) bool {
		g.demote()
		return false
	}
	g.onTagged(shard.Tagged{M: &match.Match{}, Seq: 1})
	g.onProgress(1)
	g.onAck(1)
	if len(got) != 0 {
		t.Fatalf("fenced gate emitted %v, want nothing", got)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.demoted {
		t.Fatal("gate not demoted")
	}
	if len(g.q) != 0 {
		t.Fatalf("queue not discarded: %d entries", len(g.q))
	}
}

// stallConn is a replication link whose next Send, once armed, parks
// until the test fails it — the link then dies the way a reset TCP
// stream does: Send returns an error and the peer's frames stop.
type stallConn struct {
	cluster.Conn
	armed   atomic.Bool
	entered chan struct{} // closed when the armed Send is parked
	fail    chan struct{} // closed by the test to fail the parked Send
}

func (c *stallConn) Send(f wire.Frame) error {
	if !c.armed.Load() {
		return c.Conn.Send(f)
	}
	close(c.entered)
	<-c.fail
	c.Conn.Close()
	return errors.New("stallConn: link reset")
}

// TestGateDrainSurvivesLinkLossOnFullReplCh pins the replication-link
// deadlock: a drain publishing its ReplState blocks on a full replCh
// while holding the gate lock, and the only goroutine that drains replCh
// — the sender — is the one that finds the link dead and goes into
// linkLost → gate.degrade, which needs that lock. Link loss must release
// the blocked publish.
func TestGateDrainSurvivesLinkLossOnFullReplCh(t *testing.T) {
	w := haWorkload(t, "traffic")
	rig := startHARig(t, w, gen.Sequence, 0)
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	link := &stallConn{entered: make(chan struct{}), fail: make(chan struct{})}
	emitted := make(chan struct{}, 1)
	p, err := New(Config{
		Pattern: pat, Schema: w.Schema, KeyAttr: "key", Batch: 64,
		Workers:  rig.workers,
		OnTagged: func(shard.Tagged) { emitted <- struct{}{} },
		WrapRepl: func(c cluster.Conn) cluster.Conn { link.Conn = c; return link },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Park the sender inside Send, then fill the channel behind it.
	link.armed.Store(true)
	p.replCh <- wire.ReplState{}
	<-link.entered
	for i := 0; i < replDepth; i++ {
		p.replCh <- wire.ReplState{}
	}
	// One acknowledged match: releasing it drains the gate, and the
	// drain's publish finds replCh full.
	p.g.onTagged(shard.Tagged{M: &match.Match{}, Seq: 1})
	p.g.onAck(1)
	drained := make(chan struct{})
	go func() {
		p.g.onProgress(1)
		close(drained)
	}()
	<-emitted // the drain is past its emit loop, on its way into publish
	close(link.fail)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("gate drain deadlocked against linkLost on a full replCh")
	}
	done := make(chan error, 1)
	go func() { done <- p.Finish() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("finish after the link loss: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("pair Finish hung")
	}
	if deg, _ := p.Degraded(); !deg {
		t.Fatal("a failed replication link did not degrade the pair")
	}
}

package ha

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acep/internal/chaos"
	"acep/internal/cluster"
	"acep/internal/lease"
	"acep/internal/multi"
	"acep/internal/rungtest"
	"acep/internal/shard"
	"acep/internal/wire"
)

// startArbiter brings up a lease arbiter on loopback TCP for one test.
func startArbiter(t *testing.T) (string, *lease.Server) {
	t.Helper()
	arb := lease.New()
	addr, err := arb.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(arb.Close)
	return addr, arb
}

// TestSplitBrainLeaseArbitrated is the acceptance drill for partition
// tolerance: the replication link is silently blackholed both ways
// mid-stream while the old primary stays alive. The lease demotes it —
// gate frozen, a Demotion recorded, nothing further emitted — the
// successor acquires the lease and takes over, and the delivered stream
// is byte-identical to a single-process engine: exactly one ingress
// ever emits.
func TestSplitBrainLeaseArbitrated(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startHARig(t, row, 0)
	var rec rungtest.Recorder
	p, wrap := newPartitionedPair(t, rig.pairConfig(row, rec.Tagged), 500*time.Millisecond)
	for i := range row.Events {
		if i == 2000 {
			wrap.Partition() // both directions, silently
		}
		p.Process(&row.Events[i])
	}
	// The replication flow-control window trips during the feed: the
	// blackholed standby stops acknowledging, and that is a demotion.
	d := p.Demotion()
	if d == nil {
		t.Fatal("partitioned lease-holding primary never demoted")
	}
	if !strings.Contains(d.Cause, "stalled") && !strings.Contains(d.Cause, "replication") {
		t.Fatalf("demotion cause %q does not name the replication loss", d.Cause)
	}
	// The frozen primary must not have emitted past its committed state.
	if got := p.g.deliveredCount(); got != d.Count {
		t.Fatalf("demoted primary delivered %d matches but committed %d — commit-then-emit violated", got, d.Count)
	}
	if err := p.KillPrimary(); err != nil {
		t.Fatalf("lease-arbitrated takeover failed: %v", err)
	}
	if err := p.Finish(); err != nil {
		t.Fatalf("finish after takeover: %v", err)
	}
	rungtest.Require(t, "split brain", rec.Stream(), want)
	tk := p.Takeover()
	if tk == nil {
		t.Fatal("no takeover record after a lease-arbitrated takeover")
	}
	if tk.Skipped != 0 && len(want) == 0 {
		t.Fatalf("takeover skipped %d with an empty reference", tk.Skipped)
	}
}

// newPartitionedPair starts a pair whose replication link a chaos wrapper
// can blackhole, with flow control timing out after replTimeout.
func newPartitionedPair(t *testing.T, cfg Config, replTimeout time.Duration) (*Pair, *chaos.Wrapper) {
	t.Helper()
	var wrap *chaos.Wrapper
	cfg.ReplTimeout = replTimeout
	cfg.WrapRepl = func(c cluster.Conn) cluster.Conn {
		wrap = chaos.Wrap(c, chaos.Config{Seed: 0xbad})
		return wrap
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, wrap
}

// TestDemotedWithoutTakeoverErrors: a demoted primary that is never
// taken over must finish with an explicit error — a silently truncated
// stream would hide the partition from the operator.
func TestDemotedWithoutTakeoverErrors(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startHARig(t, row, 0)
	p, wrap := newPartitionedPair(t, rig.pairConfig(row, func(shard.Tagged) {}), 400*time.Millisecond)
	for i := range row.Events {
		if i == 2000 {
			wrap.Partition()
		}
		p.Process(&row.Events[i])
	}
	if p.Demotion() == nil {
		t.Fatal("partitioned primary never demoted")
	}
	err := p.Finish()
	if err == nil || !strings.Contains(err.Error(), "demoted without takeover") {
		t.Fatalf("Finish on a demoted, never-superseded primary returned %v, want an explicit demotion error", err)
	}
}

// TestDemotedRingCapForfeitsTakeover: a demoted primary retains the
// takeover tail (the events the frozen mirror never saw) only up to
// demotedRingCap — past it the ring is reclaimed and a later
// KillPrimary reports the forfeited takeover explicitly instead of
// building a silently lossy successor or growing memory without bound.
func TestDemotedRingCapForfeitsTakeover(t *testing.T) {
	oldCap := demotedRingCap
	demotedRingCap = 256
	defer func() { demotedRingCap = oldCap }()
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startHARig(t, row, 0)
	p, wrap := newPartitionedPair(t, rig.pairConfig(row, func(shard.Tagged) {}), 400*time.Millisecond)
	for i := range row.Events {
		if i == 2000 {
			wrap.Partition()
		}
		p.Process(&row.Events[i])
	}
	if p.Demotion() == nil {
		t.Fatal("partitioned primary never demoted")
	}
	if !p.ringForfeited {
		t.Fatalf("demoted primary fed %d events past the partition without tripping the %d-event ring cap", len(row.Events)-2000, demotedRingCap)
	}
	if err := p.KillPrimary(); err == nil || !strings.Contains(err.Error(), "takeover impossible") {
		t.Fatalf("KillPrimary after the ring cap returned %v, want an explicit forfeit error", err)
	}
}

// TestLeaseFencedPrimaryDemotes: a stale primary attempting to emit
// after another holder fenced it off the lease must demote, not emit.
// The feed pauses past the TTL (a long GC pause, a suspended VM), an
// external holder acquires, and the primary's next commit is denied.
func TestLeaseFencedPrimaryDemotes(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startHARig(t, row, 0)
	arbAddr, arb := startArbiter(t)
	pat := row.Specs[0].Pattern
	var rec rungtest.Recorder
	p, err := New(Config{
		Pattern: pat, Schema: row.Schema, KeyAttr: "key", Batch: 64,
		Workers: rig.workers, OnTagged: rec.Tagged,
		LeaseAddr: arbAddr, LeaseTTL: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		if i == 2500 {
			// Pause past the TTL so the grant lapses, then usurp it.
			time.Sleep(600 * time.Millisecond)
			fenceLease(t, arbAddr, 7)
		}
		p.Process(&row.Events[i])
	}
	d := p.Demotion()
	if d == nil {
		t.Fatal("fenced primary never demoted")
	}
	if !strings.Contains(d.Cause, "fenced") {
		t.Fatalf("demotion cause %q does not name the fence", d.Cause)
	}
	// Commit-then-emit: the fenced drain emitted nothing, so delivered
	// equals the last successfully committed count exactly.
	if got := p.g.deliveredCount(); got != d.Count {
		t.Fatalf("fenced primary delivered %d matches but committed %d", got, d.Count)
	}
	// And the arbiter holds that count: it is what a successor skips by.
	if _, _, _, count := arb.State(); count != p.g.deliveredCount() {
		t.Fatalf("arbiter records %d delivered, the fenced primary delivered %d", count, p.g.deliveredCount())
	}
	if err := p.Finish(); err == nil || !strings.Contains(err.Error(), "demoted without takeover") {
		t.Fatalf("Finish returned %v after a fence", err)
	}
}

// TestLeaseRenewsOnTheTTLClock pins the lease's cost: the primary commits
// a prefix only when it delivers a match, and renews on its own only once
// the last renewal is a quarter TTL old — not once per cut. Counted at the
// arbiter, whose clock ticks once per Acquire or Renew, the RPCs are at
// most the cuts that held a delivered match, plus the keepalives the run's
// length allows, plus the acquire, the release and one keepalive of slack.
func TestLeaseRenewsOnTheTTLClock(t *testing.T) {
	const batch, ttl = 64, 2 * time.Second
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startHARig(t, row, 0)
	var rpcs atomic.Int64
	arb := lease.NewAt(func() time.Time { rpcs.Add(1); return time.Now() })
	arbAddr, err := arb.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(arb.Close)
	pat := row.Specs[0].Pattern
	var mu sync.Mutex
	matchCuts := map[uint64]bool{} // cut ordinal (seq-1)/batch; the flush has its own
	start := time.Now()
	p, err := New(Config{
		Pattern: pat, Schema: row.Schema, KeyAttr: "key", Batch: batch,
		Workers: rig.workers, LeaseAddr: arbAddr, LeaseTTL: ttl,
		OnTagged: func(tg shard.Tagged) {
			mu.Lock()
			matchCuts[(tg.Seq-1)/batch] = true
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		p.Process(&row.Events[i])
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	cuts := (len(row.Events) + batch - 1) / batch
	if len(matchCuts) == 0 || len(matchCuts) > cuts/2 {
		t.Fatalf("%d of %d cuts held a match: the workload cannot tell a per-cut lease from one that is not", len(matchCuts), cuts)
	}
	bound := int64(len(matchCuts)) + int64(elapsed/(ttl/4)) + 3
	if got := rpcs.Load(); got > bound {
		t.Fatalf("%d lease RPCs over %d cuts (%d holding a delivered match) in %v, want at most %d", got, cuts, len(matchCuts), elapsed, bound)
	}
}

// TestPairRefusesPatternOps: a takeover rebuilds the successor from
// Config.Pattern alone, so the pair's ingress hosts that pattern and no
// other — a runtime add or remove would be silently undone by the first
// takeover, and the sealed ingress refuses both.
func TestPairRefusesPatternOps(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startHARig(t, row, 0)
	other := rungtest.Lookup(t, "traffic/negation").Specs[0].Pattern
	var rec rungtest.Recorder
	runPairFeed(t, rig, row, &rec, nil, func(p *Pair) {
		for i := range row.Events {
			if i == len(row.Events)/2 {
				if err := p.Ingress().AddPattern(multi.Spec{ID: 1, Pattern: other}); err == nil || !strings.Contains(err.Error(), "sealed") {
					t.Errorf("AddPattern on the pair's ingress returned %v, want a sealed-ingress refusal", err)
				}
				if err := p.Ingress().RemovePattern(multi.SoloID); err == nil || !strings.Contains(err.Error(), "sealed") {
					t.Errorf("RemovePattern on the pair's ingress returned %v, want a sealed-ingress refusal", err)
				}
			}
			p.Process(&row.Events[i])
		}
	})
}

// fenceLease acquires the arbiter's lease as a foreign holder (the
// usurper must wait out any live grant first).
func fenceLease(t *testing.T, addr string, holder uint64) {
	t.Helper()
	cl, err := lease.Dial(t.Context(), addr, cluster.DialPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Acquire(holder, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Granted {
		t.Fatalf("usurper denied: lease still held by %d at epoch %d", f.Holder, f.Epoch)
	}
}

// TestChaosFaultyLinkAbsorbed: duplicated and delayed replication
// frames — the only faults the cut-ordinal protocol absorbs silently —
// must have zero effect on the delivered stream, and demote nothing (a
// demoted primary's Finish errors).
func TestChaosFaultyLinkAbsorbed(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startHARig(t, row, 0)
	var rec rungtest.Recorder
	var wrap *chaos.Wrapper
	cfg := rig.pairConfig(row, rec.Tagged)
	cfg.WrapRepl = func(c cluster.Conn) cluster.Conn {
		wrap = chaos.Wrap(c, chaos.Config{
			Seed: 0xfeed, DupProb: 0.08,
			DelayProb: 0.15, MaxDelay: time.Millisecond,
		})
		return wrap
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		p.Process(&row.Events[i])
	}
	if err := p.Finish(); err != nil {
		t.Fatalf("finish under dup/delay faults: %v", err)
	}
	rungtest.Require(t, "faulty link", rec.Stream(), want)
	st := wrap.Stats()
	if st.Dups+st.Delays == 0 {
		t.Fatal("fault injector injected nothing; test is vacuous")
	}
}

// TestChaosDroppedCutDemotes: a silently dropped replication frame is
// NOT absorbable — the next cut's ordinal exposes the gap, the standby
// fails the link rather than journal incomplete history, and the primary
// demotes. Killing it then hands the stream to a successor that resumes
// from the mirror's last whole cut, byte-identical.
func TestChaosDroppedCutDemotes(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startHARig(t, row, 0)
	var rec rungtest.Recorder
	var wrap *chaos.Wrapper
	cfg := rig.pairConfig(row, rec.Tagged)
	cfg.WrapRepl = func(c cluster.Conn) cluster.Conn {
		wrap = chaos.Wrap(c, chaos.Config{Seed: 0xd0d0})
		return wrap
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		switch i {
		case 1000:
			wrap.PartitionSend() // outbound frames vanish silently
		case 1200:
			wrap.Heal() // the next cut arrives with a gapped ordinal
		}
		p.Process(&row.Events[i])
	}
	// The primary cannot outrun its window past the gap: flow control
	// holds the feed until the failed link demotes it.
	if d := p.Demotion(); d == nil || !strings.Contains(d.Cause, "replication link lost") {
		t.Fatalf("dropped replication frames left demotion %+v, want one naming the lost link", d)
	}
	if err := p.KillPrimary(); err != nil {
		t.Fatalf("takeover after the gap failed: %v", err)
	}
	if err := p.Finish(); err != nil {
		t.Fatalf("finish after takeover: %v", err)
	}
	rungtest.Require(t, "dropped cut", rec.Stream(), want)
	if p.Takeover() == nil {
		t.Fatal("no takeover record after the gap")
	}
}

// TestOutOfProcessStandbyTakeover exercises the acep-standby deployment
// shape in-process: the StandbyServer lives behind its own listener
// (Config.StandbyAddr), the Pair spawns nothing, and the takeover pulls
// the mirrored state back over TCP through the handover protocol.
func TestOutOfProcessStandbyTakeover(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startHARig(t, row, 0)
	l, err := cluster.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewStandbyServer(l)
	go srv.Serve()
	t.Cleanup(func() { srv.Stop(); srv.Wait() })
	var rec rungtest.Recorder
	cfg := rig.pairConfig(row, rec.Tagged)
	cfg.StandbyAddr = l.Addr()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var srvCuts, srvEvents int
	for i := range row.Events {
		if i == 2500 {
			waitMirrorTrim(t, srv)
			if err := p.KillPrimary(); err != nil {
				t.Fatalf("takeover from the external standby failed: %v", err)
			}
			srvCuts, srvEvents = srv.Stats()
		}
		p.Process(&row.Events[i])
	}
	if err := p.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	rungtest.Require(t, "external standby", rec.Stream(), want)
	tk := p.Takeover()
	if tk == nil || tk.ReplayCuts == 0 {
		t.Fatalf("takeover record %+v, want replayed cuts from the external mirror", tk)
	}
	// The handover reports what the standby mirrored, in the units the
	// in-process path reports: every mirrored cut, not the ones its
	// journal still retains.
	cuts, events := p.MirrorStats()
	if cuts == 0 || events == 0 {
		t.Fatalf("handover recorded no mirror volume (%d cuts, %d events)", cuts, events)
	}
	if cuts != srvCuts || events != srvEvents {
		t.Fatalf("MirrorStats() = (%d cuts, %d events), the standby mirrored (%d, %d)",
			cuts, events, srvCuts, srvEvents)
	}
}

// waitMirrorTrim waits until the standby's journal has trimmed a cut it
// mirrored, so that the cuts it retains and the cuts it mirrored differ.
func waitMirrorTrim(t *testing.T, srv *StandbyServer) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		trimmed := srv.journal != nil && uint64(srv.journal.Cuts()) < srv.lastCut
		srv.mu.Unlock()
		if trimmed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the standby's journal trimmed no cut in 10 s")
		}
	}
}

// TestWedgedStandbyHandoverTimesOut: a successor adopting from a
// standby that accepts the handover request and then never responds
// must surface an error via the read-stall probe — not hang the
// takeover forever.
func TestWedgedStandbyHandoverTimesOut(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startHARig(t, row, 0)
	// A fake standby: mirrors nothing, acks every cut (so the primary
	// runs normally), and wedges on the first Handover frame.
	l, err := cluster.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop); l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c cluster.Conn) {
				defer c.Close()
				for {
					f, err := c.Recv()
					if err != nil {
						return
					}
					switch v := f.(type) {
					case *wire.ReplCut:
						up := v.UpTo
						if v.Final {
							up = math.MaxUint64
						}
						if c.Send(wire.Watermark{UpTo: up}) != nil {
							return
						}
					case wire.Handover:
						<-stop // wedge: the successor is owed a reply that never comes
						return
					}
				}
			}(c)
		}
	}()
	cfg := rig.pairConfig(row, func(shard.Tagged) {})
	cfg.StandbyAddr = l.Addr()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2500; i++ {
		p.Process(&row.Events[i])
	}
	start := time.Now()
	err = p.KillPrimary()
	if err == nil || !strings.Contains(err.Error(), "handover") {
		t.Fatalf("takeover from a wedged standby returned %v, want a handover error", err)
	}
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("wedged handover took %v to fail", el)
	}
}

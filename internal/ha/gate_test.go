package ha

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acep/internal/cluster"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/rungtest"
	"acep/internal/shard"
	"acep/internal/wire"
)

// sealedTag is a tag as the coordinator's collector hands it to the gate:
// the match as bytes, nothing decoded.
func sealedTag(seq uint64) shard.Tagged {
	return shard.Tagged{Seq: seq, Enc: wire.AppendMatchBody(nil, &match.Match{})}
}

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
		g.onTagged(sealedTag(seq))
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
	frozen, qlen := g.frozen, len(g.q)
	g.mu.Unlock()
	if !frozen {
		t.Fatal("gate not demoted")
	}
	if qlen != 0 {
		t.Fatalf("queue not discarded after the in-flight drain exited: %d entries", qlen)
	}

	// Nothing further escapes the demoted gate.
	g.onTagged(sealedTag(3))
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
	g.onTagged(sealedTag(1))
	g.onProgress(1)
	g.onAck(1)
	if len(got) != 0 {
		t.Fatalf("fenced gate emitted %v, want nothing", got)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.frozen {
		t.Fatal("gate not demoted")
	}
	if len(g.q) != 0 {
		t.Fatalf("queue not discarded: %d entries", len(g.q))
	}
}

// TestGateKillMidCommitEmitsCommittedPrefix: a kill that lands while a
// drain is out committing returns only once the committed prefix is
// emitted. The successor skips by the lease's count, so a kill that let
// the prefix die with the primary would leave that count ahead of what
// the consumer got, and the successor would drop matches nobody saw.
func TestGateKillMidCommitEmitsCommittedPrefix(t *testing.T) {
	var got []uint64
	g := &gate{
		out:     func(tg shard.Tagged) { got = append(got, tg.Seq) },
		publish: func(wire.Frame) {},
	}
	g.ackCond = sync.NewCond(&g.mu)
	killed := make(chan uint64)
	g.commit = func(boundary, count uint64) bool {
		go func() {
			g.kill()
			killed <- g.deliveredCount()
		}()
		// Wait for the kill to freeze the gate: it holds the lock from
		// then until it waits for this drain.
		for frozen := false; !frozen; {
			g.mu.Lock()
			frozen = g.frozen
			g.mu.Unlock()
		}
		return true
	}
	g.onTagged(sealedTag(1))
	g.onTagged(sealedTag(2))
	g.onProgress(2)
	g.onAck(2)
	if d := <-killed; d != 2 {
		t.Fatalf("kill returned with %d of the 2 committed matches delivered", d)
	}
	if !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("emitted %v, want [1 2]", got)
	}
	g.onTagged(sealedTag(3))
	g.onProgress(3)
	g.onAck(3)
	if len(got) != 2 {
		t.Fatalf("killed gate emitted past the committed prefix: %v", got)
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
// linkLost → demote, which needs that lock. Link loss must release the
// blocked publish, and demote the primary.
func TestGateDrainSurvivesLinkLossOnFullReplCh(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startHARig(t, row, 0)
	link := &stallConn{entered: make(chan struct{}), fail: make(chan struct{})}
	emitted := make(chan struct{}, 1)
	cfg := rig.pairConfig(row, func(shard.Tagged) { emitted <- struct{}{} })
	cfg.WrapRepl = func(c cluster.Conn) cluster.Conn { link.Conn = c; return link }
	p, err := New(cfg)
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
	p.g.onTagged(sealedTag(1))
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
		if err == nil || !strings.Contains(err.Error(), "demoted without takeover") {
			t.Fatalf("finish after the link loss returned %v, want an explicit demotion error", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("pair Finish hung")
	}
	if d := p.Demotion(); d == nil || !strings.Contains(d.Cause, "replication link lost") {
		t.Fatalf("a failed replication link left demotion %+v, want one naming the lost link", d)
	}
}

// heldFrames builds what a stalled standby leaves in the gate: cuts cuts'
// worth of sealed tags, perCut to a cut, each cut's bodies sharing one
// frame buffer the way an ingress reader's tags alias the Matches frame
// they arrived in. It returns the tags in merge order and the bytes each
// must still decode to at emission.
func heldFrames(cuts, perCut int) (tags []shard.Tagged, bodies [][]byte) {
	ev := func(seq uint64) *event.Event {
		return &event.Event{Type: int(seq % 3), TS: event.Time(seq), Seq: seq, Attrs: []float64{float64(seq), 0.5}}
	}
	for c := 0; c < cuts; c++ {
		var frame []byte
		var offs []int
		for k := 0; k < perCut; k++ {
			seq := uint64(c*perCut+k)*3 + 1
			m := &match.Match{Events: []*event.Event{ev(seq), ev(seq + 1), ev(seq + 2)}}
			offs = append(offs, len(frame))
			frame = wire.AppendMatchBody(frame, m)
		}
		offs = append(offs, len(frame))
		for k := 0; k < perCut; k++ {
			body := frame[offs[k]:offs[k+1]:offs[k+1]]
			tags = append(tags, shard.Tagged{Seq: uint64(c + 1), Src: k % 2, Pattern: uint32(k), Enc: body})
			bodies = append(bodies, append([]byte(nil), body...))
		}
	}
	return tags, bodies
}

// TestGateHoldAllocs pins what a held match costs: the gate queues the
// collector's sealed tag with its body copied into the gate's slab — no
// decode, no re-encode — so holding allocates nothing beyond the queue's
// and the slab's amortised growth, however long the standby stalls. A
// thousand cuts later the ack arrives and every match decodes, in order,
// to the bytes that were held: what waits in the gate is the tags and the
// slab, bounded by the replication window the primary may run ahead of
// its standby (replLagCuts cuts, enforced by waitAckedTimeout in the
// replication tap, plus what the workers have in flight).
func TestGateHoldAllocs(t *testing.T) {
	const cuts, perCut = 1000, 8
	tags, bodies := heldFrames(cuts, perCut)
	var got []shard.Tagged
	g := &gate{
		out:     func(tg shard.Tagged) { got = append(got, tg) },
		publish: func(wire.Frame) {},
		commit:  func(uint64, uint64) bool { return true },
	}
	g.ackCond = sync.NewCond(&g.mu)
	next := 0
	hold := func() {
		for k := 0; k < perCut; k++ {
			g.onTagged(tags[next])
			next++
		}
		g.onProgress(tags[next-1].Seq) // released by the collector, not yet acknowledged
	}
	for next < 500*perCut {
		hold()
	}
	// The queue and the slab grow by amortised doubling — a few
	// reallocations over the next 400 cuts, which AllocsPerRun's
	// whole-number average drops; one allocation per held cut, let alone
	// per match, it would not.
	if avg := testing.AllocsPerRun(399, hold); avg != 0 {
		t.Errorf("holding a cut of %d matches allocated %.3f times, want only the queue's amortised growth", perCut, avg)
	}
	for next < len(tags) {
		hold()
	}
	if len(got) != 0 {
		t.Fatalf("%d matches escaped a gate whose standby acknowledged nothing", len(got))
	}
	g.onAck(cuts)
	if len(got) != len(tags) {
		t.Fatalf("emitted %d of %d held matches", len(got), len(tags))
	}
	for i, tg := range got {
		if tg.M == nil || tg.Enc != nil {
			t.Fatalf("match %d emitted sealed: %+v", i, tg)
		}
		if tg.Seq != tags[i].Seq || tg.Src != tags[i].Src || tg.Pattern != tags[i].Pattern {
			t.Fatalf("match %d emitted as (%d, %d, %d), held as (%d, %d, %d)", i, tg.Seq, tg.Src, tg.Pattern, tags[i].Seq, tags[i].Src, tags[i].Pattern)
		}
		if again := wire.AppendMatchBody(nil, tg.M); !bytes.Equal(again, bodies[i]) {
			t.Fatalf("match %d re-encodes to other bytes than were held", i)
		}
	}
	if d := g.deliveredCount(); d != uint64(len(tags)) {
		t.Fatalf("delivered count %d, want %d", d, len(tags))
	}
}

// TestGateRefusesUndecodableMatch: a held body that does not decode where
// it is to be emitted fails the gate before anything of its prefix is
// committed — the lease's count stays the delivered count, so a successor
// skips exactly what the consumer got — and the failure is the run's
// error, not a silently skipped match. (Unreachable through the
// coordinator, whose readers check every body on arrival; the gate does
// not rest its lease on that.)
func TestGateRefusesUndecodableMatch(t *testing.T) {
	tags, _ := heldFrames(3, 2)
	bad := tags[3]
	bad.Enc = bad.Enc[:len(bad.Enc)-9]
	tags[3] = bad
	for _, direct := range []bool{false, true} {
		var got []uint64
		var commits [][2]uint64
		g := &gate{
			out:     func(tg shard.Tagged) { got = append(got, tg.Seq) },
			publish: func(wire.Frame) {},
			commit: func(boundary, count uint64) bool {
				commits = append(commits, [2]uint64{boundary, count})
				return true
			},
		}
		g.ackCond = sync.NewCond(&g.mu)
		if direct {
			g.takeover(0)
		}
		for cut := 0; cut < 3; cut++ {
			g.onTagged(tags[2*cut])
			g.onTagged(tags[2*cut+1])
			g.onProgress(uint64(cut + 1))
			g.onAck(uint64(cut + 1))
		}
		// Cut 1 is out; cut 2 holds the damaged body, behind a sound one
		// that a successor, emitting match by match, has already passed on.
		want := 2
		if direct {
			want = 3
		}
		if len(got) != want {
			t.Fatalf("direct=%v: emitted %v, want %d matches and nothing past the damaged one", direct, got, want)
		}
		if err := g.failure(); err == nil || !strings.Contains(err.Error(), "does not decode at emission") {
			t.Fatalf("direct=%v: gate failure %v, want the decode error", direct, err)
		}
		if direct {
			continue
		}
		if last := commits[len(commits)-1]; last != [2]uint64{1, 2} || g.deliveredCount() != 2 {
			t.Fatalf("lease last committed %v with %d delivered, want (1, 2) and 2: committed must equal emitted", last, g.deliveredCount())
		}
		if b, c := g.committedState(); b != 1 || c != 2 {
			t.Fatalf("committed state (%d, %d), want (1, 2)", b, c)
		}
	}
}

// TestGateCommitsOnlyWhatEmits pins the lease traffic of the drain: every
// threshold advance publishes its ReplState, but only an advance whose
// prefix holds a match commits, with the count the consumer will then
// have. A prefix without one leaves the count — all a successor reads —
// unchanged, so committing it would be a round trip for nothing.
func TestGateCommitsOnlyWhatEmits(t *testing.T) {
	var commits, states [][2]uint64
	delivered := 0
	g := &gate{
		out: func(shard.Tagged) { delivered++ },
		publish: func(f wire.Frame) {
			st := f.(wire.ReplState)
			states = append(states, [2]uint64{st.EmittedUpTo, st.Count})
		},
		commit: func(boundary, count uint64) bool {
			commits = append(commits, [2]uint64{boundary, count})
			return true
		},
	}
	g.ackCond = sync.NewCond(&g.mu)
	var wantCommits, wantStates [][2]uint64
	count := uint64(0)
	advance := func(to uint64, matches uint64) {
		count += matches
		if matches > 0 {
			wantCommits = append(wantCommits, [2]uint64{to, count})
		}
		wantStates = append(wantStates, [2]uint64{to, count})
	}
	cut := uint64(0)
	// Cut by cut, the bounds arriving in either order: one advance a cut.
	for ; cut < 30; cut++ {
		next := cut + 1
		n := next % 3
		for range n {
			g.onTagged(sealedTag(next))
		}
		if next%2 == 0 {
			g.onAck(next)
			g.onProgress(next)
		} else {
			g.onProgress(next)
			g.onAck(next)
		}
		advance(next, n)
	}
	// The standby lags ten cuts, five of them with matches: one advance.
	for k := uint64(1); k <= 10; k++ {
		if k%2 == 0 {
			g.onTagged(sealedTag(cut + k))
		}
		g.onProgress(cut + k)
	}
	g.onAck(cut + 10)
	advance(cut+10, 5)
	cut += 10
	// Ten cuts without a match, then the ack: an advance, no commit.
	g.onProgress(cut + 10)
	g.onAck(cut + 10)
	advance(cut+10, 0)

	if !slices.Equal(commits, wantCommits) {
		t.Errorf("commits %v, want %v (one per advance that emits, none otherwise)", commits, wantCommits)
	}
	if !slices.Equal(states, wantStates) {
		t.Errorf("published states %v, want %v (one per advance)", states, wantStates)
	}
	if uint64(delivered) != count || g.deliveredCount() != count {
		t.Errorf("delivered %d (gate counts %d), want %d", delivered, g.deliveredCount(), count)
	}
}

// TestGateWaitAckedAllocs: the replication window check runs once per
// cut, and while the standby keeps up it must cost no timer.
func TestGateWaitAckedAllocs(t *testing.T) {
	g := &gate{out: func(shard.Tagged) {}, publish: func(wire.Frame) {}}
	g.ackCond = sync.NewCond(&g.mu)
	g.onAck(1000)
	if avg := testing.AllocsPerRun(100, func() {
		if !g.waitAckedTimeout(1000, time.Minute) {
			t.Fatal("an acknowledged floor timed out")
		}
	}); avg != 0 {
		t.Errorf("waiting on an acknowledged floor allocated %.1f times, want 0", avg)
	}
}

// testGate is a gate as the tests drive it: out collects what it emits,
// nothing is published, every commit succeeds.
func testGate(out func(shard.Tagged)) *gate {
	g := &gate{
		out:     out,
		publish: func(wire.Frame) {},
		commit:  func(uint64, uint64) bool { return true },
	}
	g.ackCond = sync.NewCond(&g.mu)
	return g
}

// TestGateKeepsHeldBodies: a sealed tag's Enc is valid only during
// OnTagged — the ingress reader reads a later Matches frame into the
// frame's buffer once its last match is delivered — so what the gate
// holds is its own copy. Behind a standby that acknowledges nothing, the
// gate holds the first cut's matches while the readers read 64 more
// frames into recycled buffers (under the race detector each is poisoned
// as it comes back); each later cut completes two matches, so a reused
// buffer is rewritten where the first cut's matches began. Then the ack
// arrives, and every held match decodes to the bytes it was delivered
// with.
func TestGateKeepsHeldBodies(t *testing.T) {
	const cut = 256
	s := event.NewSchema()
	pb := pattern.NewBuilder(s, pattern.Seq, 100)
	for _, name := range []string{"A", "B", "C"} {
		pb.Event(s.MustAddType(name, "key"))
	}
	pb.WhereEq(0, "key", 1, "key").WhereEq(1, "key", 2, "key")
	pat := pb.MustBuild()
	conns, err := cluster.Spawn(2, cluster.NodeConfig{Pattern: pat, Schema: s, KeyAttr: "key", Shards: 1}, func(err error) { t.Error(err) })
	if err != nil {
		t.Fatal(err)
	}
	var got []shard.Tagged
	g := testGate(func(tg shard.Tagged) { got = append(got, tg) })
	var want [][]byte
	done := make(chan uint64, 1024)
	ing, err := cluster.NewSealedIngress(pat, conns, cluster.IngressOptions{
		Batch: cut, KeyAttr: "key", Schema: s,
		OnTagged: func(tg shard.Tagged) {
			want = append(want, slices.Clone(tg.Enc))
			g.onTagged(tg)
		},
		OnProgress: func(w uint64) {
			g.onProgress(w)
			done <- w
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := &event.Event{}
	const cuts = 1 + 32 // each node answers every cut with a Matches frame
	for i := 0; i < cuts*cut; i++ {
		ev.Type, ev.TS, ev.Seq = i%3, event.Time(i), uint64(i+1)
		ev.Attrs = append(ev.Attrs[:0], float64(i/3%64))
		if c, k := i/cut, i%cut; c > 0 {
			ev.Type, ev.Attrs[0] = min(k, 6)%3, float64(c%32*2+k/3) // A, B, C twice, then As
		}
		ing.Process(ev)
	}
	for seen := uint64(0); seen < cuts*cut; seen = <-done {
	}
	if len(got) != 0 {
		t.Fatalf("%d matches escaped a gate whose standby acknowledged nothing", len(got))
	}
	g.onAck(math.MaxUint64)
	if err := g.failure(); err != nil {
		t.Fatal(err)
	}
	if len(got) < 85+2*(cuts-2) {
		t.Fatalf("the gate emitted %d matches, want the first cut's 85 and two a cut after it", len(got))
	}
	for i, tg := range got {
		if again := wire.AppendMatchBody(nil, tg.M); !bytes.Equal(again, want[i]) {
			t.Fatalf("match %d (at %d) decoded to other bytes than it was delivered with", i, tg.Seq)
		}
	}
	if err := ing.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestGateSlabBounded: the gate's slab holds the queued bodies back to
// back; a drain that empties the queue resets it and one that leaves half
// of it or more emitted compacts it, so after every drain it is at most
// twice the bytes still held, and it grows only to twice the most the
// gate ever held. The standby acknowledges in uneven steps while cuts
// keep arriving, and every match still decodes to the bytes it was held
// with.
func TestGateSlabBounded(t *testing.T) {
	const cuts, perCut = 600, 8
	tags, bodies := heldFrames(cuts, perCut)
	var got []shard.Tagged
	g := testGate(func(tg shard.Tagged) { got = append(got, tg) })
	live := func() (n int) {
		for _, tg := range g.q[g.head:] {
			n += len(tg.Enc)
		}
		return n
	}
	next, acked, most := 0, uint64(0), 0
	for c := 1; c <= cuts; c++ {
		for ; next < c*perCut; next++ {
			g.onTagged(tags[next])
		}
		g.onProgress(uint64(c))
		most = max(most, live())
		if c%7 == 0 || c%11 == 0 || c == cuts {
			acked = max(acked, uint64(c-c%5)) // uneven steps, and some that drain nothing
			g.onAck(acked)
			if held := live(); len(g.held) > 2*held {
				t.Fatalf("cut %d: after a drain the slab spans %d bytes for %d held", c, len(g.held), held)
			}
		}
		if cap(g.held) > max(2*most, minHeld) {
			t.Fatalf("cut %d: the slab has %d bytes of room, the gate never held more than %d", c, cap(g.held), most)
		}
	}
	g.onAck(math.MaxUint64)
	if len(g.held) != 0 || len(got) != len(tags) {
		t.Fatalf("emitted %d of %d matches, %d bytes left in the slab", len(got), len(tags), len(g.held))
	}
	for i, tg := range got {
		if again := wire.AppendMatchBody(nil, tg.M); !bytes.Equal(again, bodies[i]) {
			t.Fatalf("match %d re-encodes to other bytes than were held", i)
		}
	}
}

// BenchmarkGateHold is the gate behind a standby that acknowledges 64
// cuts at a time: an iteration holds 64 cuts of eight matches, each body
// copied into the slab, then the ack emits them, decoded into the gate's
// keeper outside the timer. It reports what holding a match allocates,
// in bytes over everything the process allocates while the cuts are held
// (B/match): the slab and the queue are reused once grown. CI runs it as
// a smoke.
func BenchmarkGateHold(b *testing.B) {
	const cuts, perCut, lag = 1024, 8, 64
	tags, _ := heldFrames(cuts, perCut)
	g := testGate(func(shard.Tagged) {})
	c := 0
	hold := func() {
		for k := 0; k < perCut; k++ {
			tg := tags[c%cuts*perCut+k]
			tg.Seq = uint64(c + 1)
			g.onTagged(tg)
		}
		c++
		g.onProgress(uint64(c))
	}
	var ms runtime.MemStats
	var held uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for k := 0; k < lag; k++ {
			hold()
		}
		runtime.ReadMemStats(&ms)
		held += ms.TotalAlloc - before
		b.StopTimer()
		g.onAck(uint64(c))
		b.StartTimer()
	}
	b.ReportMetric(float64(held)/float64(b.N*lag*perCut), "B/match")
}

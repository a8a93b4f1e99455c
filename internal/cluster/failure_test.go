package cluster

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acep/internal/chaos"
	"acep/internal/engine"
	"acep/internal/match"
	"acep/internal/multi"
	recovery "acep/internal/recover"
	"acep/internal/rungtest"
	"acep/internal/wire"
)

// Failure-injecting transports live in internal/chaos now
// (chaos.Flaky, chaos.Script) — shared between these tests, the HA
// tests, acep-bench chaos-* and acep-run -chaos.

// brokenCluster builds a 3-node pipe cluster whose middle link dies
// after the given number of successful ingress sends.
func brokenCluster(t *testing.T, budget int) (*Ingress, rungtest.Row) {
	t.Helper()
	row := rungtest.Lookup(t, "pinned/sequence-300")
	pat := row.Specs[0].Pattern
	conns := make([]Conn, 3)
	for i := range conns {
		node, err := NewNode(NodeConfig{
			Pattern: pat, Engine: engine.Config{CheckEvery: 250},
			Shards: 2, Batch: 128, KeyAttr: "key", Schema: row.Schema,
		})
		if err != nil {
			t.Fatal(err)
		}
		client, server := Pipe()
		go node.Serve(server) //nolint:errcheck // the severed node's error is expected
		conns[i] = client
	}
	conns[1] = &chaos.Flaky{C: conns[1], Budget: budget}
	ing, err := NewIngress(pat, conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: row.Schema,
		OnMatch: func(*match.Match) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ing, row
}

// TestIngressSurvivesDeadNodeLink: when one node's link dies mid-stream,
// the ingress records the error, keeps draining the surviving nodes, and
// Finish returns the failure instead of hanging. (Exactness is
// necessarily lost with a dead node — that is why the error must
// surface.)
func TestIngressSurvivesDeadNodeLink(t *testing.T) {
	// Budget 2 covers the assign frame and one cut; the link dies while
	// the stream is still flowing.
	ing, row := brokenCluster(t, 2)
	for i := range row.Events {
		ing.Process(&row.Events[i])
	}
	err := rungtest.Finish(t, ing.Finish)
	if err == nil {
		t.Fatal("Finish reported success despite a dead node link")
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Fatalf("error does not identify the dead link: %v", err)
	}
	if ing.Err() == nil {
		t.Fatal("Err() lost the recorded failure")
	}
	// The surviving nodes' metrics still arrive: the merged view has seen
	// events even though node 1's share is lost. (With only 4 keys over 6
	// global shards an individual survivor may legitimately be idle, so
	// the assertion is on the merged view.)
	if ing.Metrics().EventsArrived == 0 {
		t.Fatal("no surviving node reported metrics")
	}
}

// TestIngressSurvivesNodeCrash: a node whose process dies (connection
// closes abruptly, no metrics ever sent) must not wedge the cluster.
func TestIngressSurvivesNodeCrash(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300")
	pat := row.Specs[0].Pattern
	conns := make([]Conn, 2)
	for i := range conns {
		node, err := NewNode(NodeConfig{
			Pattern: pat, Engine: engine.Config{CheckEvery: 250},
			Shards: 1, Batch: 128, KeyAttr: "key", Schema: row.Schema,
		})
		if err != nil {
			t.Fatal(err)
		}
		client, server := Pipe()
		if i == 1 {
			// Crash the node right after the handshake: greet, take the
			// assignment, then slam the connection shut.
			sig := signature(multi.Solo(pat, engine.Config{}), row.Schema)
			go func() {
				server.Send(wire.Hello{Version: wire.Version, Shards: 1, PatternSig: sig}) //nolint:errcheck
				server.Recv()                                                              //nolint:errcheck // assign
				server.Close()
			}()
		} else {
			go node.Serve(server) //nolint:errcheck
		}
		conns[i] = client
	}
	ing, err := NewIngress(pat, conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: row.Schema,
		OnMatch: func(*match.Match) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		ing.Process(&row.Events[i])
	}
	if err := rungtest.Finish(t, ing.Finish); err == nil {
		t.Fatal("Finish reported success despite a crashed node")
	}
}

// TestHandshakeRejections: version skew, pattern mismatch and protocol
// violations are refused before any event crosses the wire.
func TestHandshakeRejections(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300")
	pat := row.Specs[0].Pattern
	sig := signature(multi.Solo(pat, engine.Config{}), row.Schema)
	opts := IngressOptions{KeyAttr: "key", Schema: row.Schema, OnMatch: func(*match.Match) {}}
	cases := []struct {
		name  string
		hello wire.Frame
	}{
		{"version skew", wire.Hello{Version: wire.Version + 1, Shards: 1, PatternSig: sig}},
		{"pattern mismatch", wire.Hello{Version: wire.Version, Shards: 1, PatternSig: sig ^ 1}},
		{"zero shards", wire.Hello{Version: wire.Version, Shards: 0, PatternSig: sig}},
		{"wrong frame", wire.Batch{UpTo: 1}},
	}
	// Every way into a session runs the one hello check: a founding
	// member's, a join's, a standby's adopting a dead slot.
	running := func() *Ingress { return &Ingress{patternSet: patternSet{sig: sig}, journal: new(recovery.Journal)} }
	entries := []struct {
		name string
		open func(c Conn) error
	}{
		{"founding", func(c Conn) error { _, err := NewIngress(pat, []Conn{c}, opts); return err }},
		{"join", func(c Conn) error { _, err := running().AddNode(c); return err }},
		{"adoption", func(c Conn) error { return running().adopt(0, c) }},
	}
	for _, c := range cases {
		for _, e := range entries {
			if err := e.open(&chaos.Script{Frames: []wire.Frame{c.hello}}); err == nil {
				t.Errorf("%s: %s handshake accepted", c.name, e.name)
			}
		}
	}

	// Node side: a peer that answers hello with something other than an
	// assignment is refused.
	node, err := NewNode(NodeConfig{
		Pattern: pat, Engine: engine.Config{}, Shards: 1, KeyAttr: "key", Schema: row.Schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Serve(&chaos.Script{Frames: []wire.Frame{wire.Watermark{UpTo: 1}}}); err == nil {
		t.Error("node accepted a non-assign handshake reply")
	}
	// An assignment of an empty global shard space, or without a pattern
	// set, is refused.
	set := []wire.PatternEntry{{Pattern: pat}}
	if err := node.Serve(&chaos.Script{Frames: []wire.Frame{wire.Assign{Total: 0, Schema: row.Schema, Patterns: set}}}); err == nil {
		t.Error("node accepted an empty global shard space")
	}
	if err := node.Serve(&chaos.Script{Frames: []wire.Frame{wire.Assign{Total: 3, Schema: row.Schema}}}); err == nil {
		t.Error("node accepted an assignment without a pattern set")
	}
}

// frameLog is a peer that records the kind of every frame sent at it.
type frameLog struct {
	chaos.Script
	got map[wire.Kind]int
}

func (l *frameLog) Send(f wire.Frame) error {
	l.got[wire.KindOf(f)]++
	return nil
}

// TestSlotLifecycle: per slot state, which frames the coordinator's
// fan-outs reach, whether the slot may take a shard, and whether a join
// may reuse it — each asked of the code path that decides it.
func TestSlotLifecycle(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300")
	pat := row.Specs[0].Pattern
	rows := []struct {
		state                                         slotState
		cut, route, patternAdd, finish, target, ghost bool
	}{
		{slotLive, true, true, true, true, true, false},
		// The PR 13 bug was a ShardRoute written at a node already handed
		// Finish: this row.
		{slotFinishing, false, false, false, false, false, false},
		{slotDrained, false, false, false, false, false, true},
		{slotDead, false, false, false, false, false, false},
		{slotAbandoned, false, false, false, false, false, false},
	}
	for _, r := range rows {
		// Two slots: the one under test owns shard 0, a live peer owns
		// shard 1 (so a fan-out always has somewhere to go). Both sessions
		// have ended cleanly, so only the state decides ghost reuse.
		logs := []*frameLog{{got: map[wire.Kind]int{}}, {got: map[wire.Kind]int{}}}
		in := &Ingress{
			owner: []int{0, 1}, runs: make([]wire.RunEncoder, 2), total: 2,
			patternSet: patternSet{specs: multi.Solo(pat, engine.Config{}), schema: row.Schema},
		}
		for n, st := range []slotState{r.state, slotLive} {
			s := &slot{conn: logs[n], state: st, hosted: map[int]bool{n: true}, done: make(chan struct{}), gotMetrics: true}
			close(s.done)
			in.slots = append(in.slots, s)
		}
		in.runs[0].Append(&row.Events[0])
		target, ghost := in.slots[0].takes(1), in.ghost() == 0
		in.cutAll()
		in.waitSends()
		in.routeBroadcast()
		if err := in.AddPattern(multi.Spec{ID: 7, Pattern: pat}); err != nil {
			t.Fatal(err)
		}
		in.finishNodes()
		got := logs[0].got
		for _, c := range []struct {
			what      string
			got, want bool
		}{
			{"cut", got[wire.KindBatch] > 0, r.cut},
			{"ShardRoute", got[wire.KindShardRoute] > 0, r.route},
			{"PatternAdd", got[wire.KindPatternAdd] > 0, r.patternAdd},
			{"Finish", got[wire.KindFinish] > 0, r.finish},
			{"migration target", target, r.target},
			{"ghost reuse", ghost, r.ghost},
		} {
			if c.got != c.want {
				t.Errorf("state %d: %s = %v, want %v", r.state, c.what, c.got, c.want)
			}
		}
		if logs[1].got[wire.KindBatch] == 0 || logs[1].got[wire.KindFinish] != 1 {
			t.Errorf("state %d: the live peer got %v, want its cut and exactly one Finish", r.state, logs[1].got)
		}
	}
}

// TestNodeRejectsGarbageBytes: raw junk on the TCP listener must produce
// a decode error, not a hang or a crash.
func TestNodeRejectsGarbageBytes(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300")
	pat := row.Specs[0].Pattern
	node, err := NewNode(NodeConfig{
		Pattern: pat, Engine: engine.Config{}, Shards: 1, KeyAttr: "key", Schema: row.Schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			serveErr <- err
			return
		}
		serveErr <- node.Serve(c)
	}()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef}) //nolint:errcheck
	raw.Close()
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("node served a garbage byte stream without error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("node hung on garbage bytes")
	}
}

// truncator damages one Matches frame on its way out of a node: the
// nth that carries at least two records loses the tail of its last body,
// the record's length field adjusted so the frame still parses up to the
// body itself — what a worker with a bug in its encoder would send. It
// keeps the sound records of that frame for the test to look for.
type truncator struct {
	nth     int
	spared  []wire.MatchRecord
	damaged bool
}

func (tr *truncator) send(f wire.Frame) wire.Frame {
	m, ok := f.(wire.Matches)
	if !ok || m.Count < 2 || tr.damaged {
		return f
	}
	if tr.nth--; tr.nth > 0 {
		return f
	}
	tr.damaged = true
	var recs []wire.MatchRecord
	if err := m.Each(func(r wire.MatchRecord) { recs = append(recs, r) }); err != nil {
		panic(err)
	}
	last := &recs[len(recs)-1]
	last.Body = last.Body[:len(last.Body)-9] // mid-event: an attribute value and a byte gone
	out := wire.Matches{UpTo: m.UpTo, Count: m.Count}
	for _, r := range recs {
		out.Recs = wire.AppendMatchRecord(out.Recs, r.Shard, r.Seq, r.Pattern, r.Body)
	}
	for _, r := range recs[:len(recs)-1] {
		r.Body = append([]byte(nil), r.Body...)
		tr.spared = append(tr.spared, r)
	}
	return out
}

// The node side of a link whose Send goes through a truncator. It embeds
// the stream connection, so the node still finds the transport's probes;
// the unboxed Matches send it would find that way goes through Send.
type truncStream struct {
	*streamConn
	tr *truncator
}

func (c truncStream) Send(f wire.Frame) error { return c.streamConn.Send(c.tr.send(f)) }

func (c truncStream) SendMatches(m wire.Matches) error { return c.Send(m) }

// TestCorruptMatchesFrame: a worker answers a cut with a Matches frame
// one of whose bodies is cut short. The coordinator refuses the frame
// where it arrives — the codec decoding it, behind a Pipe or a dialed
// socket — so nothing of it reaches the consumer, not even the
// sound records ahead of the damaged one: without recovery the run ends
// in an error that names the frame, with it the node is failed over and
// the delivered stream is the single-process one, byte for byte. The
// check a body passes on arrival is the decoder's own (wire's
// FuzzCheckMatchBody), so no match is left to fail at emission.
func TestCorruptMatchesFrame(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300")
	pat := row.Specs[0].Pattern
	want := rungtest.Reference(t, row.WithShards(2))
	node := func(bare bool) *Node {
		cfg := NodeConfig{Engine: engine.Config{CheckEvery: 250}, Shards: 1, Batch: 128, KeyAttr: "key"}
		if !bare {
			cfg.Pattern, cfg.Schema = pat, row.Schema
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, tc := range []struct {
		name         string
		tcp, recover bool
	}{{"pipe", false, false}, {"tcp", true, false}, {"pipe-recovered", false, true}, {"tcp-recovered", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &truncator{nth: 3}
			conns := make([]Conn, 2)
			for i := range conns {
				victim, n := i == 1, node(false)
				if !tc.tcp {
					client, server := Pipe()
					if victim {
						server = truncStream{server.(*streamConn), tr}
					}
					go n.Serve(server) //nolint:errcheck // the failed session's error is expected
					conns[i] = client
					continue
				}
				l, err := ListenTCP("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					defer l.Close()
					c, err := l.Accept()
					if err != nil {
						return
					}
					if victim {
						c = truncStream{c.(*streamConn), tr}
					}
					n.Serve(c) //nolint:errcheck // the failed session's error is expected
				}()
				if conns[i], err = DialTCP(l.Addr()); err != nil {
					t.Fatal(err)
				}
			}
			var got rungtest.Recorder
			opts := IngressOptions{Batch: 64, KeyAttr: "key", Schema: row.Schema, OnTagged: got.Tagged}
			if tc.recover {
				standby := node(true)
				opts.Recovery = &RecoveryConfig{Standby: func() (Conn, error) {
					client, server := Pipe()
					go standby.Serve(server) //nolint:errcheck // ends with the run
					return client, nil
				}}
			}
			ing, err := NewIngress(pat, conns, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range row.Events {
				ing.Process(&row.Events[i])
			}
			err = rungtest.Finish(t, ing.Finish)
			if !tr.damaged || len(tr.spared) == 0 {
				t.Fatal("no frame was damaged: the test is vacuous")
			}
			if tc.recover {
				if err != nil {
					t.Fatalf("recovered run finished with %v", err)
				}
				if fo := ing.Failovers(); len(fo) != 1 || fo[0].Node != 1 || !strings.Contains(fo[0].Cause, "matches frame") {
					t.Fatalf("failovers %+v, want one of node 1 caused by the frame", fo)
				}
				rungtest.Require(t, tc.name, got.Stream(), want)
				return
			}
			if err == nil || !strings.Contains(err.Error(), "matches frame") {
				t.Fatalf("Finish returned %v, want the refused frame", err)
			}
			delivered := got.Stream()
			for _, r := range tr.spared {
				for _, d := range delivered {
					if d.Seq == r.Seq && bytes.Equal(d.Body, r.Body) {
						t.Fatalf("the match at %d, a sound record of the refused frame, was delivered", r.Seq)
					}
				}
			}
			if len(delivered) == 0 || len(delivered) >= len(want) {
				t.Fatalf("delivered %d matches of the reference's %d, want some and not all", len(delivered), len(want))
			}
		})
	}
}

// resultProbe is the node end of a link whose Send goes through a
// truncator: it tells the feeder how far the node's results have got and
// whether the damaged frame is out.
type resultProbe struct {
	truncStream
	upTo    atomic.Uint64
	damaged atomic.Bool
}

func (p *resultProbe) Send(f wire.Frame) error {
	err := p.truncStream.Send(f)
	if m, ok := f.(wire.Matches); ok && err == nil && m.UpTo > p.upTo.Load() {
		p.upTo.Store(m.UpTo)
	}
	p.damaged.Store(p.tr.damaged)
	return err
}

func (p *resultProbe) SendMatches(m wire.Matches) error { return p.Send(m) }

// cutLog is the ingress end of a link: it counts the cut frames the
// coordinator writes at it after the link was closed.
type cutLog struct {
	Conn
	mu     sync.Mutex
	closed bool
	late   int
}

func (c *cutLog) Send(f wire.Frame) error {
	c.mu.Lock()
	if _, cut := f.(wire.BatchRaw); cut && c.closed {
		c.late++
	}
	c.mu.Unlock()
	return c.Conn.Send(f)
}

func (c *cutLog) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

func (c *cutLog) state() (closed bool, late int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed, c.late
}

// TestRefusedFrameAbandonsSlot: without recovery a node is lost the way
// it is with it. A node whose Matches frame is refused (the pipe setup of
// TestCorruptMatchesFrame) has its link closed; the barrier that acts on
// the failure abandons its slot, which gets no cut after it; its shards
// are abandoned at the collector, so the survivor's matches go on being
// released before Finish; and Finish names the refused frame while
// Failovers stays empty.
func TestRefusedFrameAbandonsSlot(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300")
	pat := row.Specs[0].Pattern
	const batch = 64
	var probe *resultProbe
	var log *cutLog
	conns := make([]Conn, 2)
	for i := range conns {
		n, err := NewNode(NodeConfig{
			Pattern: pat, Schema: row.Schema, Engine: engine.Config{CheckEvery: 250},
			Shards: 1, Batch: 128, KeyAttr: "key",
		})
		if err != nil {
			t.Fatal(err)
		}
		client, server := Pipe()
		if i == 1 {
			probe = &resultProbe{truncStream: truncStream{server.(*streamConn), &truncator{nth: 1}}}
			log = &cutLog{Conn: client}
			client, server = log, probe
		}
		go n.Serve(server) //nolint:errcheck // the failed session's error is expected
		conns[i] = client
	}
	var released atomic.Uint64
	ing, err := NewIngress(pat, conns, IngressOptions{
		Batch: batch, KeyAttr: "key", Schema: row.Schema, OnMatch: func(*match.Match) {},
		OnProgress: func(upTo uint64) { released.Store(upTo) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	failedAt, lateAtFailure := -1, 0
	for i := range row.Events {
		ing.Process(&row.Events[i])
		if (i+1)%batch != 0 || failedAt >= 0 {
			continue
		}
		// Lock-step with node 1 until its damaged frame is out, so the
		// failure lands mid-stream.
		upTo := row.Events[i].Seq
		waitFor("node 1's results", func() bool { return probe.upTo.Load() >= upTo || probe.damaged.Load() })
		if probe.damaged.Load() {
			waitFor("node 1's link to close", func() bool { closed, _ := log.state(); return closed })
			// The cut in flight at the failure was sealed before any
			// barrier could act on it.
			ing.sendWG.Wait()
			_, lateAtFailure = log.state()
			failedAt = i
		}
	}
	if failedAt < 0 || failedAt > len(row.Events)/2 {
		t.Fatalf("the damaged frame left node 1 after event %d of %d: the test is vacuous", failedAt, len(row.Events))
	}
	t.Logf("node 1 failed at event %d", failedAt)
	lastCut := row.Events[len(row.Events)/batch*batch-1].Seq
	waitFor("the survivor's matches to be released", func() bool { return released.Load() >= lastCut })
	err = rungtest.Finish(t, ing.Finish)
	if err == nil || !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "matches frame") {
		t.Fatalf("Finish returned %v, want node 1's refused frame", err)
	}
	if _, late := log.state(); late != lateAtFailure {
		t.Fatalf("node 1 got %d cut frames after the barrier that acted on its failure", late-lateAtFailure)
	}
	if fo := ing.Failovers(); len(fo) != 0 {
		t.Fatalf("failovers %+v without recovery", fo)
	}
}

package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"acep/internal/chaos"
	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/wire"
)

// Failure-injecting transports live in internal/chaos now
// (chaos.Flaky, chaos.Script) — shared between these tests, the HA
// tests, acep-bench chaos-* and acep-run -chaos.

// finishWithin guards the deadlock-freedom claims: Finish must return
// even with dead links in the cluster.
func finishWithin(t *testing.T, d time.Duration, ing *Ingress) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- ing.Finish() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatal("Finish deadlocked on a dead node link")
		return nil
	}
}

// brokenCluster builds a 3-node pipe cluster whose middle link dies
// after the given number of successful ingress sends.
func brokenCluster(t *testing.T, budget int) (*Ingress, *gen.Workload) {
	t.Helper()
	w := keyedWorkload(t, "traffic")
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]Conn, 3)
	for i := range conns {
		node, err := NewNode(NodeConfig{
			Pattern: pat, Engine: engine.Config{CheckEvery: 250},
			Shards: 2, Batch: 128, KeyAttr: "key", Schema: w.Schema,
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
		Batch: 64, KeyAttr: "key", Schema: w.Schema,
		OnMatch: func(*match.Match) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ing, w
}

// TestIngressSurvivesDeadNodeLink: when one node's link dies mid-stream,
// the ingress records the error, keeps draining the surviving nodes, and
// Finish returns the failure instead of hanging. (Exactness is
// necessarily lost with a dead node — that is why the error must
// surface.)
func TestIngressSurvivesDeadNodeLink(t *testing.T) {
	// Budget 2 covers the assign frame and one cut; the link dies while
	// the stream is still flowing.
	ing, w := brokenCluster(t, 2)
	for i := range w.Events {
		ing.Process(&w.Events[i])
	}
	err := finishWithin(t, 30*time.Second, ing)
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
	w := keyedWorkload(t, "traffic")
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]Conn, 2)
	for i := range conns {
		node, err := NewNode(NodeConfig{
			Pattern: pat, Engine: engine.Config{CheckEvery: 250},
			Shards: 1, Batch: 128, KeyAttr: "key", Schema: w.Schema,
		})
		if err != nil {
			t.Fatal(err)
		}
		client, server := Pipe()
		if i == 1 {
			// Crash the node right after the handshake: greet, take the
			// assignment, then slam the connection shut.
			sig := signature(multi.Solo(pat, engine.Config{}), w.Schema)
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
		Batch: 64, KeyAttr: "key", Schema: w.Schema,
		OnMatch: func(*match.Match) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		ing.Process(&w.Events[i])
	}
	if err := finishWithin(t, 30*time.Second, ing); err == nil {
		t.Fatal("Finish reported success despite a crashed node")
	}
}

// TestHandshakeRejections: version skew, pattern mismatch and protocol
// violations are refused before any event crosses the wire.
func TestHandshakeRejections(t *testing.T) {
	w := keyedWorkload(t, "traffic")
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	sig := signature(multi.Solo(pat, engine.Config{}), w.Schema)
	opts := IngressOptions{KeyAttr: "key", Schema: w.Schema, OnMatch: func(*match.Match) {}}
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
	running := func() *Ingress { return &Ingress{sig: sig, rec: &RecoveryConfig{}} }
	entries := []struct {
		name string
		open func(c Conn) error
	}{
		{"founding", func(c Conn) error { _, err := NewIngress(pat, []Conn{c}, opts); return err }},
		{"join", func(c Conn) error { _, err := running().AddNode(c); return err }},
		{"adoption", func(c Conn) error { return running().adopt(0, c, 0) }},
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
		Pattern: pat, Engine: engine.Config{}, Shards: 1, KeyAttr: "key", Schema: w.Schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Serve(&chaos.Script{Frames: []wire.Frame{wire.Watermark{UpTo: 1}}}); err == nil {
		t.Error("node accepted a non-assign handshake reply")
	}
	// An assignment outside the global shard space, or without a pattern
	// set, is refused.
	set := []wire.PatternEntry{{Pattern: pat}}
	if err := node.Serve(&chaos.Script{Frames: []wire.Frame{wire.Assign{Base: 5, Total: 3, Schema: w.Schema, Patterns: set}}}); err == nil {
		t.Error("node accepted an out-of-range assignment")
	}
	if err := node.Serve(&chaos.Script{Frames: []wire.Frame{wire.Assign{Total: 3, Schema: w.Schema}}}); err == nil {
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
	w := keyedWorkload(t, "traffic")
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
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
			owner: []int{0, 1}, runs: make([]wire.RunEncoder, 2), recycle: make([]bool, 2), total: 2,
			specs: multi.Solo(pat, engine.Config{}), schema: w.Schema,
		}
		for n, st := range []slotState{r.state, slotLive} {
			s := &slot{conn: logs[n], state: st, hosted: map[int]bool{n: true}, done: make(chan struct{}), gotMetrics: true}
			close(s.done)
			in.slots = append(in.slots, s)
		}
		in.runs[0].Append(&w.Events[0])
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
	w := keyedWorkload(t, "traffic")
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{
		Pattern: pat, Engine: engine.Config{}, Shards: 1, KeyAttr: "key", Schema: w.Schema,
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

package cluster

import (
	"io"
	"strings"
	"sync"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/rungtest"
	"acep/internal/shard"
	"acep/internal/wire"
)

// feedReusing streams the workload the way a parser with one scratch
// record does: every event is handed over in the same event.Event
// struct, its attributes in the same slice, both overwritten for the
// next one as soon as Process returns.
func feedReusing(row rungtest.Row, at map[int]func(), process func(*event.Event)) {
	var ev event.Event
	attrs := make([]float64, 0, 16)
	for i := range row.Events {
		if fn, ok := at[i]; ok {
			fn()
		}
		src := &row.Events[i]
		attrs = append(attrs[:0], src.Attrs...)
		ev = event.Event{Type: src.Type, TS: src.TS, Seq: src.Seq, Attrs: attrs}
		process(&ev)
	}
}

// TestIngressDoesNotRetainCallerEvent: Process keeps nothing of the
// event it is handed — not the struct, not the attribute array — exactly
// like shard.Engine.Process, which interns. A caller that reuses one
// struct and one slice for the whole stream therefore gets the reference
// stream from the cluster too: in process without recovery (the ingress
// reuses a run's storage once its send is barriered), and over TCP with
// the journal on and a shard migrated mid-stream (the replay re-sends
// runs sealed a thousand events earlier).
func TestIngressDoesNotRetainCallerEvent(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	pat := row.Specs[0].Pattern
	want := rungtest.Reference(t, row)

	t.Run("plain", func(t *testing.T) {
		var rec rungtest.Recorder
		ing := spawnCluster(t, pat, 3, NodeConfig{
			Pattern: pat, Schema: row.Schema, Engine: engine.Config{CheckEvery: 250},
			Shards: 2, Batch: 64, KeyAttr: "key",
		}, IngressOptions{Batch: 64, KeyAttr: "key", Schema: row.Schema, OnTagged: rec.Tagged})
		feedReusing(row, nil, ing.Process)
		if err := ing.Finish(); err != nil {
			t.Fatal(err)
		}
		rungtest.Require(t, "reused event, pipes", rec.Stream(), want)
	})

	t.Run("recovery and migration", func(t *testing.T) {
		rig := startRig(t, row, 0, nil, nil)
		var rec rungtest.Recorder
		ing, err := NewIngress(pat, rig.conns, IngressOptions{
			Batch: 64, KeyAttr: "key", Schema: row.Schema, OnTagged: rec.Tagged,
			Recovery: &rig.recOptions,
		})
		if err != nil {
			t.Fatal(err)
		}
		feedReusing(row, map[int]func(){
			2000: func() {
				// Shard 2 is node 1's first shard; node 0 never hosted it.
				if err := ing.MigrateShard(2, 0); err != nil {
					t.Fatalf("live migration failed: %v", err)
				}
			},
		}, ing.Process)
		if err := ing.Finish(); err != nil {
			t.Fatal(err)
		}
		if mgs := ing.Migrations(); len(mgs) != 1 || mgs[0].ReplayEvents == 0 {
			t.Fatalf("migrations %+v, want one that replayed journaled events", mgs)
		}
		rungtest.Require(t, "reused event, recovery + migration", rec.Stream(), want)
	})
}

// TestIngressElidesUnreadTypes holds the ingress's router to the rule
// shard.Engine.Process follows, on what the journal receives: an event of
// a type no hosted pattern reads is encoded onto no run, yet counts toward
// Batch, so every cut seals at the watermark it would carry were the event
// routed; and a pattern change reroutes from its cut on. The stream has
// six types; SEQ(T0, T1, T2) is hosted first, SEQ(T3, T4, T5) joins at a
// third of it, and the first leaves at two thirds — cut boundaries both, so
// neither change seals a partial cut.
func TestIngressElidesUnreadTypes(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	first := row.Specs[0].Pattern
	pb := pattern.NewBuilder(row.Schema, pattern.Seq, 300)
	for typ := 3; typ < 6; typ++ {
		pb.Event(typ)
	}
	pb.WhereEq(0, "key", 1, "key").WhereEq(1, "key", 2, "key")
	second := pb.MustBuild()
	// Whole cuts only: Kill seals nothing.
	const batch = 64
	n := len(row.Events) / batch * batch
	addAt, dropAt := n/3, 2*n/3
	var runEvents, want int
	var offBatch []uint64
	ing, err := NewIngress(first, []Conn{newDiscardConn(2), newDiscardConn(2)}, IngressOptions{
		Batch: batch, KeyAttr: "key", Schema: row.Schema,
		OnTagged: func(shard.Tagged) {},
		Recovery: &RecoveryConfig{OnCut: func(c CutInfo) {
			for _, r := range c.Runs {
				runEvents += r.Events
			}
			if c.UpTo%batch != 0 {
				offBatch = append(offBatch, c.UpTo)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		switch i {
		case addAt:
			err = ing.AddPattern(multi.Spec{ID: 1, Pattern: second})
		case dropAt:
			err = ing.RemovePattern(multi.SoloID)
		}
		if err != nil {
			t.Fatal(err)
		}
		if typ := row.Events[i].Type; i < addAt && typ < 3 || i >= addAt && i < dropAt || i >= dropAt && typ >= 3 {
			want++
		}
		ing.Process(&row.Events[i])
	}
	ing.Kill()
	if len(offBatch) > 0 {
		t.Errorf("%d cuts sealed off a multiple of Batch %d, the first at %d", len(offBatch), batch, offBatch[0])
	}
	if want == n || runEvents != want {
		t.Fatalf("the runs carried %d events; want the %d of %d a hosted pattern reads", runEvents, want, n)
	}
}

// TestFleetOpsRefuse: every fleet operation passes one guard — refused
// without Recovery, whose journal its moves replay from, and after the
// session ended — and a refused AddNode closes the connection it was
// handed.
func TestFleetOpsRefuse(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	for _, tc := range []struct {
		name  string
		rec   *RecoveryConfig
		ended bool
		want  string
	}{
		{"without Recovery", nil, false, "requires Recovery"},
		{"after Finish", &RecoveryConfig{}, true, "after Finish"},
	} {
		ing, err := NewIngress(row.Specs[0].Pattern, []Conn{newDiscardConn(2), newDiscardConn(2)}, IngressOptions{
			KeyAttr: "key", Schema: row.Schema, OnTagged: func(shard.Tagged) {}, Recovery: tc.rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if tc.ended {
			ing.Kill()
		}
		joiner := newDiscardConn(1)
		_, addErr := ing.AddNode(joiner)
		for op, err := range map[string]error{"AddNode": addErr, "Drain": ing.Drain(0), "MigrateShard": ing.MigrateShard(0, 1)} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s = %v, want a refusal naming %q", tc.name, op, err, tc.want)
			}
		}
		select {
		case <-joiner.done:
		default:
			t.Errorf("%s: the refused AddNode left its connection open", tc.name)
		}
		ing.Kill()
	}
}

// discardConn is a node that greets and then neither answers nor reads:
// every frame sent at it is dropped by reference.
type discardConn struct {
	hello chan wire.Frame
	done  chan struct{}
	once  sync.Once
}

func newDiscardConn(shards uint32) *discardConn {
	c := &discardConn{hello: make(chan wire.Frame, 1), done: make(chan struct{})}
	c.hello <- wire.Hello{Version: wire.Version, Shards: shards}
	return c
}

func (c *discardConn) Send(wire.Frame) error { return nil }

func (c *discardConn) Recv() (wire.Frame, error) {
	select {
	case f := <-c.hello:
		return f, nil
	case <-c.done:
		return nil, io.EOF
	}
}

func (c *discardConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// TestIngressCutAllocs is the allocation-regression guard of the
// coordinator's ingest path with the journal on: a cut costs a fixed
// number of allocations however many events it carries — nothing is
// allocated per event. Per cut that is, per shard with traffic, the next
// run's storage (the journal keeps the sealed one) and the boxing of its
// Batch frame; per node, the send goroutine's closure and the watermark
// frame's boxing; and the journal's record. (The journal never trims
// here — nothing is ever released — so its cut list also grows, by
// doubling: rounding error at these run counts.)
func TestIngressCutAllocs(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	pat := row.Specs[0].Pattern
	const nodes, perNode = 2, 2
	const bound = 2*nodes*perNode + 2*nodes + 1 // holds under the race detector too
	for _, batch := range []int{64, 1024} {
		conns := make([]Conn, nodes)
		for i := range conns {
			conns[i] = newDiscardConn(perNode)
		}
		ing, err := NewIngress(pat, conns, IngressOptions{
			Batch: batch, KeyAttr: "key", Schema: row.Schema,
			OnTagged: func(shard.Tagged) {},
			Recovery: &RecoveryConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		var ev event.Event // one struct for the whole feed: the test must not allocate per event either
		next := 0
		cut := func() {
			for k := 0; k < batch; k++ {
				ev = row.Events[next%len(row.Events)]
				ev.Seq = uint64(next + 1)
				ing.Process(&ev)
				next++
			}
		}
		for i := 0; i < 8; i++ {
			cut() // size every shard's run storage and the per-slot scratch
		}
		if avg := testing.AllocsPerRun(50, cut); avg > bound {
			t.Errorf("batch %d: %.0f allocations per cut, want at most %d (%d shards on %d nodes)",
				batch, avg, bound, nodes*perNode, nodes)
		}
		ing.Kill()
	}
}

// TestNodeDecodeAllocs is the worker-side counterpart of
// TestIngressCutAllocs: a node that is handed pre-encoded cuts decodes
// each run into a pooled block, runs it through its shard engine and gets
// the block back from the worker, and answers with its heartbeat and
// Matches frame unboxed (wire.Writer.WriteBeat, WriteMatches), so a cut
// costs fewer than one allocation on average — what is left is the load
// report every fourth cut — whether it carries 64 events or 1024:
// nothing per event, and no block. The stream is shard's TestIngestAllocs's: of a
// type the pattern reads — an ingress routes it — with keys its predicate
// never passes, so no evaluator takes an event.
func TestNodeDecodeAllocs(t *testing.T) {
	s := event.NewSchema()
	pb := pattern.NewBuilder(s, pattern.Seq, 100)
	for _, name := range []string{"A", "B", "C"} {
		pb.Event(s.MustAddType(name, "key"))
	}
	pb.WhereConst(0, "key", pattern.GE, 0)
	pb.WhereEq(0, "key", 1, "key").WhereEq(1, "key", 2, "key")
	pat := pb.MustBuild()
	const bound = 0 // AllocsPerRun's whole-number average; holds under the race detector too
	for _, batch := range []int{64, 1024} {
		node, err := NewNode(NodeConfig{
			Pattern: pat, Schema: s, KeyAttr: "key", Shards: 1,
			Engine: engine.Config{CheckEvery: 1 << 30},
		})
		if err != nil {
			t.Fatal(err)
		}
		h := startSolo(t, node, s, pat)
		// Every cut's frame is encoded up front: the harness must not
		// allocate inside the measured region.
		frames := encodeCuts(32+51, batch, func(ev *event.Event, i int) {
			ev.Type, ev.TS, ev.Seq = 0, event.Time(i), uint64(i+1)
			ev.Attrs = append(ev.Attrs[:0], -float64(i%64+1))
		})
		next := 0
		cut := func() {
			h.send(frames[next])
			next++
			h.await(uint64(next * batch)) // until the node reports the cut complete
		}
		for next < 32 {
			cut() // warm the pool, the worker's reservoirs and the decode scratch
		}
		if avg := testing.AllocsPerRun(50, cut); avg > bound {
			t.Errorf("batch %d: %.1f allocations per cut on the node, want at most %d", batch, avg, bound)
		}
		h.finish()
	}
}

// nodeSession serves a bare node over a Pipe, assigns it a global space
// of total shards hosting the result fixture's pattern, and returns the
// ingress's end of the link and the session's outcome.
func nodeSession(t *testing.T, f resultFixture, total int) (Conn, <-chan error) {
	t.Helper()
	node, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client, server := Pipe()
	t.Cleanup(func() { client.Close() })
	served := make(chan error, 1)
	go func() { served <- node.Serve(server) }()
	if h, err := client.Recv(); err != nil || wire.KindOf(h) != wire.KindHello {
		t.Fatalf("node opened with %v (%v), want a hello", h, err)
	}
	if err := client.Send(wire.Assign{
		Total: uint32(total), Schema: f.schema, KeyAttr: "key",
		Patterns: []wire.PatternEntry{{Pattern: f.pat}},
	}); err != nil {
		t.Fatal(err)
	}
	return client, served
}

// TestNodeRunsTheFramesShard: the ingress is the only router. A run
// whose keys hash to shard h, sent in a frame naming shard g, runs on
// worker g: every match it completes is tagged with g.
func TestNodeRunsTheFramesShard(t *testing.T) {
	const total = 4
	f := newResultFixture()
	key, err := shard.ByAttrName(f.schema, "key")
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]event.Event, 3)
	for i := range evs {
		f.set(&evs[i], i) // A, B, C of key 0: one match
	}
	h := shard.GlobalIndex(key(&evs[0]), total)
	g := uint32(1) // neither the keys' shard nor the zero value
	if h == 1 {
		g = 2
	}
	var enc wire.RunEncoder
	for i := range evs {
		enc.Append(&evs[i])
	}
	c, served := nodeSession(t, f, total)
	for _, fr := range []wire.Frame{
		wire.BatchRaw{Shard: g, Run: enc.Seal(g).Body},
		wire.BatchRaw{UpTo: evs[2].Seq},
		wire.Finish{},
	} {
		if err := c.Send(fr); err != nil {
			t.Fatal(err)
		}
	}
	var srcs []uint32
	for {
		fr, err := c.Recv()
		if err != nil {
			t.Fatalf("reading the node's frames: %v", err)
		}
		if m, ok := fr.(*wire.Matches); ok {
			if err := m.Each(func(r wire.MatchRecord) { srcs = append(srcs, r.Shard) }); err != nil {
				t.Fatal(err)
			}
		}
		if wire.KindOf(fr) == wire.KindMetrics {
			break
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("node session: %v", err)
	}
	if len(srcs) != 1 || srcs[0] != g {
		t.Fatalf("matches tagged with shards %v, want one of shard %d (its keys hash to %d)", srcs, g, h)
	}
}

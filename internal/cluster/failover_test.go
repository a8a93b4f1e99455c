package cluster

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acep/internal/chaos"
	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/pattern"
	recovery "acep/internal/recover"
	"acep/internal/rungtest"
	"acep/internal/wire"
)

// recvKiller crashes the node side: after budget received frames the
// connection slams shut — the remote-process-died failure mode. It embeds
// the stream connection, so the node still arms its decode arena.
type recvKiller struct {
	*streamConn
	budget int
}

func (k *recvKiller) Recv() (wire.Frame, error) {
	if k.budget <= 0 {
		k.streamConn.Close()
		return nil, fmt.Errorf("recvkiller: injected node crash")
	}
	k.budget--
	return k.streamConn.Recv()
}

// blackholeConn goes silent without an error after budget sends: frames
// are swallowed, nothing ever errors — the netsplit failure mode only
// the heartbeat detector can catch.
type blackholeConn struct {
	Conn
	budget int
}

func (b *blackholeConn) Send(f wire.Frame) error {
	if b.budget <= 0 {
		return nil
	}
	b.budget--
	return b.Conn.Send(f)
}

// failoverRig wires a 3-node loopback-TCP cluster (2 shards each) with
// bare TCP standby nodes behind a dialing Standby factory.
type failoverRig struct {
	conns      []Conn
	standbyLs  []*Listener
	dialed     int
	mu         sync.Mutex
	serveErrs  []error
	wrapStand  func(k int, c Conn) Conn
	recOptions RecoveryConfig
}

func (r *failoverRig) noteErr(err error) {
	r.mu.Lock()
	r.serveErrs = append(r.serveErrs, err)
	r.mu.Unlock()
}

// startRig launches the worker and standby processes: the row's nodes —
// configured with its one pattern, or bare for a set, which ships from
// the ingress — and bare standbys. wrapConn (optional) injects failures
// into the ingress-side worker connections; wrapStand into the dialed
// standby connections, by dial order.
func startRig(t *testing.T, row rungtest.Row, standbys int,
	wrapConn func(i int, c Conn) Conn, wrapStand func(k int, c Conn) Conn) *failoverRig {
	t.Helper()
	rig := &failoverRig{wrapStand: wrapStand}
	serve := func(node *Node, l *Listener) {
		go node.ServeListener(l, rig.noteErr) //nolint:errcheck // closed at test end
	}
	for i := range row.Nodes() {
		nc := NodeConfig{Engine: row.Config, Shards: row.Shards / row.Nodes(), Batch: row.Batch, KeyAttr: "key"}
		if row.Solo() {
			nc.Pattern, nc.Schema = row.Specs[0].Pattern, row.Schema
		}
		node, err := NewNode(nc)
		if err != nil {
			t.Fatal(err)
		}
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		serve(node, l)
		c, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if wrapConn != nil {
			c = wrapConn(i, c)
		}
		rig.conns = append(rig.conns, c)
	}
	// Standbys are bare nodes: no pattern, no schema — they adopt both
	// from the Assign handshake (pattern shipping over real TCP).
	for range standbys {
		node, err := NewNode(NodeConfig{Engine: row.Config, Batch: row.Batch, KeyAttr: "key"})
		if err != nil {
			t.Fatal(err)
		}
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		serve(node, l)
		rig.standbyLs = append(rig.standbyLs, l)
	}
	rig.recOptions = RecoveryConfig{
		Standby: func() (Conn, error) {
			if rig.dialed >= len(rig.standbyLs) {
				return nil, fmt.Errorf("rig: standbys exhausted")
			}
			c, err := DialTCP(rig.standbyLs[rig.dialed].Addr())
			if err != nil {
				return nil, err
			}
			if rig.wrapStand != nil {
				c = rig.wrapStand(rig.dialed, c)
			}
			rig.dialed++
			return c, nil
		},
	}
	return rig
}

// runRig streams the row through the rig's cluster — one pattern
// through NewIngress's pattern argument, a set as Options.Patterns — with
// recovery armed from the rig's standbys and the placement controller ec,
// invoking the `at` hooks just before the given event indexes (on the
// ingress goroutine, the calling contract of MigrateShard, AddNode and
// Drain), and requires a clean finish: every failure recovered.
func runRig(t *testing.T, rig *failoverRig, row rungtest.Row, ec *ElasticConfig, at map[int]func(*Ingress)) (rungtest.Stream, *Ingress) {
	t.Helper()
	var rec rungtest.Recorder
	rc := rig.recOptions
	rc.Elastic = ec
	opts := IngressOptions{
		Batch: row.Batch, KeyAttr: "key", Schema: row.Schema, OnTagged: rec.Tagged,
		Patterns: row.Specs, Tenants: row.Tenants, Recovery: &rc,
	}
	var pat *pattern.Pattern
	if row.Solo() {
		pat, opts.Patterns = row.Specs[0].Pattern, nil
	}
	ing, err := NewIngress(pat, rig.conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		if fn, ok := at[i]; ok {
			fn(ing)
		}
		ing.Process(&row.Events[i])
	}
	if err := rungtest.Finish(t, ing.Finish); err != nil {
		t.Fatalf("cluster finished with error: %v", err)
	}
	return rec.Stream(), ing
}

// TestFailoverByteIdentical is the PR's acceptance criterion: killing
// one node mid-stream (ingress-side link death mid-window, while its
// shards hold live partial matches) on a 3-node loopback-TCP cluster
// must deliver a match stream byte-identical to the single-process
// sharded engine at equal total shards — across sequence, negation,
// Kleene and composite patterns on both workload regimes.
func TestFailoverByteIdentical(t *testing.T) {
	for _, dataset := range []string{"traffic", "stocks"} {
		for _, kind := range []gen.Kind{gen.Sequence, gen.Negation, gen.Kleene, gen.Composite} {
			row := rungtest.Lookup(t, fmt.Sprintf("%s/%v", dataset, kind))
			want := rungtest.Reference(t, row)
			// Budget 30 ≈ the assign frame plus 29 cuts of 64 events:
			// the link dies ~37% into the stream.
			rig := startRig(t, row, 1, func(i int, c Conn) Conn {
				if i == 1 {
					return &chaos.Flaky{C: c, Budget: 30}
				}
				return c
			}, nil)
			got, ing := runRig(t, rig, row, nil, nil)
			rungtest.Require(t, fmt.Sprintf("%s/%v", dataset, kind), got, want)
			fos := ing.Failovers()
			if len(fos) != 1 || fos[0].Node != 1 {
				t.Fatalf("%s/%v: failovers = %+v, want exactly one for node 1", dataset, kind, fos)
			}
			if fos[0].ReplayEvents == 0 || fos[0].ReplayCuts == 0 {
				t.Fatalf("%s/%v: failover replayed nothing: %+v", dataset, kind, fos[0])
			}
			if fos[0].RecoveredAt.IsZero() {
				t.Fatalf("%s/%v: successor never reported RecoveryDone", dataset, kind)
			}
		}
	}
}

// TestFailoverNodeSideCrash: the node process dies (its side of the
// connection slams shut mid-stream); the reader-side error triggers the
// failover and the stream stays exact.
func TestFailoverNodeSideCrash(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	pat := row.Specs[0].Pattern
	rig := startRig(t, row, 1, nil, nil)
	// Replace node 2's connection with a loopback node whose receive
	// path dies after 25 frames: a node-side crash, not a link failure.
	rig.conns[2].Close()
	node, err := NewNode(NodeConfig{
		Pattern: pat, Engine: engine.Config{CheckEvery: 250},
		Shards: 2, Batch: 64, KeyAttr: "key", Schema: row.Schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	client, server := Pipe()
	go node.Serve(&recvKiller{streamConn: server.(*streamConn), budget: 25}) //nolint:errcheck // the crash is the point
	rig.conns[2] = client

	got, ing := runRig(t, rig, row, nil, nil)
	rungtest.Require(t, "node-side crash", got, want)
	if fos := ing.Failovers(); len(fos) != 1 || fos[0].Node != 2 {
		t.Fatalf("failovers = %+v, want one for node 2", fos)
	}
}

// TestFailoverDuringReplay: the first standby dies while the journal is
// being replayed into it; the ingress discards it, re-purges the slot
// and adopts the second standby. The delivered stream stays exact.
func TestFailoverDuringReplay(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startRig(t, row, 2,
		func(i int, c Conn) Conn {
			if i == 0 {
				return &chaos.Flaky{C: c, Budget: 40}
			}
			return c
		},
		func(k int, c Conn) Conn {
			if k == 0 {
				// Survives the adoption handshake, dies on the first
				// replay cut.
				return &chaos.Flaky{C: c, Budget: 1}
			}
			return c
		})
	got, ing := runRig(t, rig, row, nil, nil)
	rungtest.Require(t, "standby died during replay", got, want)
	if rig.dialed != 2 {
		t.Fatalf("dialed %d standbys, want 2 (first died during replay)", rig.dialed)
	}
	if fos := ing.Failovers(); len(fos) != 1 || fos[0].Node != 0 {
		t.Fatalf("failovers = %+v, want one completed failover for node 0", fos)
	}
	requireFailoverAggregates(t, ing)
}

// TestFailoverDoubleFailure: two different nodes die at different points
// of the stream; both blocks fail over (to a fresh standby each) and the
// stream stays exact.
func TestFailoverDoubleFailure(t *testing.T) {
	for _, kind := range []gen.Kind{gen.Sequence, gen.Kleene} {
		row := rungtest.Lookup(t, fmt.Sprintf("traffic/%v", kind))
		want := rungtest.Reference(t, row)
		rig := startRig(t, row, 2, func(i int, c Conn) Conn {
			switch i {
			case 0:
				return &chaos.Flaky{C: c, Budget: 45}
			case 2:
				return &chaos.Flaky{C: c, Budget: 20}
			}
			return c
		}, nil)
		got, ing := runRig(t, rig, row, nil, nil)
		rungtest.Require(t, fmt.Sprintf("double failure/%v", kind), got, want)
		fos := ing.Failovers()
		if len(fos) != 2 {
			t.Fatalf("%v: %d failovers, want 2: %+v", kind, len(fos), fos)
		}
		if fos[0].Node != 2 || fos[1].Node != 0 {
			t.Fatalf("%v: failover order %+v, want node 2 then node 0", kind, fos)
		}
		requireFailoverAggregates(t, ing)
	}
}

// requireFailoverAggregates holds every failover record to the
// "failover" moves of its final adoption attempt in Migrations(): the
// moves onto its node, for the tests that call it fail each node once and
// an attempt that died before an acknowledgement leaves no move behind.
// The record counts them, carries their widest boundaries and their
// summed replay volume, and is stamped recovered no earlier than any of
// them was acknowledged.
func requireFailoverAggregates(t *testing.T, ing *Ingress) {
	t.Helper()
	mgs := ing.Migrations()
	for _, f := range ing.Failovers() {
		want := f
		want.Shards, want.SuppressUpTo, want.ReplayUpTo = 0, 0, 0
		want.ReplayCuts, want.ReplayEvents, want.ReplayBytes = 0, 0, 0
		for _, m := range mgs {
			if m.Reason != "failover" || m.To != f.Node {
				continue
			}
			want.Shards++
			want.SuppressUpTo = max(want.SuppressUpTo, m.SuppressUpTo)
			want.ReplayUpTo = max(want.ReplayUpTo, m.ReplayUpTo)
			want.ReplayCuts += m.ReplayCuts
			want.ReplayEvents += m.ReplayEvents
			want.ReplayBytes += m.ReplayBytes
			if m.CompletedAt.IsZero() || f.RecoveredAt.Before(m.CompletedAt) {
				t.Errorf("failover of node %d recovered at %v, before its move of shard %d was acknowledged (%v)",
					f.Node, f.RecoveredAt, m.Shard, m.CompletedAt)
			}
		}
		if f != want {
			t.Errorf("failover of node %d = %+v, want its moves' aggregate %+v", f.Node, f, want)
		}
		if want.Shards == 0 || f.ReplayCuts == 0 || f.ReplayEvents == 0 || f.RecoveredAt.IsZero() {
			t.Errorf("failover of node %d moved or replayed nothing, or never recovered: %+v", f.Node, f)
		}
	}
}

// TestFailoversDerivedFromLedger: a failover record is computed from the
// moves its final adoption attempt wrote, and from nothing else — not an
// earlier attempt's acknowledged move, not a move struck out when its
// destination died — and reads recovered only once every one of them is
// acknowledged. A failover that moved nothing recovered when detected,
// and a struck move is not reported at all.
func TestFailoversDerivedFromLedger(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	in := &Ingress{ledger: ledger{
		migrations: []recovery.Migration{
			// An earlier attempt's, acknowledged before the attempt failed.
			{Shard: 0, To: 1, Reason: "failover", SuppressUpTo: 90, ReplayUpTo: 90, ReplayCuts: 9, CompletedAt: at(1)},
			// The final attempt's.
			{Shard: 0, To: 1, Reason: "failover", SuppressUpTo: 40, ReplayUpTo: 50,
				ReplayCuts: 2, ReplayEvents: 20, ReplayBytes: 200, CompletedAt: at(5)},
			{Shard: 1, To: 1, Reason: "failover", SuppressUpTo: 30, ReplayUpTo: 60,
				ReplayCuts: 3, ReplayEvents: 30, ReplayBytes: 300},
			{Shard: 2, To: -1, Reason: "failover", SuppressUpTo: 99, ReplayCuts: 7},
		},
		failovers: []failover{
			{Failover: recovery.Failover{Node: 1, Cause: "dead", DetectedAt: t0, JournalCuts: 4}, first: 1, end: 4},
			{Failover: recovery.Failover{Node: 2, DetectedAt: at(2)}, first: 4, end: 4},
		},
	}}
	want := recovery.Failover{
		Node: 1, Cause: "dead", DetectedAt: t0, JournalCuts: 4, Shards: 2, SuppressUpTo: 40,
		ReplayUpTo: 60, ReplayCuts: 5, ReplayEvents: 50, ReplayBytes: 500,
	}
	if fos := in.Failovers(); fos[0] != want {
		t.Fatalf("failover with a move in flight = %+v, want %+v", fos[0], want)
	}
	if !in.migrating() {
		t.Fatal("a move in flight does not count as migrating")
	}
	in.migrations[2].CompletedAt = at(7)
	want.RecoveredAt = at(7)
	fos := in.Failovers()
	if fos[0] != want {
		t.Fatalf("settled failover = %+v, want %+v", fos[0], want)
	}
	if f := fos[1]; f.Shards != 0 || !f.RecoveredAt.Equal(f.DetectedAt) {
		t.Fatalf("failover that moved nothing = %+v, want recovered when detected", f)
	}
	if in.migrating() {
		t.Fatal("a struck move counts as migrating")
	}
	if mgs := in.Migrations(); len(mgs) != 3 || slices.ContainsFunc(mgs, func(m recovery.Migration) bool { return m.To < 0 }) {
		t.Fatalf("Migrations() = %+v, want the three moves not struck out", mgs)
	}
}

// finishRefuser is a link that dies when handed Finish: the frame that
// would end a drained node's session.
type finishRefuser struct{ Conn }

func (c finishRefuser) Send(f wire.Frame) error {
	if _, ok := f.(wire.Finish); ok {
		c.Conn.Close()
		return fmt.Errorf("finishrefuser: injected death at Finish")
	}
	return c.Conn.Send(f)
}

// TestFailoverOfDrainedSlot: a node dies once Drain has handed every
// shard it owned to its peers. The incident is recorded, but nothing
// moved and nothing is lost: Shards is 0, the slot counts as recovered
// the moment it was found dead, and the stream stays exact.
func TestFailoverOfDrainedSlot(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startRig(t, row, 0, func(i int, c Conn) Conn {
		if i == 1 {
			return finishRefuser{c}
		}
		return c
	}, nil)
	got, ing := runRig(t, rig, row, nil, map[int]func(*Ingress){
		1500: func(ing *Ingress) {
			if err := ing.Drain(1); err != nil {
				t.Fatalf("Drain(1): %v", err)
			}
		},
	})
	rungtest.Require(t, "drained slot dies", got, want)
	fos := ing.Failovers()
	if len(fos) != 1 || fos[0].Node != 1 || !strings.Contains(fos[0].Cause, "finishing drained node") {
		t.Fatalf("failovers = %+v, want one for drained node 1, dead at its Finish", fos)
	}
	if f := fos[0]; f.Shards != 0 || f.ReplayCuts != 0 || !f.RecoveredAt.Equal(f.DetectedAt) {
		t.Fatalf("failover of the drained slot = %+v, want no shards, no replay, recovered when detected", f)
	}
}

// TestFailoverHeartbeatTimeout: a node that goes silent without any
// transport error (frames swallowed — a netsplit) is declared dead by
// the heartbeat detector and failed over; the stream stays exact.
func TestFailoverHeartbeatTimeout(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startRig(t, row, 1, func(i int, c Conn) Conn {
		if i == 1 {
			return &blackholeConn{Conn: c, budget: 25}
		}
		return c
	}, nil)
	rig.recOptions.HeartbeatTimeout = 150 * time.Millisecond
	got, ing := runRig(t, rig, row, nil, nil)
	rungtest.Require(t, "heartbeat timeout", got, want)
	fos := ing.Failovers()
	if len(fos) != 1 || fos[0].Node != 1 {
		t.Fatalf("failovers = %+v, want one for node 1", fos)
	}
	if !strings.Contains(fos[0].Cause, "heartbeat") {
		t.Fatalf("cause %q does not name the heartbeat detector", fos[0].Cause)
	}
}

// TestFailoverStandbyExhausted: with no standby remaining the failure
// degrades to the exactness-over-availability behavior — Finish surfaces
// the error instead of hanging or silently under-delivering.
func TestFailoverStandbyExhausted(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startRig(t, row, 0, func(i int, c Conn) Conn {
		if i == 1 {
			return &chaos.Flaky{C: c, Budget: 30}
		}
		return c
	}, nil)
	pat := row.Specs[0].Pattern
	ing, err := NewIngress(pat, rig.conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: row.Schema,
		OnMatch:  func(*match.Match) {},
		Recovery: &rig.recOptions,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		ing.Process(&row.Events[i])
	}
	if err := rungtest.Finish(t, ing.Finish); err == nil {
		t.Fatal("Finish reported success with an unrecoverable dead node")
	} else if !strings.Contains(err.Error(), "standby") {
		t.Fatalf("error %v does not explain the exhausted standbys", err)
	}
}

// TestRecoveryHealthyRun: with recovery armed but no failure, the
// journal and heartbeats must not perturb the stream — byte-identical to
// the sharded reference, zero failovers — and the journal must have
// trimmed behind the released watermark rather than retaining the whole
// stream.
func TestRecoveryHealthyRun(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/negation")
	want := rungtest.Reference(t, row)
	rig := startRig(t, row, 1, nil, nil)
	got, ing := runRig(t, rig, row, nil, nil)
	rungtest.Require(t, "healthy run with recovery armed", got, want)
	if fos := ing.Failovers(); len(fos) != 0 {
		t.Fatalf("healthy run recorded failovers: %+v", fos)
	}
	if rig.dialed != 0 {
		t.Fatal("healthy run dialed a standby")
	}
}

// TestLocalClusterRecover: an in-process cluster whose standbys
// SpawnStandbys spawns bare on demand. (No failure is injectable through
// Spawn's own links, so this pins the healthy path plus configuration
// plumbing.)
func TestLocalClusterRecover(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	pat := row.Specs[0].Pattern
	want := rungtest.Reference(t, row.WithShards(4))
	var rec rungtest.Recorder
	nc := NodeConfig{
		Pattern: pat, Schema: row.Schema, Engine: engine.Config{CheckEvery: 250},
		Shards: 2, Batch: 64, KeyAttr: "key",
	}
	ing := spawnCluster(t, pat, 2, nc, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: row.Schema, OnTagged: rec.Tagged,
		Recovery: &RecoveryConfig{Standby: SpawnStandbys(1, nc)},
	})
	for i := range row.Events {
		ing.Process(&row.Events[i])
	}
	if err := ing.Finish(); err != nil {
		t.Fatal(err)
	}
	rungtest.Require(t, "local recover-enabled cluster", rec.Stream(), want)
	if fos := ing.Failovers(); len(fos) != 0 {
		t.Fatalf("healthy local run failed over: %+v", fos)
	}
}

// stallProbe records the write-stall window a session arms on it.
type stallProbe struct {
	Conn
	armed *atomic.Int64
}

func (p stallProbe) SetWriteStall(d time.Duration) { p.armed.Store(int64(d)) }

// TestWriteStallArmedOnEverySession: the probe that turns a wedged
// worker into a link error must be armed on every connection a session
// is installed on — a founding member's, a join's, and above all the
// standby's that is in service because something already failed.
func TestWriteStallArmedOnEverySession(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	var founding [3]atomic.Int64
	var joined, adopted atomic.Int64
	rig := startRig(t, row, 2, func(i int, c Conn) Conn {
		if i == 1 {
			c = &chaos.Flaky{C: c, Budget: 30} // dies ~37% in; standby 0 adopts its shards
		}
		return stallProbe{c, &founding[i]}
	}, func(_ int, c Conn) Conn { return stallProbe{c, &adopted} })
	rig.recOptions.HeartbeatTimeout = 5 * time.Second
	got, ing := runRig(t, rig, row, nil, map[int]func(*Ingress){
		500: func(ing *Ingress) {
			c, err := DialTCP(rig.standbyLs[1].Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ing.AddNode(stallProbe{c, &joined}); err != nil {
				t.Fatal(err)
			}
		},
	})
	rungtest.Require(t, "join and failover", got, want)
	if fos := ing.Failovers(); len(fos) != 1 {
		t.Fatalf("failovers = %+v, want the one adoption", fos)
	}
	sessions := map[string]*atomic.Int64{
		"founding 0": &founding[0], "founding 1": &founding[1], "founding 2": &founding[2],
		"join": &joined, "adoption": &adopted,
	}
	for name, armed := range sessions {
		if got, want := time.Duration(armed.Load()), 4*rig.recOptions.HeartbeatTimeout; got != want {
			t.Errorf("%s session: write stall armed at %v, want %v", name, got, want)
		}
	}
}

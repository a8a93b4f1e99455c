package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"acep/internal/chaos"
	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/wire"
)

// runElastic streams the workload through the rig's cluster with the
// placement controller configured, invoking the `at` hooks just before
// the given event indexes — on the ingress goroutine, which is the
// calling contract of MigrateShard, AddNode and Drain.
func runElastic(t *testing.T, rig *failoverRig, w *gen.Workload, kind gen.Kind,
	ec *ElasticConfig, at map[int]func(*Ingress)) (*tagRecorder, *Ingress) {
	t.Helper()
	pat, err := w.Pattern(kind, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	rec := &tagRecorder{}
	ing, err := NewIngress(pat, rig.conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: w.Schema, OnTagged: rec.rec,
		Recovery: &rig.recOptions, Elastic: ec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		if fn, ok := at[i]; ok {
			fn(ing)
		}
		ing.Process(&w.Events[i])
	}
	if err := finishWithin(t, 60*time.Second, ing); err != nil {
		t.Fatalf("elastic cluster finished with error: %v", err)
	}
	return rec, ing
}

// TestMigrateLive is the tentpole's acceptance shape: a shard migrates
// between two healthy nodes mid-stream — ingest never stops, no failure
// is involved — and the delivered stream is byte-identical to the
// single-process engine. The migration record carries the replay volume
// and a completed timestamp (the ack round-trip happened).
func TestMigrateLive(t *testing.T) {
	for _, kind := range []gen.Kind{gen.Sequence, gen.Kleene} {
		w := failoverWorkload(t, "traffic")
		want := runSharded(t, w, kind, 6)
		rig, _ := startFailoverRig(t, w, kind, 0, nil, nil)
		got, ing := runElastic(t, rig, w, kind, nil, map[int]func(*Ingress){
			2000: func(ing *Ingress) {
				// Shard 2 is node 1's first shard; node 0 never hosted it.
				if err := ing.MigrateShard(2, 0); err != nil {
					t.Fatalf("live migration failed: %v", err)
				}
			},
		})
		requireIdentical(t, fmt.Sprintf("live migration/%v", kind), got, want)
		if fos := ing.Failovers(); len(fos) != 0 {
			t.Fatalf("%v: healthy migration recorded failovers: %+v", kind, fos)
		}
		mgs := ing.Migrations()
		if len(mgs) != 1 {
			t.Fatalf("%v: %d migrations, want 1: %+v", kind, len(mgs), mgs)
		}
		m := mgs[0]
		if m.Shard != 2 || m.From != 1 || m.To != 0 || m.Reason != "rebalance" {
			t.Fatalf("%v: migration record %+v, want shard 2 node 1 -> 0 (rebalance)", kind, m)
		}
		if m.ReplayCuts == 0 || m.ReplayEvents == 0 {
			t.Fatalf("%v: migration replayed nothing: %+v", kind, m)
		}
		if m.CompletedAt.IsZero() || m.Pause() <= 0 {
			t.Fatalf("%v: migration never acknowledged: %+v", kind, m)
		}
		if o := ing.Owners(); o[2] != 0 {
			t.Fatalf("%v: owners %v, want shard 2 on node 0", kind, o)
		}
	}
}

// waitForStats blocks until each of the first `nodes` slots has reported
// shard stats stamped at or after event index from (every report covers
// every shard, idle ones as zeros, under one stamp). A test ingress
// outruns its nodes by design — no flow control ties ingest to worker
// progress — and the placement controller does not act on reports that
// trail their peers', so a controller test holds the feed near its
// nodes' telemetry; a paced real deployment gets it continuously.
func waitForStats(t *testing.T, ing *Ingress, nodes, from int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		fresh := 0
		for _, ss := range ing.NodeStats()[:nodes] {
			if len(ss) > 0 && int(ss[0].Cut) >= from {
				fresh++
			}
		}
		if fresh == nodes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d nodes reported shard stats from event %d on", fresh, nodes, from)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRebalanceSkewed: the placement controller, fed per-shard
// queue-wait p99 snapshots from real nodes, moves at least one shard off
// the hottest node on its own — among the founders alone, and onto a
// node that joined empty — and however many moves it makes, the stream
// stays byte-identical to the single-process reference.
func TestRebalanceSkewed(t *testing.T) {
	// Keys: 4 over 6 global shards leaves at least two shards idle, so
	// node load is skewed from the start and stays so.
	w := gen.Traffic(gen.TrafficConfig{
		Types: 6, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 4,
	})
	want := runSharded(t, w, gen.Sequence, 6)
	for _, joiner := range []bool{false, true} {
		name, standbys := "rebalance under skew", 0
		if joiner {
			name, standbys = "rebalance under skew, with a joiner", 1
		}
		rig, _ := startFailoverRig(t, w, gen.Sequence, standbys, nil, nil)
		// A node's first report (cut 4) carries zeros — nothing was
		// published before anyone asked — and its second (cut 8) the first
		// samples, so the controller cannot see the skew before event 512:
		// the joiner below is seated by then, whatever the scheduler does.
		// From event 3000 on the feed stays within 6 cuts of every
		// founder's newest report (a node reports every 4), inside the
		// 8-cut age horizon.
		at := map[int]func(*Ingress){}
		for i := 3000; i < 4000; i += 64 {
			at[i] = func(ing *Ingress) { waitForStats(t, ing, 3, i-6*64) }
		}
		if joiner {
			at[256] = func(ing *Ingress) {
				c, err := DialTCP(rig.standbyLs[0].Addr())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ing.AddNode(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, ing := runElastic(t, rig, w, gen.Sequence, &ElasticConfig{
			HotRatio: 1.1, MinWaitP99: 1, CooldownCuts: 2,
		}, at)
		requireIdentical(t, name, got, want)
		if fos := ing.Failovers(); len(fos) != 0 {
			t.Fatalf("%s: recorded failovers: %+v", name, fos)
		}
		mgs := ing.Migrations()
		if len(mgs) == 0 {
			t.Fatalf("%s: controller never moved a shard off the hot node", name)
		}
		// An empty node ties the idlest founder at best and owns fewer
		// shards, so the first move is the joiner's.
		if joiner && mgs[0].To != 3 {
			t.Fatalf("%s: first move went to node %d, not the joiner: %+v", name, mgs[0].To, mgs)
		}
		for _, m := range mgs {
			if m.Reason != "rebalance" && m.Reason != "join" {
				t.Fatalf("%s: controller move with reason %q: %+v", name, m.Reason, m)
			}
			if m.CompletedAt.IsZero() {
				t.Fatalf("%s: migration never acknowledged: %+v", name, m)
			}
		}
	}
}

// TestMigrateSourceKilled — kill matrix (1): the migration's source
// node dies right as the move is in flight (its remaining shard fails
// over to a standby while the migrated shard's ack may still be
// pending). Both the migrated and the failed-over shard must land
// exactly once in the output.
func TestMigrateSourceKilled(t *testing.T) {
	w := failoverWorkload(t, "traffic")
	want := runSharded(t, w, gen.Sequence, 6)
	// Node 1 has sent ≤94 frames by event 2000 (1 assign + 31 cuts × ≤3);
	// budget 95 kills it on the first frames after the migration below.
	rig, _ := startFailoverRig(t, w, gen.Sequence, 1, func(i int, c Conn) Conn {
		if i == 1 {
			return &chaos.Flaky{C: c, Budget: 95}
		}
		return c
	}, nil)
	got, ing := runElastic(t, rig, w, gen.Sequence, nil, map[int]func(*Ingress){
		2000: func(ing *Ingress) {
			if err := ing.MigrateShard(2, 0); err != nil {
				t.Fatalf("migration off the doomed source failed: %v", err)
			}
		},
	})
	requireIdentical(t, "source killed mid-migration", got, want)
	fos := ing.Failovers()
	if len(fos) != 1 || fos[0].Node != 1 {
		t.Fatalf("failovers = %+v, want exactly one for node 1", fos)
	}
	var sawMove, sawFailover bool
	for _, m := range ing.Migrations() {
		if m.Shard == 2 && m.To == 0 && m.Reason == "rebalance" {
			sawMove = true
			if m.CompletedAt.IsZero() {
				t.Fatalf("migrated shard 2 never acknowledged: %+v", m)
			}
		}
		if m.Shard == 3 && m.Reason == "failover" {
			sawFailover = true
		}
	}
	if !sawMove || !sawFailover {
		t.Fatalf("migrations %+v: want shard 2 rebalanced and shard 3 failed over", ing.Migrations())
	}
}

// TestMigrateDestKilled — kill matrix (2): the migration's destination
// dies while the shard's history is being replayed into it. The aborted
// move is dropped, the destination's whole block (the half-migrated
// shard included) fails over to a standby, and the stream stays exact.
func TestMigrateDestKilled(t *testing.T) {
	w := failoverWorkload(t, "traffic")
	want := runSharded(t, w, gen.Sequence, 6)
	// Node 0's budget expires just as the migration's Migrate-plus-replay
	// burst lands on top of its ≤94 pre-migration frames.
	rig, _ := startFailoverRig(t, w, gen.Sequence, 1, func(i int, c Conn) Conn {
		if i == 0 {
			return &chaos.Flaky{C: c, Budget: 96}
		}
		return c
	}, nil)
	got, ing := runElastic(t, rig, w, gen.Sequence, nil, map[int]func(*Ingress){
		2000: func(ing *Ingress) {
			// The destination dies during this call's replay loop (or on
			// the cut right after): the error path parks the failure for
			// the next barrier either way.
			ing.MigrateShard(2, 0) //nolint:errcheck // the death is the point
		},
	})
	requireIdentical(t, "destination killed mid-replay", got, want)
	fos := ing.Failovers()
	if len(fos) != 1 || fos[0].Node != 0 {
		t.Fatalf("failovers = %+v, want exactly one for node 0", fos)
	}
	owners := ing.Owners()
	for _, g := range []int{0, 1, 2} {
		if owners[g] != 0 {
			t.Fatalf("owners %v: shard %d must ride node 0's successor", owners, g)
		}
	}
}

// TestRebalanceDuringFailover — kill matrix (3): the placement
// controller is live while a node dies and fails over. The controller
// must not interleave moves with the in-flight recovery (it never moves
// while any migration is unacknowledged), and the stream stays exact.
func TestRebalanceDuringFailover(t *testing.T) {
	w := failoverWorkload(t, "traffic")
	want := runSharded(t, w, gen.Sequence, 6)
	rig, _ := startFailoverRig(t, w, gen.Sequence, 1, func(i int, c Conn) Conn {
		if i == 1 {
			return &chaos.Flaky{C: c, Budget: 45}
		}
		return c
	}, nil)
	got, ing := runElastic(t, rig, w, gen.Sequence, &ElasticConfig{
		HotRatio: 1.1, MinWaitP99: 1, CooldownCuts: 2,
	}, nil)
	requireIdentical(t, "rebalance during failover", got, want)
	fos := ing.Failovers()
	if len(fos) != 1 || fos[0].Node != 1 {
		t.Fatalf("failovers = %+v, want exactly one for node 1", fos)
	}
	if fos[0].RecoveredAt.IsZero() {
		t.Fatal("failover never completed under the live controller")
	}
}

// TestStandbyRestartRejoins — satellite regression: a consumed standby
// whose process dies and restarts (a fresh accept on the same address,
// serving the bare-node Hello path) returns to the standby pool and is
// adopted again by a later failover. Two failovers of the same slot
// ride one standby address; the stream stays exact.
func TestStandbyRestartRejoins(t *testing.T) {
	w := failoverWorkload(t, "traffic")
	want := runSharded(t, w, gen.Sequence, 6)
	rig, _ := startFailoverRig(t, w, gen.Sequence, 0, func(i int, c Conn) Conn {
		if i == 1 {
			return &chaos.Flaky{C: c, Budget: 30}
		}
		return c
	}, nil)

	// One standby address. Each accepted session runs a fresh bare node —
	// the "restarted process". The first session is killed mid-stream
	// after adoption; the second must find the address back in the pool.
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var sessions atomic.Int32
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			n := sessions.Add(1)
			node, err := NewNode(NodeConfig{
				Engine: engine.Config{CheckEvery: 250}, Batch: 64, KeyAttr: "key",
			})
			if err != nil {
				rig.noteErr(err)
				c.Close()
				continue
			}
			if n == 1 {
				// First tenancy dies ~30 cuts after adoption.
				c = &recvKiller{streamConn: c.(*streamConn), budget: 120}
			}
			go node.Serve(c) //nolint:errcheck // session 1's crash is the point
		}
	}()
	rig.recOptions.Standby = DialStandbys([]string{l.Addr()})

	got, ing := runElastic(t, rig, w, gen.Sequence, nil, nil)
	requireIdentical(t, "standby restart rejoins", got, want)
	fos := ing.Failovers()
	if len(fos) != 2 || fos[0].Node != 1 || fos[1].Node != 1 {
		t.Fatalf("failovers = %+v, want two for node 1 (original death, adoptee death)", fos)
	}
	if n := sessions.Load(); n != 2 {
		t.Fatalf("standby address served %d sessions, want 2 (consumed, then rejoined after restart)", n)
	}
}

// TestAddNodeDrain: runtime scale-out and graceful scale-in on one
// cluster — a bare node joins mid-stream and receives a shard, then a
// founding node drains its shards to the survivors and finishes while
// the cluster keeps running. Stream byte-identical, every move
// acknowledged, no failovers.
func TestAddNodeDrain(t *testing.T) {
	w := failoverWorkload(t, "traffic")
	want := runSharded(t, w, gen.Sequence, 4)
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}

	var conns []Conn
	rig := &failoverRig{}
	for i := 0; i < 2; i++ {
		node, err := NewNode(NodeConfig{
			Pattern: pat, Engine: engine.Config{CheckEvery: 250},
			Shards: 2, Batch: 64, KeyAttr: "key", Schema: w.Schema,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go node.ServeListener(l, rig.noteErr) //nolint:errcheck // closed at test end
		c, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	// The joining node: bare (adopts pattern and schema from the Assign
	// reply), listening but not yet part of the cluster.
	joiner, err := NewNode(NodeConfig{
		Engine: engine.Config{CheckEvery: 250}, Batch: 64, KeyAttr: "key",
	})
	if err != nil {
		t.Fatal(err)
	}
	jl, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	go joiner.ServeListener(jl, rig.noteErr) //nolint:errcheck // closed at test end

	rec := &tagRecorder{}
	ing, err := NewIngress(pat, conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: w.Schema, OnTagged: rec.rec,
		Recovery: &RecoveryConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		switch i {
		case 1500:
			c, err := DialTCP(jl.Addr())
			if err != nil {
				t.Fatal(err)
			}
			n, err := ing.AddNode(c)
			if err != nil {
				t.Fatalf("AddNode: %v", err)
			}
			if n != 2 {
				t.Fatalf("joined as slot %d, want 2", n)
			}
			if err := ing.MigrateShard(1, n); err != nil {
				t.Fatalf("handing shard 1 to the joiner: %v", err)
			}
		case 3500:
			if err := ing.Drain(0); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		}
		ing.Process(&w.Events[i])
	}
	if err := finishWithin(t, 60*time.Second, ing); err != nil {
		t.Fatalf("elastic cluster finished with error: %v", err)
	}
	requireIdentical(t, "join+drain", rec, want)
	if fos := ing.Failovers(); len(fos) != 0 {
		t.Fatalf("join+drain recorded failovers: %+v", fos)
	}
	mgs := ing.Migrations()
	if len(mgs) != 2 {
		t.Fatalf("%d migrations, want 2 (join, drain): %+v", len(mgs), mgs)
	}
	if mgs[0].Shard != 1 || mgs[0].To != 2 || mgs[0].Reason != "join" {
		t.Fatalf("join move %+v, want shard 1 -> slot 2 (join)", mgs[0])
	}
	if mgs[1].From != 0 || mgs[1].Reason != "drain" {
		t.Fatalf("drain move %+v, want off node 0 (drain)", mgs[1])
	}
	for _, m := range mgs {
		if m.CompletedAt.IsZero() {
			t.Fatalf("migration never acknowledged: %+v", m)
		}
	}
	owners := ing.Owners()
	if owners[1] != 2 || owners[0] == 0 {
		t.Fatalf("owners %v: shard 1 must ride the joiner and shard 0 must have left node 0", owners)
	}
}

// TestPlace is the placement rule's truth table: two founders of two
// shards each unless a row says otherwise, reports stamped at cut 1000
// with a 100-cut age horizon.
func TestPlace(t *testing.T) {
	const now = 1000
	ms := func(f float64) uint64 { return uint64(f * float64(time.Millisecond)) }
	st := func(shard uint32, events uint64, p99ms float64, cut uint64) wire.ShardStat {
		return wire.ShardStat{Shard: shard, Events: events, P99Nanos: ms(p99ms), Cut: cut}
	}
	founder := func(report ...wire.ShardStat) slotView {
		return slotView{eligible: true, hosted: map[int]bool{}, report: report}
	}
	joiner := founder()
	hot := founder(st(0, 100, 40, now), st(1, 500, 30, now))
	cold := founder(st(2, 100, 10, now), st(3, 100, 5, now))
	view := func(edit func(*placementView), slots ...slotView) placementView {
		v := placementView{
			cfg:   ElasticConfig{}.withDefaults(),
			owner: []int{0, 0, 1, 1}, pinned: make([]bool, 4), slots: slots,
			ageHorizon: 100,
		}
		if edit != nil {
			edit(&v)
		}
		return v
	}
	type move struct {
		shard, to int
		reason    string
	}
	none := move{-1, -1, ""}
	cases := []struct {
		name string
		v    placementView
		want move
	}{
		{"balanced", view(nil, founder(st(0, 100, 10, now)), founder(st(2, 100, 10, now))), none},
		{"hot over HotRatio: its busiest shard moves", view(nil, hot, cold), move{1, 1, "rebalance"}},
		{"hot under HotRatio", view(nil, founder(st(0, 100, 15, now)), cold), none},
		{"hot under MinWaitP99", view(nil, founder(st(0, 100, 0.8, now)), founder(st(2, 100, 0.1, now))), none},
		{"sole-shard hot node keeps it", view(func(v *placementView) { v.owner = []int{0, 1, 1, 1} }, hot, cold), none},
		{"sole-shard hot node gives it to an empty one",
			view(func(v *placementView) { v.owner = []int{0, 1, 1, 1} }, hot, cold, joiner), move{0, 2, "join"}},
		{"report older than the last move is unknown, so nothing is hot",
			view(func(v *placementView) { v.moveHorizon = now }, founder(st(0, 100, 40, now-1)), cold), none},
		{"stale peer is not a target; the joiner is",
			view(nil, hot, founder(st(2, 100, 10, now-101)), joiner), move{1, 2, "join"}},
		{"stale peer alone: no target", view(nil, hot, founder(st(2, 100, 10, now-101))), none},
		{"never-reporting peer that owns shards: no target", view(nil, hot, founder()), none},
		{"idle founder reports zeros: known load 0, the target",
			view(nil, hot, founder(st(2, 0, 0, now), st(3, 0, 0, now))), move{1, 1, "rebalance"}},
		{"joiner beats an idle founder on shard count",
			view(nil, hot, founder(st(2, 100, 0, now)), joiner), move{1, 2, "join"}},
		{"every candidate already hosted",
			view(nil, hot, slotView{eligible: true, hosted: map[int]bool{0: true, 1: true}, report: cold.report}), none},
		{"busiest shard pinned: the next one moves", view(func(v *placementView) { v.pinned[1] = true }, hot, cold), move{0, 1, "rebalance"}},
		{"cold slot not live", view(nil, hot, slotView{hosted: map[int]bool{}, report: cold.report}), none},
		{"migration in flight", view(func(v *placementView) { v.inFlight = true }, hot, cold), none},
	}
	for _, c := range cases {
		got := none
		if g, to, reason, ok := place(c.v); ok {
			got = move{g, to, reason}
		}
		if got != c.want {
			t.Errorf("%s: place = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// scriptedNode speaks the node side of the protocol with no engine
// behind it: it acknowledges every cut, reports the load its script
// dictates for the cut, and acknowledges migrations.
func scriptedNode(c Conn, shards uint32, load func(upTo uint64) []wire.ShardStat) {
	defer c.Close()
	send := func(f wire.Frame) { c.Send(f) } //nolint:errcheck // a dead link ends the Recv loop below
	send(wire.Hello{Version: wire.Version, Shards: shards})
	var moving []uint32
	var last uint64
	for {
		f, err := c.Recv()
		if err != nil {
			return
		}
		switch v := f.(type) {
		case wire.Batch:
			if v.UpTo == 0 {
				continue
			}
			if ss := load(v.UpTo); len(ss) > 0 {
				send(wire.ShardStats{Stats: ss})
			}
			last = max(last, v.UpTo)
			send(wire.Matches{UpTo: last})
		case wire.Migrate:
			moving = append(moving, v.Shard)
		case wire.ShardRoute:
			for _, g := range moving {
				send(wire.MigrateAck{Shard: g, UpTo: last})
			}
			moving = nil
		case wire.Finish:
			send(wire.Matches{UpTo: maxSeq})
			send(wire.Metrics{})
			return
		}
	}
}

// TestRebalanceStaleReporter is ROADMAP defect (b) end to end: two
// loaded founders, one of whose load reports stopped advancing, and a
// fresh joiner. The lagging founder's load is unknown, not zero, so the
// hot founder's shard must land on the joiner — and nothing may move
// onto the lagging founder before the joiner exists.
func TestRebalanceStaleReporter(t *testing.T) {
	w := keyedWorkload(t, "traffic")
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	const batch, preCuts, postCuts = 4, 16, 8
	busy := func(p99 time.Duration, stuckAt uint64, shards ...uint32) func(uint64) []wire.ShardStat {
		return func(upTo uint64) []wire.ShardStat {
			if stuckAt != 0 {
				upTo = stuckAt
			}
			var ss []wire.ShardStat
			for _, g := range shards {
				ss = append(ss, wire.ShardStat{Shard: g, Events: 100, P99Nanos: uint64(p99), Cut: upTo})
			}
			return ss
		}
	}
	start := func(shards uint32, load func(uint64) []wire.ShardStat) Conn {
		client, server := Pipe()
		go scriptedNode(server, shards, load)
		return client
	}
	// The lagging founder's reports stay stamped with the first cut.
	stuck := w.Events[batch-1].Seq
	progress := make(chan uint64, 4*(preCuts+postCuts)) // a release per cut at most: the collector never blocks on it
	ing, err := NewIngress(pat, []Conn{
		start(2, busy(time.Millisecond, 0, 0, 1)),
		start(2, busy(900*time.Microsecond, stuck, 2, 3)),
	}, IngressOptions{
		Batch: batch, KeyAttr: "key", Schema: w.Schema, OnMatch: func(*match.Match) {},
		Recovery: &RecoveryConfig{}, OnProgress: func(w uint64) { progress <- w },
		Elastic: &ElasticConfig{MinWaitP99: 1, CooldownCuts: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(from, cuts int) int {
		to := from + cuts*batch
		for i := from; i < to; i++ {
			ing.Process(&w.Events[i])
		}
		// Every report sent up to the last cut is in once the merge has
		// released it: a node sends its stats ahead of the cut's watermark.
		for <-progress < w.Events[to-1].Seq {
		}
		return to
	}
	at := feed(0, preCuts)
	if mgs := ing.Migrations(); len(mgs) != 0 {
		t.Fatalf("moved before the joiner existed: %+v", mgs)
	}
	joiner, err := ing.AddNode(start(1, func(uint64) []wire.ShardStat { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	feed(at, postCuts)
	if err := finishWithin(t, 30*time.Second, ing); err != nil {
		t.Fatal(err)
	}
	mgs := ing.Migrations()
	if len(mgs) == 0 {
		t.Fatal("the controller never moved a shard onto the joiner")
	}
	if m := mgs[0]; m.From != 0 || m.To != joiner || m.Reason != "join" {
		t.Fatalf("first move %+v, want a shard of founder 0 joining slot %d (the lagging founder is slot 1)", m, joiner)
	}
}

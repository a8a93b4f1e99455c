package cluster

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"acep/internal/chaos"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/rungtest"
	"acep/internal/shard"
	"acep/internal/wire"
)

// TestMigrateLive is the tentpole's acceptance shape: a shard migrates
// between two healthy nodes mid-stream — ingest never stops, no failure
// is involved — and the delivered stream is byte-identical to the
// single-process engine. The migration record carries the replay volume
// and a completed timestamp (the ack round-trip happened).
func TestMigrateLive(t *testing.T) {
	for _, kind := range []gen.Kind{gen.Sequence, gen.Kleene} {
		row := rungtest.Lookup(t, fmt.Sprintf("traffic/%v", kind))
		want := rungtest.Reference(t, row)
		rig := startRig(t, row, 0, nil, nil)
		got, ing := runRig(t, rig, row, nil, map[int]func(*Ingress){
			2000: func(ing *Ingress) {
				// Shard 2 is node 1's first shard; node 0 never hosted it.
				if err := ing.MigrateShard(2, 0); err != nil {
					t.Fatalf("live migration failed: %v", err)
				}
			},
		})
		rungtest.Require(t, fmt.Sprintf("live migration/%v", kind), got, want)
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

// TestRebalanceSkewed: the placement controller, reading the events the
// ingress routed to each shard, moves load off the most loaded node on
// its own — among the founders alone, and onto a node that joined empty —
// the stream stays byte-identical to the single-process reference, and a
// second run of the same stream makes the same moves. Nothing paces the
// feed, and the controller's input is a function of the stream; the one
// timing input left is whether the last move is acknowledged when a
// decision comes, and an unpaced feed outruns an acknowledgement by tens
// of cuts. So HotRatio is 3: the first decision (cut 16) moves shard 3
// off node 1, and after that no node routes more than about twice
// another's events, whenever the next decision comes.
func TestRebalanceSkewed(t *testing.T) {
	// Keys: 4 over 6 global shards leaves at least two shards idle, so
	// node load is skewed from the start and stays so.
	row := rungtest.Lookup(t, "pinned/sequence-300").WithShards(6)
	want := rungtest.Reference(t, row)
	type move struct {
		shard, from, to int
		reason          string
	}
	for _, joiner := range []bool{false, true} {
		name, standbys := "rebalance under skew", 0
		if joiner {
			name, standbys = "rebalance under skew, with a joiner", 1
		}
		var first []move
		for run := range 2 {
			rig := startRig(t, row, standbys, nil, nil)
			at := map[int]func(*Ingress){}
			if joiner {
				// Seated before the first decision, at cut 16.
				at[64] = func(ing *Ingress) {
					c, err := DialTCP(rig.standbyLs[0].Addr())
					if err != nil {
						t.Fatal(err)
					}
					if _, err := ing.AddNode(c); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, ing := runRig(t, rig, row, &ElasticConfig{HotRatio: 3}, at)
			rungtest.Require(t, name, got, want)
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
			var moves []move
			for _, m := range mgs {
				if m.Reason != "rebalance" && m.Reason != "join" {
					t.Fatalf("%s: controller move with reason %q: %+v", name, m.Reason, m)
				}
				if m.CompletedAt.IsZero() {
					t.Fatalf("%s: migration never acknowledged: %+v", name, m)
				}
				moves = append(moves, move{m.Shard, m.From, m.To, m.Reason})
			}
			if run == 0 {
				first = moves
			} else if !slices.Equal(moves, first) {
				t.Fatalf("%s: the second run moved %+v, the first %+v", name, moves, first)
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
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	// Node 1 has sent ≤94 frames by event 2000 (1 assign + 31 cuts × ≤3);
	// budget 95 kills it on the first frames after the migration below.
	rig := startRig(t, row, 1, func(i int, c Conn) Conn {
		if i == 1 {
			return &chaos.Flaky{C: c, Budget: 95}
		}
		return c
	}, nil)
	got, ing := runRig(t, rig, row, nil, map[int]func(*Ingress){
		2000: func(ing *Ingress) {
			if err := ing.MigrateShard(2, 0); err != nil {
				t.Fatalf("migration off the doomed source failed: %v", err)
			}
		},
	})
	rungtest.Require(t, "source killed mid-migration", got, want)
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
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	// Node 0's budget expires just as the migration's Migrate-plus-replay
	// burst lands on top of its ≤94 pre-migration frames.
	rig := startRig(t, row, 1, func(i int, c Conn) Conn {
		if i == 0 {
			return &chaos.Flaky{C: c, Budget: 96}
		}
		return c
	}, nil)
	got, ing := runRig(t, rig, row, nil, map[int]func(*Ingress){
		2000: func(ing *Ingress) {
			// The destination dies during this call's replay loop (or on
			// the cut right after): the error path parks the failure for
			// the next barrier either way.
			ing.MigrateShard(2, 0) //nolint:errcheck // the death is the point
		},
	})
	rungtest.Require(t, "destination killed mid-replay", got, want)
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
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startRig(t, row, 1, func(i int, c Conn) Conn {
		if i == 1 {
			return &chaos.Flaky{C: c, Budget: 45}
		}
		return c
	}, nil)
	got, ing := runRig(t, rig, row, &ElasticConfig{
		HotRatio: 1.1, CooldownCuts: 2,
	}, nil)
	rungtest.Require(t, "rebalance during failover", got, want)
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
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startRig(t, row, 0, func(i int, c Conn) Conn {
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

	got, ing := runRig(t, rig, row, nil, nil)
	rungtest.Require(t, "standby restart rejoins", got, want)
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
	row := rungtest.Lookup(t, "traffic/sequence").WithShards(4)
	want := rungtest.Reference(t, row)
	// The joining node: the rig's bare standby (it adopts pattern and
	// schema from the Assign reply), listening but not yet in the cluster.
	rig := startRig(t, row, 1, nil, nil)
	got, ing := runRig(t, rig, row, nil, map[int]func(*Ingress){
		1500: func(ing *Ingress) {
			c, err := DialTCP(rig.standbyLs[0].Addr())
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
		},
		3500: func(ing *Ingress) {
			if err := ing.Drain(0); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		},
	})
	rungtest.Require(t, "join+drain", got, want)
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
// shards each unless a row says otherwise; a shard's load is the events
// routed to it since the last move.
func TestPlace(t *testing.T) {
	slot := func(hosted ...int) slotView {
		sv := slotView{eligible: true, hosted: map[int]bool{}}
		for _, g := range hosted {
			sv.hosted[g] = true
		}
		return sv
	}
	founders := []slotView{slot(0, 1), slot(2, 3)}
	joined := []slotView{slot(0, 1), slot(2, 3), slot()}
	soleOwner := func(v *placementView) { v.owner = []int{0, 1, 1, 1} }
	view := func(load []uint64, slots []slotView, edit func(*placementView)) placementView {
		v := placementView{
			cfg:   ElasticConfig{}.withDefaults(),
			owner: []int{0, 0, 1, 1}, pinned: make([]bool, 4), load: load, slots: slots,
		}
		if edit != nil {
			edit(&v)
		}
		return v
	}
	skew := []uint64{100, 500, 150, 100} // node 0: 600, node 1: 250
	idle := []uint64{100, 500, 0, 0}     // node 1 routed nothing
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
		{"idle stream", view(make([]uint64, 4), founders, nil), none},
		{"balanced", view([]uint64{100, 100, 100, 100}, founders, nil), none},
		{"hot over HotRatio: its busiest shard moves", view(skew, founders, nil), move{1, 1, "rebalance"}},
		{"hot under HotRatio", view([]uint64{100, 300, 150, 100}, founders, nil), none},
		{"sole-shard hot node keeps it", view([]uint64{600, 0, 100, 50}, founders, soleOwner), none},
		{"sole-shard hot node gives it to an empty one",
			view([]uint64{600, 0, 100, 50}, joined, soleOwner), move{0, 2, "join"}},
		{"idle founder is the target", view(idle, founders, nil), move{1, 1, "rebalance"}},
		{"joiner beats an idle founder on shard count", view(idle, joined, nil), move{1, 2, "join"}},
		{"every candidate already hosted", view(skew, []slotView{slot(0, 1), slot(0, 1, 2, 3)}, nil), none},
		{"busiest shard hosted by the target: the next one moves",
			view(skew, []slotView{slot(0, 1), slot(1, 2, 3)}, nil), move{0, 1, "rebalance"}},
		{"busiest shard pinned: the next one moves",
			view(skew, founders, func(v *placementView) { v.pinned[1] = true }), move{0, 1, "rebalance"}},
		{"cold slot not live", view(skew, []slotView{slot(0, 1), {hosted: map[int]bool{}}}, nil), none},
		{"migration in flight", view(skew, founders, func(v *placementView) { v.inFlight = true }), none},
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
// behind it: it acknowledges every cut and every migration.
func scriptedNode(c Conn, shards uint32) {
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

// TestRebalanceRoutedLoad pins the controller's moves on a stream whose
// per-shard split is known. Two scripted founders own shards {0, 1} and
// {2, 3}; cuts are 8 events, the cooldown 4 cuts, HotRatio the default 2,
// and the feed waits for each cut's release — which a moved shard's
// acknowledgement precedes — so no timing enters.
//   - Cuts 1-5 route 5:0:2:1 events to shards 0-3: node 0 carries 5/3 of
//     node 1's load, under the ratio, so nothing moves.
//   - Cuts 6-9 route 6:2:0:0. At cut 7 node 0 has routed 33 events to
//     node 1's 15, and its busiest shard, 0, moves there.
//   - From cut 10 on the split is 2:4:1:1. At cut 11, counted since the
//     move, node 1 (shards 0, 2 and 3) has routed 22 events to node 0's
//     10, and shard 2 moves to node 0: the busiest shard node 0 has not
//     hosted (it ties shard 3, and the lower index wins).
//   - A joiner is seated before cut 14. At cut 15 node 0 (shards 1 and 2)
//     has routed 20 events to node 1's 12 and the joiner's 0, and its
//     busiest shard, 1, joins the empty node. After that the joiner is the
//     hottest, but it owns one shard and no node is empty, so nothing
//     more moves.
func TestRebalanceRoutedLoad(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300")
	pat := row.Specs[0].Pattern
	const batch = 8
	start := func(shards uint32) Conn {
		client, server := Pipe()
		go scriptedNode(server, shards)
		return client
	}
	var released atomic.Uint64
	wake := make(chan struct{}, 1)
	ing, err := NewIngress(pat, []Conn{start(2), start(2)}, IngressOptions{
		Batch: batch, KeyAttr: "key", Schema: row.Schema, OnMatch: func(*match.Match) {},
		Recovery: &RecoveryConfig{Elastic: &ElasticConfig{CooldownCuts: 4}},
		OnProgress: func(w uint64) {
			released.Store(w)
			select {
			case wake <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every event copies one the pattern reads, keyed onto its shard.
	tmpl := row.Events[slices.IndexFunc(row.Events, func(ev event.Event) bool { return ing.reads.Has(ev.Type) })]
	keyAt, _ := row.Schema.AttrIndex(tmpl.Type, "key")
	var keys [4]float64
	var keyed [4]bool
	for k, found := 0, 0; found < 4; k++ {
		if g := shard.GlobalIndex(math.Float64bits(float64(k)), 4); !keyed[g] {
			keys[g], keyed[g] = float64(k), true
			found++
		}
	}
	var seq uint64
	cut := func(split [4]int) {
		for g, n := range split {
			for range n {
				ev := tmpl
				ev.Attrs = slices.Clone(tmpl.Attrs)
				ev.Attrs[keyAt] = keys[g]
				seq++
				ev.Seq, ev.TS = seq, event.Time(seq)
				ing.Process(&ev)
			}
		}
		for released.Load() < seq {
			<-wake
		}
	}
	for c := 1; c <= 29; c++ {
		switch {
		case c <= 5:
			cut([4]int{5, 0, 2, 1})
		case c <= 9:
			cut([4]int{6, 2, 0, 0})
		default:
			if c == 14 {
				if _, err := ing.AddNode(start(1)); err != nil {
					t.Fatal(err)
				}
			}
			cut([4]int{2, 4, 1, 1})
		}
	}
	if err := rungtest.Finish(t, ing.Finish); err != nil {
		t.Fatal(err)
	}
	type move struct {
		shard, from, to int
		reason          string
	}
	var got []move
	for _, m := range ing.Migrations() {
		got = append(got, move{m.Shard, m.From, m.To, m.Reason})
	}
	if want := []move{{0, 0, 1, "rebalance"}, {2, 1, 0, "rebalance"}, {1, 0, 2, "join"}}; !slices.Equal(got, want) {
		t.Fatalf("migrations %+v, want %+v", got, want)
	}
}

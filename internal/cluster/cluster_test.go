package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	recovery "acep/internal/recover"
	"acep/internal/rungtest"
	"acep/internal/shard"
	"acep/internal/wire"
)

// spawnCluster is an in-process cluster: n nodes built from nc, each
// behind a loopback Pipe, under one ingress. A node-side session error
// fails the test.
func spawnCluster(t *testing.T, pat *pattern.Pattern, n int, nc NodeConfig, opts IngressOptions) *Ingress {
	t.Helper()
	conns, err := Spawn(n, nc, func(err error) { t.Errorf("node error: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngress(pat, conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

// TestTable runs the table on an in-process cluster of Spawn's nodes,
// row.Nodes() of them, whose runs are decoded into blocks of each node's
// pool and come back from the shard worker that consumed them.
//
//   - cluster: bare nodes, the set shipped from the ingress as
//     Options.Patterns. A row that moves a shard arms recovery: the move
//     replays the shard's journaled history into the destination's
//     running session, and must have replayed some.
//   - cluster/arg: nodes configured with the row's one pattern, opened
//     through NewIngress's pattern argument.
func TestTable(t *testing.T) {
	solo := rungtest.Cluster
	solo.Solo = true
	rung := func(name string, e rungtest.Expect, arg bool) rungtest.Rung {
		return rungtest.Rung{Name: name, Expect: e, Run: func(t *testing.T, row rungtest.Row, rec *rungtest.Recorder) rungtest.Metrics {
			ing := runCluster(t, row, rec, arg)
			moves := 0
			for _, op := range row.Ops {
				if op.Migrate != nil {
					moves++
				}
			}
			mgs := ing.Migrations()
			if len(mgs) != moves || slices.ContainsFunc(mgs, func(m recovery.Migration) bool { return m.ReplayEvents == 0 }) {
				t.Fatalf("migrations %+v, want %d, each of which replayed journaled events", mgs, moves)
			}
			return rungtest.Metrics{Arrived: ing.Metrics().EventsArrived, Patterns: rungtest.ByID(ing.PatternMetrics())}
		}}
	}
	rungtest.Run(t, rung("cluster", rungtest.Cluster, false), rung("cluster/arg", solo, true))
}

func runCluster(t *testing.T, row rungtest.Row, rec *rungtest.Recorder, arg bool) *Ingress {
	nc := NodeConfig{Engine: row.Config, Shards: row.Shards / row.Nodes(), Batch: row.Batch, KeyAttr: "key"}
	opts := IngressOptions{
		Batch: row.Batch, KeyAttr: "key", Schema: row.Schema,
		Patterns: row.Specs, Tenants: row.Tenants, OnTagged: rec.Tagged,
	}
	var pat *pattern.Pattern
	if arg {
		pat, opts.Patterns = row.Specs[0].Pattern, nil
		nc.Pattern, nc.Schema = pat, row.Schema
	}
	for _, op := range row.Ops {
		if op.Migrate != nil {
			opts.Recovery = &RecoveryConfig{Standby: SpawnStandbys(row.Nodes(), nc)}
		}
	}
	ing := spawnCluster(t, pat, row.Nodes(), nc, opts)
	var err error
	for i := range row.Events {
		if op, ok := row.Ops[i]; ok {
			switch {
			case op.Add != nil:
				err = ing.AddPattern(*op.Add)
			case op.Migrate != nil:
				err = ing.MigrateShard(op.Migrate.Shard, op.Migrate.To)
			default:
				err = ing.RemovePattern(op.Remove)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ing.Process(&row.Events[i])
	}
	if err := rungtest.Finish(t, ing.Finish); err != nil {
		t.Fatal(err)
	}
	return ing
}

// runTCP plays the row's one pattern on a loopback-TCP cluster of
// configured nodes, hosting shardsPerNode shards each.
func runTCP(t *testing.T, row rungtest.Row, shardsPerNode []int) (rungtest.Stream, *Ingress) {
	t.Helper()
	pat := row.Specs[0].Pattern
	serveErr := make(chan error, len(shardsPerNode))
	conns := make([]Conn, len(shardsPerNode))
	for i, shards := range shardsPerNode {
		node, err := NewNode(NodeConfig{
			Pattern: pat, Engine: row.Config, Shards: shards, Batch: row.Batch, KeyAttr: "key", Schema: row.Schema,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer l.Close()
			c, err := l.Accept()
			if err != nil {
				serveErr <- err
				return
			}
			serveErr <- node.Serve(c)
		}()
		if conns[i], err = DialTCP(l.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	var rec rungtest.Recorder
	ing, err := NewIngress(pat, conns, IngressOptions{Batch: row.Batch, KeyAttr: "key", Schema: row.Schema, OnTagged: rec.Tagged})
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		ing.Process(&row.Events[i])
	}
	if err := ing.Finish(); err != nil {
		t.Fatalf("ingress finish: %v", err)
	}
	for range shardsPerNode {
		if err := <-serveErr; err != nil {
			t.Fatalf("node serve: %v", err)
		}
	}
	return rec.Stream(), ing
}

// TestClusterHeterogeneousNodes: nodes may host different shard counts;
// the stream must still be the reference's at their total.
func TestClusterHeterogeneousNodes(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300").WithShards(6)
	got, _ := runTCP(t, row, []int{1, 3, 2})
	rungtest.Require(t, "heterogeneous cluster", got, rungtest.Reference(t, row))
}

// TestClusterLocalPipes: 1×4, 2×2 and 4×1 in-process nodes all realize
// the same global 4-shard layout, so all three deliver the reference's
// stream, and reruns deliver it again (determinism).
func TestClusterLocalPipes(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300").WithShards(4)
	pat := row.Specs[0].Pattern
	want := rungtest.Reference(t, row)
	for _, layout := range []struct{ nodes, per int }{{1, 4}, {2, 2}, {4, 1}, {2, 2}} {
		var rec rungtest.Recorder
		ing := spawnCluster(t, pat, layout.nodes, NodeConfig{
			Pattern: pat, Schema: row.Schema, Engine: row.Config,
			Shards: layout.per, Batch: 128, KeyAttr: "key",
		}, IngressOptions{Batch: 128, KeyAttr: "key", Schema: row.Schema, OnTagged: rec.Tagged})
		for i := range row.Events {
			ing.Process(&row.Events[i])
		}
		if err := ing.Finish(); err != nil {
			t.Fatal(err)
		}
		rungtest.Require(t, fmt.Sprintf("%d nodes × %d shards", layout.nodes, layout.per), rec.Stream(), want)
	}
}

// TestNodeKeyMismatchRefused: the ingress owns the partition key. On a
// pattern partitionable by both key and count, nodes pinned to count
// under an ingress keyed on key are refused at the handshake, with both
// keys named; nodes that pin no key partition by the shipped one and
// deliver the reference's match count.
func TestNodeKeyMismatchRefused(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 3, Events: 6000, Seed: 5, MeanGap: 3, Keys: 8})
	for i := range w.Events {
		w.Events[i].Attrs[1] = float64(i * 7 % 5) // count: 5 values, independent of key
	}
	b := pattern.NewBuilder(w.Schema, pattern.Seq, 400)
	e0, e1, e2 := b.Event(0), b.Event(1), b.Event(2)
	for _, attr := range []string{"key", "count"} {
		b.WhereEq(e0, attr, e1, attr).WhereEq(e1, attr, e2, attr)
	}
	pat := b.MustBuild()
	want := 0
	ref, err := engine.New(pat, engine.Config{OnMatch: func(*match.Match) { want++ }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		ref.Process(&w.Events[i])
	}
	ref.Finish()
	if want == 0 {
		t.Fatal("reference found no matches; the test is vacuous")
	}
	open := func(nodeKey string) (*Ingress, *int, error) {
		conns, err := Spawn(2, NodeConfig{Shards: 2, KeyAttr: nodeKey}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := new(int)
		ing, err := NewIngress(pat, conns, IngressOptions{
			KeyAttr: "key", Schema: w.Schema, OnMatch: func(*match.Match) { *got++ },
		})
		return ing, got, err
	}
	run := func(ing *Ingress, got *int) int {
		for i := range w.Events {
			ing.Process(&w.Events[i])
		}
		if err := ing.Finish(); err != nil {
			t.Fatal(err)
		}
		return *got
	}

	ing, got, err := open("count")
	if err == nil {
		t.Fatalf("nodes pinned to count accepted by an ingress keyed on key; the session delivered %d of %d matches", run(ing, got), want)
	}
	if !strings.Contains(err.Error(), `"count"`) || !strings.Contains(err.Error(), `"key"`) {
		t.Fatalf("refusal does not name both keys: %v", err)
	}
	if ing, got, err = open(""); err != nil {
		t.Fatal(err)
	}
	if n := run(ing, got); n != want {
		t.Fatalf("nodes without a pinned key delivered %d of %d matches", n, want)
	}
}

// TestClusterMetrics: per-node metrics arrive over the wire and merge;
// the latency estimators sampled inside each node survive the transport.
func TestClusterMetrics(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300").WithShards(6)
	got, ing := runTCP(t, row, []int{2, 2, 2})
	m := ing.Metrics()
	// Events of a type the pattern does not read reach no node.
	skip := elided(row.Specs[0].Pattern, row.Events)
	if skip == 0 || m.Events+skip != uint64(len(row.Events)) {
		t.Fatalf("merged Events = %d + %d elided, want %d, some elided", m.Events, skip, len(row.Events))
	}
	if m.Matches != uint64(len(got)) {
		t.Fatalf("merged Matches = %d, delivered %d", m.Matches, len(got))
	}
	per := ing.NodeMetrics()
	if len(per) != 3 {
		t.Fatalf("%d node metrics", len(per))
	}
	var sum uint64
	active := 0
	for _, pm := range per {
		sum += pm.Events
		if pm.Events > 0 {
			active++
		}
	}
	if sum != m.Events {
		t.Fatalf("per-node events sum %d != merged %d", sum, m.Events)
	}
	if active < 2 {
		t.Fatalf("only %d nodes saw events; placement not spreading", active)
	}
	if m.QueueWait.Count() != m.Events {
		t.Fatalf("queue-wait samples %d, want one per event offered, %d", m.QueueWait.Count(), m.Events)
	}
	if m.DetectTime.Count() == 0 || m.DetectTime.Quantile(0.99) <= 0 {
		t.Fatal("detection-time estimator did not survive the wire")
	}
	if ing.Nodes() != 3 || ing.TotalShards() != 6 {
		t.Fatal("Nodes/TotalShards accessors wrong")
	}
}

// TestDeliveredCountsWhatOpens: the matches Metrics reports are the ones
// the consumer received. A match that does not open at the emission
// boundary is reported as an error, and neither delivered nor counted;
// a consumer of sealed tags is handed, and counted, every tag.
func TestDeliveredCountsWhatOpens(t *testing.T) {
	good := wire.AppendMatchBody(nil, &match.Match{})
	bad := append(slices.Clone(good), 7) // a trailing byte: does not decode
	for _, sealed := range []bool{false, true} {
		in := &Ingress{}
		got := 0
		deliver := in.deliverer(IngressOptions{OnTagged: func(shard.Tagged) { got++ }}, sealed)
		deliver(shard.Tagged{Seq: 1, Pattern: 3, Enc: good})
		deliver(shard.Tagged{Seq: 2, Pattern: 3, Enc: bad})
		want := 1
		if sealed {
			want = 2
		}
		if got != want || in.delivered[3] != uint64(want) {
			t.Fatalf("sealed=%v: consumer got %d, counted %d, want %d", sealed, got, in.delivered[3], want)
		}
		if (in.Err() == nil) == !sealed {
			t.Fatalf("sealed=%v: error %v", sealed, in.Err())
		}
	}
}

// elided counts the events of a type pat does not read: the ingress
// routes them to no shard, so no node counts them.
func elided(pat *pattern.Pattern, evs []event.Event) uint64 {
	reads := multi.ReadsOf(multi.Solo(pat, engine.Config{}))
	var n uint64
	for i := range evs {
		if !reads.Has(evs[i].Type) {
			n++
		}
	}
	return n
}

package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/shard"
	"acep/internal/wire"
)

// keyedWorkload mirrors the shard-layer exactness tests: a small keyed
// stream with a regime shift, so every node's engines adapt mid-stream
// while being checked for exactness.
func keyedWorkload(t *testing.T, dataset string) *gen.Workload {
	t.Helper()
	switch dataset {
	case "traffic":
		return gen.Traffic(gen.TrafficConfig{
			Types: 6, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 4,
		})
	case "stocks":
		return gen.Stocks(gen.StocksConfig{
			Types: 6, Events: 5000, Seed: 23, MeanGap: 3, DriftEvery: 300, Keys: 8,
		})
	default:
		t.Fatalf("unknown dataset %s", dataset)
		return nil
	}
}

// tagRecorder canonicalizes a tagged-match stream: the wire encoding of
// every match in delivery order. Byte equality of two recordings means
// identical match sets in identical order, down to every attribute bit.
type tagRecorder struct {
	buf  []byte
	n    int
	keys []string
}

func (r *tagRecorder) rec(t shard.Tagged) {
	r.buf = wire.AppendMatchRecord(r.buf, 0, t.Seq, 0, wire.AppendMatchBody(nil, t.M))
	r.keys = append(r.keys, t.M.Key())
	r.n++
}

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

// runSharded is the single-process reference: the shard engine at the
// given total shard count.
func runSharded(t *testing.T, w *gen.Workload, kind gen.Kind, shards int) *tagRecorder {
	t.Helper()
	pat, err := w.Pattern(kind, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	rec := &tagRecorder{}
	eng, err := shard.New(pat, engine.Config{CheckEvery: 250}, shard.Options{
		Shards: shards, Batch: 128, KeyAttr: "key", Schema: w.Schema,
		OnTagged: rec.rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	return rec
}

// runClusterTCP runs the workload through a loopback-TCP cluster of
// len(shardsPerNode) worker nodes and returns the recording plus the
// ingress (for metrics assertions).
func runClusterTCP(t *testing.T, w *gen.Workload, kind gen.Kind, shardsPerNode []int) (*tagRecorder, *Ingress) {
	t.Helper()
	return runClusterTCPAs(t, w, kind, shardsPerNode, false)
}

// runClusterTCPAs is runClusterTCP with the choice of entry point: asSet
// submits the pattern as Options.Patterns of one instead of through
// NewIngress's pattern argument (the nodes stay configured with the
// pattern either way, so their fingerprints must accept both).
func runClusterTCPAs(t *testing.T, w *gen.Workload, kind gen.Kind, shardsPerNode []int, asSet bool) (*tagRecorder, *Ingress) {
	t.Helper()
	pat, err := w.Pattern(kind, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, len(shardsPerNode))
	conns := make([]Conn, len(shardsPerNode))
	for i, shards := range shardsPerNode {
		node, err := NewNode(NodeConfig{
			Pattern: pat,
			Engine:  engine.Config{CheckEvery: 250},
			Shards:  shards,
			Batch:   128,
			KeyAttr: "key",
			Schema:  w.Schema,
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
	rec := &tagRecorder{}
	opts := IngressOptions{Batch: 128, KeyAttr: "key", Schema: w.Schema, OnTagged: rec.rec}
	if asSet {
		opts.Patterns, pat = multi.Solo(pat, engine.Config{}), nil
	}
	ing, err := NewIngress(pat, conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		ing.Process(&w.Events[i])
	}
	if err := ing.Finish(); err != nil {
		t.Fatalf("ingress finish: %v", err)
	}
	for range shardsPerNode {
		if err := <-serveErr; err != nil {
			t.Fatalf("node serve: %v", err)
		}
	}
	return rec, ing
}

// TestClusterTCPByteIdentical is the layer's central exactness property
// (and the PR's acceptance criterion): a 3-node loopback-TCP cluster
// must deliver a byte-identical match stream, in the identical
// deterministic order, to the single-process sharded engine with the
// same global shard count — across pattern families including negation,
// Kleene closure and composite (OR) patterns, on both workload regimes.
func TestClusterTCPByteIdentical(t *testing.T) {
	shardsPerNode := []int{2, 2, 2} // 3 nodes hosting global shards 0..5
	for _, dataset := range []string{"traffic", "stocks"} {
		w := keyedWorkload(t, dataset)
		for _, kind := range []gen.Kind{gen.Sequence, gen.Negation, gen.Kleene, gen.Composite} {
			want := runSharded(t, w, kind, 6)
			if want.n == 0 {
				t.Fatalf("%s/%v: reference produced no matches; test is vacuous", dataset, kind)
			}
			got, ing := runClusterTCP(t, w, kind, shardsPerNode)
			if !bytes.Equal(got.buf, want.buf) {
				i := 0
				for i < len(got.keys) && i < len(want.keys) && got.keys[i] == want.keys[i] {
					i++
				}
				t.Fatalf("%s/%v: cluster stream diverges from sharded reference (%d vs %d matches, first divergence at %d)",
					dataset, kind, got.n, want.n, i)
			}
			if m := ing.Metrics(); m.EventsArrived != uint64(len(w.Events)) {
				t.Fatalf("%s/%v: cluster metrics saw %d events, stream has %d", dataset, kind, m.EventsArrived, len(w.Events))
			}
			// One more input: the same pattern as Options.Patterns of one
			// must deliver the identical wire bytes.
			if asSet, _ := runClusterTCPAs(t, w, kind, shardsPerNode, true); !bytes.Equal(asSet.buf, got.buf) {
				t.Fatalf("%s/%v: set of one diverges from the pattern argument (%d vs %d matches)",
					dataset, kind, asSet.n, got.n)
			}
		}
	}
}

// TestClusterHeterogeneousNodes: nodes may host different shard counts;
// the match set must still equal the single-threaded engine's.
func TestClusterHeterogeneousNodes(t *testing.T) {
	w := keyedWorkload(t, "traffic")
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	var want []*match.Match
	ref, err := engine.New(pat, engine.Config{CheckEvery: 250, OnMatch: func(m *match.Match) { want = append(want, m) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		ref.Process(&w.Events[i])
	}
	ref.Finish()
	wantKeys := oracle.Keys(want)
	if len(wantKeys) == 0 {
		t.Fatal("reference produced no matches")
	}

	rec, _ := runClusterTCP(t, w, gen.Sequence, []int{1, 3, 2})
	if !reflect.DeepEqual(sorted(rec.keys), wantKeys) {
		t.Fatalf("heterogeneous cluster: %d matches vs single-threaded %d", rec.n, len(wantKeys))
	}
}

// TestClusterLocalPipes: Spawn's in-process nodes, each behind a
// loopback Pipe, deliver the single-process stream across node counts,
// and reruns deliver the identical order (determinism).
func TestClusterLocalPipes(t *testing.T) {
	w := keyedWorkload(t, "traffic")
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := runSharded(t, w, gen.Sequence, 4)
	run := func(nodes, shardsPer int) *tagRecorder {
		rec := &tagRecorder{}
		ing := spawnCluster(t, pat, nodes, NodeConfig{
			Pattern: pat, Schema: w.Schema, Engine: engine.Config{CheckEvery: 250},
			Shards: shardsPer, Batch: 128, KeyAttr: "key",
		}, IngressOptions{Batch: 128, KeyAttr: "key", Schema: w.Schema, OnTagged: rec.rec})
		for i := range w.Events {
			ing.Process(&w.Events[i])
		}
		if err := ing.Finish(); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	// 1×4, 2×2 and 4×1 all realize the same global 4-shard layout, so
	// all three must reproduce the single-process byte stream.
	for _, layout := range []struct{ nodes, per int }{{1, 4}, {2, 2}, {4, 1}} {
		got := run(layout.nodes, layout.per)
		if !bytes.Equal(got.buf, want.buf) {
			t.Fatalf("%d nodes × %d shards: stream diverges from 4-shard reference (%d vs %d matches)",
				layout.nodes, layout.per, got.n, want.n)
		}
	}
	// Determinism: reruns of one layout are byte-identical.
	a, b := run(2, 2), run(2, 2)
	if !bytes.Equal(a.buf, b.buf) {
		t.Fatal("rerun delivered a different stream")
	}
}

// TestClusterMetrics: per-node metrics arrive over the wire and merge;
// the latency estimators sampled inside each node survive the transport.
func TestClusterMetrics(t *testing.T) {
	w := keyedWorkload(t, "traffic")
	rec, ing := runClusterTCP(t, w, gen.Sequence, []int{2, 2, 2})
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	m := ing.Metrics()
	// Events of a type the pattern does not read reach no node.
	skip := elided(pat, w.Events)
	if skip == 0 || m.Events+skip != uint64(len(w.Events)) {
		t.Fatalf("merged Events = %d + %d elided, want %d, some elided", m.Events, skip, len(w.Events))
	}
	if m.Matches != uint64(rec.n) {
		t.Fatalf("merged Matches = %d, delivered %d", m.Matches, rec.n)
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

func sorted(keys []string) []string {
	out := append([]string(nil), keys...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

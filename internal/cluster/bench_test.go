package cluster

import (
	"fmt"
	"testing"

	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/shard"
)

// BenchmarkClusterIngest measures the wire-to-match ingest path end to
// end: one full cluster run (handshake, batch cuts, merge, finish) per
// iteration over a small keyed workload, two nodes behind loopback pipes
// (delta encode, zero-copy decode into the node's arena, owned-emit match
// bytes back), on two streams: one of the three types the pattern reads,
// where the ingress routes every event, and one of six, where it routes
// the three it reads and elides the rest. The ns/event metric is the
// per-event cluster overhead; CI runs this as a smoke (benchtime=10x),
// not a measurement.
func BenchmarkClusterIngest(b *testing.B) {
	for _, types := range []int{3, 6} {
		w := gen.Traffic(gen.TrafficConfig{
			Types: types, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 4,
		})
		pat, err := w.Pattern(gen.Sequence, 3, 300)
		if err != nil {
			b.Fatal(err)
		}
		// run drives one cluster over conns through the workload and
		// counts what it delivers.
		run := func(b *testing.B, conns []Conn, matches *int) {
			ing, err := NewIngress(pat, conns, IngressOptions{
				Batch: 128, KeyAttr: "key", Schema: w.Schema,
				OnTagged: func(shard.Tagged) { *matches++ },
			})
			if err != nil {
				b.Fatal(err)
			}
			for j := range w.Events {
				ing.Process(&w.Events[j])
			}
			if err := ing.Finish(); err != nil {
				b.Fatal(err)
			}
		}
		report := func(b *testing.B, matches int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.Events)), "ns/event")
			if matches == 0 {
				b.Fatal("cluster ingest benchmark detected no matches")
			}
		}
		node := func(b *testing.B) *Node {
			node, err := NewNode(NodeConfig{
				Pattern: pat, Engine: engine.Config{CheckEvery: 250},
				Shards: 2, Batch: 128, KeyAttr: "key", Schema: w.Schema,
			})
			if err != nil {
				b.Fatal(err)
			}
			return node
		}

		b.Run(fmt.Sprintf("types=%d", types), func(b *testing.B) {
			var matches int
			for i := 0; i < b.N; i++ {
				const nodes = 2
				conns := make([]Conn, nodes)
				serveErr := make(chan error, nodes)
				for n := range conns {
					nd := node(b)
					client, server := Pipe()
					go func() { serveErr <- nd.Serve(server) }()
					conns[n] = client
				}
				run(b, conns, &matches)
				for n := 0; n < nodes; n++ {
					if err := <-serveErr; err != nil {
						b.Fatal(err)
					}
				}
			}
			report(b, matches)
		})
	}
}

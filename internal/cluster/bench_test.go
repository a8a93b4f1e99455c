package cluster

import (
	"testing"

	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/shard"
)

// BenchmarkClusterIngest measures the wire-to-match ingest path end to
// end: one full cluster run (handshake, batch cuts, merge, finish) per
// iteration over a small keyed workload, on both transports — the
// in-process pipe (frames by reference) and loopback TCP (the
// serializing path: delta encode, zero-copy decode into the node's
// arena, owned-emit match bytes back). The ns/event
// metric is the per-event cluster overhead; CI runs this as a smoke
// (benchtime=10x), not a measurement.
func BenchmarkClusterIngest(b *testing.B) {
	w := gen.Traffic(gen.TrafficConfig{
		Types: 6, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 4,
	})
	pat, err := w.Pattern(gen.Sequence, 3, 300)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("pipe", func(b *testing.B) {
		var matches int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ing, err := StartLocal(pat, engine.Config{CheckEvery: 250}, LocalConfig{
				Nodes: 2, ShardsPerNode: 2, Batch: 128,
				KeyAttr: "key", Schema: w.Schema,
				OnTagged: func(shard.Tagged) { matches++ },
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
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.Events)), "ns/event")
		if matches == 0 {
			b.Fatal("cluster ingest benchmark detected no matches")
		}
	})

	b.Run("tcp", func(b *testing.B) {
		var matches int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			const nodes = 2
			conns := make([]Conn, nodes)
			serveErr := make(chan error, nodes)
			for n := 0; n < nodes; n++ {
				node, err := NewNode(NodeConfig{
					Pattern: pat, Engine: engine.Config{CheckEvery: 250},
					Shards: 2, Batch: 128, KeyAttr: "key", Schema: w.Schema,
				})
				if err != nil {
					b.Fatal(err)
				}
				l, err := ListenTCP("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
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
				if conns[n], err = DialTCP(l.Addr()); err != nil {
					b.Fatal(err)
				}
			}
			ing, err := NewIngress(pat, conns, IngressOptions{
				Batch: 128, KeyAttr: "key", Schema: w.Schema,
				OnTagged: func(shard.Tagged) { matches++ },
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
			for n := 0; n < nodes; n++ {
				if err := <-serveErr; err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.Events)), "ns/event")
		if matches == 0 {
			b.Fatal("cluster ingest benchmark detected no matches")
		}
	})
}

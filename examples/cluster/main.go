// Cluster: distributed key-partitioned detection. The sharded engine
// scales within one process; the cluster layer scales the same design
// across worker nodes behind an ingress coordinator. The ingress
// partitions the keyed stream across nodes with the same consistent
// placement the shard layer uses locally, drives uniform watermark cuts
// (nodes whose partitions are momentarily idle still advance), and
// merges the node match streams into one deterministic order — for
// key-partitionable patterns the delivered stream is byte-identical to
// the single-process sharded engine's.
//
// This demo spawns the worker nodes in-process (ClusterConfig.Local:
// loopback sockets, zero setup). The same ingress drives remote TCP
// workers: start them with
//
//	acep-node -listen 127.0.0.1:7101 -in keyed.csv -kind sequence -size 4 -shards 2
//
// and replace Local with Remote: &acep.ClusterRemote{Connect: addresses}.
// Each remote worker picks its own shard count (acep-node -shards) and
// engine configuration, so Remote has no field for them.
package main

import (
	"fmt"
	"time"

	"acep"
)

func main() {
	w := acep.NewTrafficWorkload(acep.TrafficConfig{
		Types:  8,
		Events: 200000,
		Seed:   42,
		Shifts: 3,
		Keys:   32, // 32 distinct vehicles → a "key" attribute on every event
	})
	pat, err := w.Pattern(acep.SequencePatterns, 4, 2*acep.Second)
	if err != nil {
		panic(err)
	}
	fmt.Println("pattern:", pat)

	// Reference: the single-process sharded engine at 6 shards.
	var refMatches uint64
	ref, err := acep.NewShardedEngine(pat, acep.Config{}, acep.ShardedConfig{
		Shards: 6, KeyAttr: "key", Schema: w.Schema,
		OnMatch: func(*acep.Match) { refMatches++ },
	})
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for i := range w.Events {
		ref.Process(&w.Events[i])
	}
	ref.Finish()
	fmt.Printf("sharded reference: 6 shards, %d matches, %9.0f ev/s\n\n",
		refMatches, float64(len(w.Events))/time.Since(start).Seconds())

	// The same layout distributed: 1, 2 and 3 nodes covering 6 global
	// shards between them. Every layout must detect the identical match
	// set, in the identical order.
	for _, nodes := range []int{1, 2, 3} {
		var matches uint64
		ing, err := acep.NewClusterIngress(pat, acep.ClusterConfig{
			Local:   &acep.ClusterLocal{Nodes: nodes, ShardsPerNode: 6 / nodes},
			KeyAttr: "key",
			Schema:  w.Schema,
			OnMatch: func(*acep.Match) { matches++ },
		})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := range w.Events {
			ing.Process(&w.Events[i])
		}
		if err := ing.Finish(); err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		m := ing.Metrics()
		fmt.Printf("cluster: %d node(s) × %d shards  %9.0f ev/s  matches=%d  queue-wait p99=%v\n",
			nodes, 6/nodes, float64(len(w.Events))/elapsed.Seconds(), matches,
			time.Duration(m.QueueWait.Quantile(0.99)).Round(time.Microsecond))
		if matches != refMatches {
			panic("distribution changed the match set")
		}
	}
	fmt.Println("\nEvery layout detects the identical match set; each node's engines adapt")
	fmt.Println("independently, exactly as the paper's per-partition argument (§7) allows.")
}

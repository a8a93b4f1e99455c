// Command acep-node runs a cluster worker node: it hosts a block of
// shard engines behind a TCP listener and serves ingress sessions
// (cmd/acep-run -connect, or any cluster.Ingress). Incoming batch
// frames decode zero-copy into a per-session event arena and matches
// are emitted as pre-encoded wire bytes from the shard workers (see
// DESIGN.md "Wire-to-match data flow"). With -in, the node is
// configured with the same workload schema and pattern as the ingress —
// the handshake compares fingerprints and refuses to pair otherwise —
// so both sides point -in at the same CSV (only the header is needed
// here; the events stay at the ingress).
//
//	acep-gen -dataset traffic -keys 64 -o keyed.csv
//	acep-node -listen 127.0.0.1:7101 -in keyed.csv -kind sequence -size 4 -shards 2 &
//	acep-node -listen 127.0.0.1:7102 -in keyed.csv -kind sequence -size 4 -shards 2 &
//	acep-run  -in keyed.csv -kind sequence -size 4 -connect 127.0.0.1:7101,127.0.0.1:7102
//
// Without -in, the node runs bare: it serves any ingress, adopting the
// pattern and schema shipped in the handshake. Either way the node
// partitions by the key the handshake ships, and -key only pins it: an
// ingress keyed on another attribute is refused. A bare node is also the
// standby of the failover subsystem — point acep-run's -standby at it
// and it adopts a dead worker's shard block on demand:
//
//	acep-node -listen 127.0.0.1:7190 &
//	acep-run -in keyed.csv -connect ... -recover -standby 127.0.0.1:7190
//
// Coordinator epochs: every ingress session declares its coordinator
// epoch in the handshake, and the node latches the highest epoch it has
// served. When a replicated coordinator (acep-run -ha) fails over, the
// successor re-dials at epoch+1 and the node fences the dead primary —
// a partitioned old coordinator that reconnects at a lower epoch is
// refused rather than allowed to split the match stream.
//
// Overload control applies at the node's ingress: -shed picks the
// shedding policy each local shard engine runs with (budgets: -shed-pms,
// -shed-rate, and the -shed-wait p99 queue-wait latency target), and
// -queue-cap bounds the local ingestion queues (-overflow drop makes
// them lossy instead of backpressuring the network reader).
//
// The pattern and engine flags are acep-run's, declared once in
// internal/cli with the same names, defaults and help text.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"acep/internal/cli"
	"acep/internal/cluster"
	"acep/internal/stream"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "TCP address to serve ingress sessions on")
		in       = flag.String("in", "", "workload CSV whose schema/pattern this node serves; empty runs a bare node that adopts the ingress's shipped pattern (standby mode)")
		buildPat = cli.PatternFlags(flag.CommandLine)
		engFlags = cli.EngineFlags(flag.CommandLine)
		batch    = flag.Int("batch", 0, "local handoff batch (0 = default)")
		keyAttr  = flag.String("key", "key", "partition-key attribute this node pins: the ingress refuses a session keyed on another (empty: any)")
		once     = flag.Bool("once", false, "serve a single ingress session and exit")
	)
	flag.Parse()
	nc, err := engFlags.Node()
	if err != nil {
		fail(err)
	}
	nc.Batch, nc.KeyAttr = *batch, *keyAttr
	// With -in the node pins pattern and schema (the handshake
	// fingerprint-checks them against the ingress); without it the node
	// is bare and adopts whatever the ingress ships.
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		w, err := stream.ReadCSV(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if nc.Pattern, err = buildPat(w); err != nil {
			fail(err)
		}
		nc.Schema = w.Schema
	}
	node, err := cluster.NewNode(nc)
	if err != nil {
		fail(err)
	}

	l, err := cluster.ListenTCP(*listen)
	if err != nil {
		fail(err)
	}
	if nc.Pattern != nil {
		log.Printf("acep-node: serving %d shard(s) of %s on %s", nc.Shards, nc.Pattern, l.Addr())
	} else {
		log.Printf("acep-node: bare node (standby) with %d shard(s) on %s", nc.Shards, l.Addr())
	}
	if *once {
		c, err := l.Accept()
		if err != nil {
			fail(err)
		}
		if err := node.Serve(c); err != nil {
			fail(err)
		}
		log.Printf("acep-node: session complete")
		return
	}
	err = node.ServeListener(l, func(err error) {
		log.Printf("acep-node: session error: %v", err)
	})
	fail(err)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "acep-node: %v\n", err)
	os.Exit(1)
}

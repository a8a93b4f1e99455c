// Command acep-standby runs an out-of-process coordinator standby: the
// mirror side of the HA replication link (internal/ha.StandbyServer)
// behind a TCP listener. A replicated coordinator (acep-run -ha with
// -standby-addr pointing here) streams every sealed cut, owner table
// and emission boundary into this process; on primary death a takeover
// successor pulls the mirrored state back out over the same listener
// with the Handover exchange and resumes the stream byte-identically.
//
// The standby needs no pattern, schema or workload knowledge: the
// primary's opening Epoch frame carries the pattern window, the mirror
// journal runs at the journal defaults otherwise, and everything else
// arrives as self-describing wire frames. One binary serves any workload.
//
//	acep-standby -listen 127.0.0.1:7200 &
//	acep-run -in keyed.csv -connect ... -ha -standby-addr 127.0.0.1:7200
//
// The server keeps serving until killed: first the replication
// session, then any number of handover reads, then the next run's
// replication session — so one long-lived standby process covers
// successive runs and stays readable for late takeovers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"acep/internal/cluster"
	"acep/internal/ha"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:0", "TCP address to serve the replication link on")
		quiet  = flag.Bool("quiet", false, "suppress session lifecycle logging")
	)
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("acep-standby ")

	l, err := cluster.ListenTCP(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acep-standby: %v\n", err)
		os.Exit(1)
	}
	srv := ha.NewStandbyServer(l)
	if !*quiet {
		srv.Logf = log.Printf
	}
	log.Printf("mirroring on %s", l.Addr())
	srv.Serve()
	cuts, events := srv.Stats()
	log.Printf("exit: %d cuts, %d events mirrored", cuts, events)
}

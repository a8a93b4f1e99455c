package cluster

import (
	"io"
	"testing"
	"time"

	"acep/internal/chaos"
	recovery "acep/internal/recover"
	"acep/internal/rungtest"
	"acep/internal/wire"
)

// laggard is a node's end of a link whose every Send waits behind a chaos
// delay, so the node's watermark trails its peers'. It embeds the stream
// connection, so the node still finds the transport's probes.
type laggard struct {
	*streamConn
	delay *chaos.Wrapper // wraps the same connection
}

func (l laggard) Send(f wire.Frame) error { return l.delay.Send(f) }

// TestReaderHoldsTwoRuns: one of two nodes answers every cut late, so the
// other node's results wait behind its watermark. The fast node's reader
// makes its runsPerReader runs and no more — the rest of that node's
// results wait in its socket — and the merged stream is still the
// reference's.
func TestReaderHoldsTwoRuns(t *testing.T) {
	row := rungtest.Lookup(t, "dense/sequence").WithShards(2)
	want := rungtest.Reference(t, row)
	pat := row.Specs[0].Pattern
	serveErr := make(chan error, 2)
	conns := make([]Conn, 2)
	for i := range conns {
		node, err := NewNode(NodeConfig{Pattern: pat, Schema: row.Schema, Engine: row.Config, Shards: 1, Batch: row.Batch, KeyAttr: "key"})
		if err != nil {
			t.Fatal(err)
		}
		client, server := Pipe()
		if i == 1 {
			sc := server.(*streamConn)
			server = laggard{sc, chaos.Wrap(sc, chaos.Config{Seed: 1, DelayProb: 1, MaxDelay: 2 * time.Millisecond})}
		}
		go func() { serveErr <- node.Serve(server) }()
		conns[i] = client
	}
	var rec rungtest.Recorder
	ing, err := NewIngress(pat, conns, IngressOptions{Batch: row.Batch, KeyAttr: "key", Schema: row.Schema, OnTagged: rec.Tagged})
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		ing.Process(&row.Events[i])
	}
	if err := rungtest.Finish(t, ing.Finish); err != nil {
		t.Fatal(err)
	}
	for range conns {
		if err := <-serveErr; err != nil {
			t.Fatalf("node serve: %v", err)
		}
	}
	rungtest.Require(t, "behind a lagging node", rec.Stream(), want)
	if made := ing.slots[0].made; made > runsPerReader {
		t.Fatalf("the fast node's reader made %d runs, want at most %d", made, runsPerReader)
	}
}

// TestParkedReaderStaysLive: a peer goes silent (its cuts are swallowed),
// so the merge stops and the other node's reader waits on its second run
// for as long as the heartbeat detector takes to fail the peer. The
// waiting reader reads on at half the timeout, so its own node, which is
// live, is never failed: the one failover is the silent node's, and the
// stream is the reference's.
func TestParkedReaderStaysLive(t *testing.T) {
	row := rungtest.Lookup(t, "dense/sequence").WithShards(2)
	want := rungtest.Reference(t, row)
	rig := startRig(t, row, 1, func(i int, c Conn) Conn {
		if i == 1 {
			return &blackholeConn{Conn: c, budget: 25}
		}
		return c
	}, nil)
	rig.recOptions.HeartbeatTimeout = 150 * time.Millisecond
	got, ing := runRig(t, rig, row, nil, nil)
	rungtest.Require(t, "parked reader", got, want)
	if fos := ing.Failovers(); len(fos) != 1 || fos[0].Node != 1 {
		t.Fatalf("failovers = %+v, want one, of the silent node 1", fos)
	}
	if made := ing.slots[0].made; made <= runsPerReader {
		t.Fatalf("node 0's reader made %d runs: it never left a wait, so the merge never stopped on it", made)
	}
}

// TestReaderWaitExits drives one reader's take directly, its two runs out
// with the collector: it makes no third run until an exit — one that
// comes while it waits (a run handed back is taken instead, making none)
// or one already standing when it would wait.
func TestReaderWaitExits(t *testing.T) {
	const heartbeat = 80 * time.Millisecond
	type fixture struct {
		in   *Ingress
		s    *slot
		held *inRun
	}
	for _, tc := range []struct {
		name      string
		heartbeat bool
		before    func(f fixture) // the exit standing before the wait (nil: none)
		during    func(f fixture) // the exit that ends the wait (nil: none)
		made      int
	}{
		{name: "handed back", during: func(f fixture) { f.held.Release() }, made: runsPerReader},
		{name: "shut", during: func(f fixture) { f.s.close() }, made: runsPerReader + 1},
		{name: "suspect", during: func(f fixture) { f.in.suspect(1, f.in.slots[1], io.ErrUnexpectedEOF) }, made: runsPerReader + 1},
		{name: "suspect queued", before: func(f fixture) {
			f.in.suspects = append(f.in.suspects, suspectRec{node: 1, s: f.in.slots[1]})
		}, made: runsPerReader + 1},
		{name: "migration unacknowledged", before: func(f fixture) {
			f.in.migrations = append(f.in.migrations, recovery.Migration{Shard: 1, To: 0})
		}, made: runsPerReader + 1},
		{name: "heartbeat", heartbeat: true, made: runsPerReader + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, peer := Pipe()
			defer c.Close()
			defer peer.Close()
			in := &Ingress{rouse: make(chan struct{})}
			s := &slot{conn: c, quit: make(chan struct{}), back: make(chan *inRun, runsPerReader)}
			in.slots = []*slot{s, {}}
			if tc.heartbeat {
				in.rec.HeartbeatTimeout = heartbeat
				s.bound = time.NewTimer(heartbeat)
				s.bound.Stop()
			}
			var held *inRun
			for range runsPerReader {
				held = in.take(s) // posted: the collector has them
			}
			f := fixture{in, s, held}
			if tc.before != nil {
				tc.before(f)
			}
			took := make(chan *inRun, 1)
			start := time.Now()
			go func() { took <- in.take(s) }()
			if tc.during != nil {
				select {
				case <-took:
					t.Fatalf("took a run with %d out and no exit", runsPerReader)
				case <-time.After(50 * time.Millisecond):
				}
				tc.during(f)
			}
			select {
			case r := <-took:
				if tc.heartbeat && time.Since(start) < heartbeat/2 {
					t.Fatalf("left the wait after %v, before half the heartbeat timeout", time.Since(start))
				}
				if tc.made == runsPerReader && r != held {
					t.Fatal("the wait did not return the run handed back")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the reader is still waiting")
			}
			if s.made != tc.made {
				t.Fatalf("made %d runs, want %d", s.made, tc.made)
			}
		})
	}
}

package ha

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"acep/internal/chaos"
	"acep/internal/cluster"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/rungtest"
	"acep/internal/shard"
)

// haRig launches worker node processes (ServeListener on loopback TCP)
// plus a pool of bare standby workers, returning their addresses. Fresh
// nodes per call: a worker process latches the highest coordinator
// epoch it has served, so rigs are never shared between runs.
type haRig struct {
	workers  []string
	standbys []string
	mu       sync.Mutex
	errs     []error
}

func (r *haRig) noteErr(err error) {
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
}

func startHARig(t *testing.T, row rungtest.Row, standbys int) *haRig {
	t.Helper()
	rig := &haRig{}
	start := func(configured bool) string {
		cfg := cluster.NodeConfig{Engine: row.Config, Batch: row.Batch, KeyAttr: "key"}
		if configured {
			cfg.Pattern, cfg.Schema, cfg.Shards = row.Specs[0].Pattern, row.Schema, row.Shards/row.Nodes()
		}
		node, err := cluster.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := cluster.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go node.ServeListener(l, rig.noteErr) //nolint:errcheck // closed at test end
		return l.Addr()
	}
	for range row.Nodes() {
		rig.workers = append(rig.workers, start(true))
	}
	for range standbys {
		rig.standbys = append(rig.standbys, start(false))
	}
	return rig
}

// pairConfig is the configuration every pair under test starts from: the
// rig's workers and pool, the row's cuts, and the pair's own lease
// arbiter at a 300 ms TTL, so a takeover waits little for the dead
// primary's grant to lapse.
func (r *haRig) pairConfig(row rungtest.Row, onTagged func(shard.Tagged)) Config {
	return Config{
		Pattern: row.Specs[0].Pattern, Schema: row.Schema, KeyAttr: "key", Batch: row.Batch,
		Workers: r.workers, Standbys: r.standbys, OnTagged: onTagged,
		LeaseTTL: 300 * time.Millisecond,
	}
}

// runPair streams the row through a replicated pair, invoking the `at`
// hooks just before the given event indexes (on the feed goroutine, the
// calling contract of KillPrimary and friends).
func runPair(t *testing.T, rig *haRig, row rungtest.Row,
	wrap func(i int, c cluster.Conn) cluster.Conn, at map[int]func(*Pair)) (rungtest.Stream, *Pair) {
	t.Helper()
	var rec rungtest.Recorder
	p := runPairFeed(t, rig, row, &rec, wrap, func(p *Pair) {
		for i := range row.Events {
			if fn, ok := at[i]; ok {
				fn(p)
			}
			p.Process(&row.Events[i])
		}
	})
	return rec.Stream(), p
}

// runPairFeed is runPair with the recorder and the feed loop the caller's.
func runPairFeed(t *testing.T, rig *haRig, row rungtest.Row, rec *rungtest.Recorder,
	wrap func(i int, c cluster.Conn) cluster.Conn, feed func(*Pair)) *Pair {
	t.Helper()
	cfg := rig.pairConfig(row, rec.Tagged)
	cfg.wrapWorker = wrap
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(p)
	if err := rungtest.Finish(t, p.Finish); err != nil {
		t.Fatalf("pair finished with error: %v", err)
	}
	return p
}

// TestTable runs the table's rows of one pattern on a replicated pair
// over loopback-TCP workers, row.Nodes() of them, with no fault: the
// emission gate, the lease commit and the replication link in the path
// of every match.
func TestTable(t *testing.T) {
	rungtest.Run(t, rungtest.Rung{Name: "pair", Expect: rungtest.Pair, Run: func(t *testing.T, row rungtest.Row, rec *rungtest.Recorder) rungtest.Metrics {
		p := runPairFeed(t, startHARig(t, row, 0), row, rec, nil, func(p *Pair) {
			for i := range row.Events {
				if op, ok := row.Ops[i]; ok {
					if err := p.Ingress().MigrateShard(op.Migrate.Shard, op.Migrate.To); err != nil {
						t.Fatal(err)
					}
				}
				p.Process(&row.Events[i])
			}
		})
		return rungtest.Metrics{Arrived: p.Ingress().Metrics().EventsArrived, Patterns: rungtest.ByID(p.Ingress().PatternMetrics())}
	}})
}

// waitFor polls cond until it holds, and fails the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
	}
}

// waitMirroredEmission blocks until the in-process standby has mirrored a
// nonzero emission boundary from the primary.
func waitMirroredEmission(t *testing.T, p *Pair) {
	t.Helper()
	waitFor(t, "the standby mirroring an emission boundary", func() bool {
		p.srv.mu.Lock()
		defer p.srv.mu.Unlock()
		return p.srv.emitted > 0
	})
}

// TestTakeoverByteIdentical is the tentpole's acceptance criterion:
// the primary coordinator is killed mid-cut (a partial cut pending,
// matches in flight at the gate) and the standby's successor resumes —
// the delivered stream must be byte-identical to the single-process
// sharded engine, across sequence, negation, Kleene and composite
// patterns on both workload regimes.
func TestTakeoverByteIdentical(t *testing.T) {
	for _, dataset := range []string{"traffic", "stocks"} {
		for _, kind := range []gen.Kind{gen.Sequence, gen.Negation, gen.Kleene, gen.Composite} {
			row := rungtest.Lookup(t, fmt.Sprintf("%s/%v", dataset, kind))
			want := rungtest.Reference(t, row)
			rig := startHARig(t, row, 0)
			got, p := runPair(t, rig, row, nil, map[int]func(*Pair){
				2500: func(p *Pair) {
					// The feed outruns the pipeline, so let the mirror
					// learn an emission boundary first: the drill is about
					// suppressing an already-delivered prefix.
					waitMirroredEmission(t, p)
					if err := p.KillPrimary(); err != nil {
						t.Fatalf("takeover failed: %v", err)
					}
				},
			})
			rungtest.Require(t, fmt.Sprintf("%s/%v", dataset, kind), got, want)
			tk := p.Takeover()
			if tk == nil {
				t.Fatalf("%s/%v: no takeover record", dataset, kind)
			}
			if tk.Epoch != 2 || tk.Workers != 3 {
				t.Fatalf("%s/%v: takeover %+v, want epoch 2 over 3 workers", dataset, kind, tk)
			}
			if tk.Boundary == 0 || tk.ReplayCuts == 0 || tk.ReplayEvents == 0 {
				t.Fatalf("%s/%v: successor replayed nothing: %+v", dataset, kind, tk)
			}
			if tk.RefedEvents == 0 {
				t.Fatalf("%s/%v: no unacknowledged tail was re-fed: %+v", dataset, kind, tk)
			}
			if tk.ResumedAt.IsZero() || tk.Pause() <= 0 {
				t.Fatalf("%s/%v: takeover never stamped its resumption: %+v", dataset, kind, tk)
			}
			if d := p.Demotion(); d != nil {
				t.Fatalf("%s/%v: healthy primary demoted before its kill: %s", dataset, kind, d.Cause)
			}
		}
	}
}

// TestPairDoesNotRetainCallerEvent: Process keeps nothing of the event it
// is handed, the refeed ring included. The caller streams the workload
// through one event.Event struct and one attribute slice, overwritten as
// soon as Process returns, and the primary is killed mid-stream: the
// successor re-feeds the unacknowledged tail from the ring, so a ring
// that aliased the caller's slice would re-feed every event with the
// attribute values of the last one fed.
func TestPairDoesNotRetainCallerEvent(t *testing.T) {
	// Dense on purpose — a match every few events — so the few dozen
	// events of the unacknowledged tail are certain to sit in some.
	row := rungtest.Lookup(t, "dense/sequence")
	want := rungtest.Reference(t, row)
	var got rungtest.Recorder
	p := runPairFeed(t, startHARig(t, row, 0), row, &got, nil, func(p *Pair) {
		var ev event.Event
		attrs := make([]float64, 0, 16)
		for i := range row.Events {
			if i == 40*64-1 { // the open cut (Batch 64) is one event short of sealing
				waitMirroredEmission(t, p)
				if err := p.KillPrimary(); err != nil {
					t.Fatalf("takeover failed: %v", err)
				}
			}
			src := &row.Events[i]
			attrs = append(attrs[:0], src.Attrs...)
			ev = event.Event{Type: src.Type, TS: src.TS, Seq: src.Seq, Attrs: attrs}
			p.Process(&ev)
			for k := range attrs {
				attrs[k] = math.NaN() // the caller's scratch is the caller's again
			}
		}
	})
	if tk := p.Takeover(); tk == nil || tk.RefedEvents == 0 {
		t.Fatalf("no unacknowledged tail was re-fed (%+v); test is vacuous", tk)
	}
	rungtest.Require(t, "reused event across a takeover", got.Stream(), want)
}

// TestRingTrimsAtEachCut: the refeed ring is trimmed at every cut, not
// once it outgrows a threshold. Two cuts fed and acknowledged, a third
// fed: the ring holds the third alone. Over the rest of the stream it
// never holds more than the flow-control window plus the open cut, and
// the stream stays exact.
func TestRingTrimsAtEachCut(t *testing.T) {
	row := rungtest.Lookup(t, "stocks/sequence")
	want := rungtest.Reference(t, row)
	rig := startHARig(t, row, 0)
	const batch = 64 // pairConfig's
	var got rungtest.Recorder
	runPairFeed(t, rig, row, &got, nil, func(p *Pair) {
		for i := range 2 * batch {
			p.Process(&row.Events[i])
		}
		waitFor(t, "the standby acknowledging the second cut", func() bool {
			return p.g.ackedSeq() >= row.Events[2*batch-1].Seq
		})
		for i := 2 * batch; i < 3*batch; i++ {
			p.Process(&row.Events[i])
		}
		if n := p.ring.Len(); n > batch {
			t.Fatalf("ring holds %d events after the third cut, want at most the %d of that cut", n, batch)
		}
		for i := 3 * batch; i < len(row.Events); i++ {
			p.Process(&row.Events[i])
			if n := p.ring.Len(); n > (replLagCuts+1)*batch {
				t.Fatalf("ring holds %d events at event %d, past replLagCuts+1 cuts (%d)", n, i, (replLagCuts+1)*batch)
			}
		}
	})
	rungtest.Require(t, "ring trimmed at each cut", got.Stream(), want)
}

// TestTakeoverMidMigration — kill matrix: the primary dies right after
// initiating a shard migration, before (and after) the mirrored owner
// table could reflect it. Either way the successor resumes from the
// table its mirror holds and the stream stays exact.
func TestTakeoverMidMigration(t *testing.T) {
	for _, killAt := range []int{2010, 2100} { // before / after the next cut mirrors the move
		row := rungtest.Lookup(t, "traffic/sequence")
		want := rungtest.Reference(t, row)
		rig := startHARig(t, row, 0)
		got, p := runPair(t, rig, row, nil, map[int]func(*Pair){
			2000: func(p *Pair) {
				if err := p.Ingress().MigrateShard(2, 0); err != nil {
					t.Fatalf("migration before the kill failed: %v", err)
				}
			},
			killAt: func(p *Pair) {
				if err := p.KillPrimary(); err != nil {
					t.Fatalf("takeover failed: %v", err)
				}
			},
		})
		rungtest.Require(t, fmt.Sprintf("mid-migration kill@%d", killAt), got, want)
		if tk := p.Takeover(); tk == nil || tk.ReplayCuts == 0 {
			t.Fatalf("kill@%d: takeover record %+v", killAt, tk)
		}
	}
}

// TestTakeoverDuringWorkerFailover — kill matrix: a worker dies first
// (its shards fail over to a pool standby on the primary), then the
// primary dies. The successor re-dials the replicated address table —
// which already points the failed slot at its adopted standby — and the
// stream stays exact end to end.
func TestTakeoverDuringWorkerFailover(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startHARig(t, row, 1)
	got, p := runPair(t, rig, row,
		func(i int, c cluster.Conn) cluster.Conn {
			if i == 1 {
				return &chaos.Flaky{C: c, Budget: 30}
			}
			return c
		},
		map[int]func(*Pair){
			2500: func(p *Pair) {
				if err := p.KillPrimary(); err != nil {
					t.Fatalf("takeover after worker failover failed: %v", err)
				}
			},
		})
	rungtest.Require(t, "takeover during worker failover", got, want)
	tk := p.Takeover()
	if tk == nil || tk.Workers != 3 {
		t.Fatalf("takeover %+v, want 3 workers re-established", tk)
	}
}

// TestStandbyKilledBeforeTakeover — kill matrix: the standby dies
// mid-run. The primary demotes at once — it can no longer prove its
// mirror is current — and, never taken over, finishes with an explicit
// error. What it delivered is a prefix of the reference stream, and
// exactly the count its lease arbiter committed.
func TestStandbyKilledBeforeTakeover(t *testing.T) {
	row := rungtest.Lookup(t, "stocks/sequence")
	want := rungtest.Reference(t, row)
	rig := startHARig(t, row, 0)
	var got rungtest.Recorder
	cfg := rig.pairConfig(row, got.Tagged)
	cfg.LeaseTTL = time.Minute // no keepalive: the arbiter's count is the gate's commits alone
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		if i == 2000 {
			// Some match must be out, or the count check below is 0 == 0.
			waitFor(t, "a delivered match", func() bool { return p.g.deliveredCount() > 0 })
			p.killStandby()
		}
		p.Process(&row.Events[i])
	}
	if d := p.Demotion(); d == nil || !strings.Contains(d.Cause, "standby killed") {
		t.Fatalf("losing the standby left demotion %+v, want one naming the standby", d)
	}
	if err := p.Finish(); err == nil || !strings.Contains(err.Error(), "demoted without takeover") {
		t.Fatalf("Finish returned %v after the standby died, want an explicit demotion error", err)
	}
	if n := len(got.Stream()); n == 0 || n > len(want) || rungtest.Diff(got.Stream(), want[:n], false) != "" {
		t.Fatalf("the demoted primary delivered %d matches, want a nonempty prefix of the %d-match reference", n, len(want))
	}
	if _, _, _, count := p.arb.State(); count != p.g.deliveredCount() {
		t.Fatalf("arbiter records %d delivered, the demoted primary delivered %d", count, p.g.deliveredCount())
	}
	if p.Takeover() != nil {
		t.Fatal("demoted run recorded a takeover")
	}
}

// TestDoubleDeath — kill matrix: the primary dies after the standby is
// already gone. No state can resume the stream; the failure must be an
// explicit error, not a hang or a silently truncated stream.
func TestDoubleDeath(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startHARig(t, row, 0)
	p, err := New(rig.pairConfig(row, func(shard.Tagged) {}))
	if err != nil {
		t.Fatal(err)
	}
	var killErr error
	for i := range row.Events {
		switch i {
		case 2000:
			p.killStandby()
		case 3000:
			killErr = p.KillPrimary()
		}
		p.Process(&row.Events[i])
	}
	if killErr == nil || !strings.Contains(killErr.Error(), "double death") {
		t.Fatalf("double death returned %v, want an explicit double-death error", killErr)
	}
	if err := p.Finish(); err == nil || !strings.Contains(err.Error(), "double death") {
		t.Fatalf("Finish returned %v after a double death", err)
	}
}

// TestFailedTakeoverTearsDown: a takeover that fails — here on a cold
// mirror, the primary killed before its first event — leaks none of the
// servers the pair spawned: once Finish has returned, neither the
// in-process standby's address nor the lease arbiter's accepts a dial.
func TestFailedTakeoverTearsDown(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	rig := startHARig(t, row, 0)
	p, err := New(rig.pairConfig(row, func(shard.Tagged) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.KillPrimary(); err == nil || !strings.Contains(err.Error(), "mirrored no cut") {
		t.Fatalf("killing the primary before its first event returned %v, want the cold-mirror error", err)
	}
	if err := p.Finish(); err == nil {
		t.Fatal("Finish after a failed takeover returned no error")
	}
	for name, addr := range map[string]string{"standby": p.standbyAddr, "lease arbiter": p.leaseAddr} {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("the %s at %s still accepts dials after a failed takeover", name, addr)
		}
	}
}

// TestTakeoverAfterControlOps — kill matrix: the primary dies a few cuts
// after a control op the sealed ingress accepts has completed, once the
// mirror holds a cut sealed two cuts past it, so the mirrored owner and
// address tables carry its result. The successor resumes from them, over
// the workers that own shards then, and the stream stays exact.
func TestTakeoverAfterControlOps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		op      func(t *testing.T, p *Pair, rig *haRig)
		workers int
	}{
		{"drain", func(t *testing.T, p *Pair, _ *haRig) {
			if err := p.Ingress().Drain(1); err != nil {
				t.Fatalf("drain: %v", err)
			}
		}, 2},
		{"add-migrate", func(t *testing.T, p *Pair, rig *haRig) {
			c, err := cluster.DialTCP(rig.standbys[0])
			if err != nil {
				t.Fatal(err)
			}
			n, err := p.Ingress().AddNode(c)
			if err != nil {
				t.Fatalf("add node: %v", err)
			}
			if err := p.Ingress().MigrateShard(2, n); err != nil {
				t.Fatalf("migrate onto the joiner: %v", err)
			}
		}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row := rungtest.Lookup(t, "traffic/sequence")
			want := rungtest.Reference(t, row)
			rig := startHARig(t, row, 1)
			var got rungtest.Recorder
			cfg := rig.pairConfig(row, got.Tagged)
			cfg.Standbys = nil // the bare node joins by AddNode, not as a failover target
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range row.Events {
				switch i {
				case 2000:
					tc.op(t, p, rig)
				case 2000 + 4*64:
					// The mirror may trail the feed by up to replLagCuts.
					after := row.Events[2000+2*64].Seq
					waitFor(t, "the mirror holding a cut past the op", func() bool {
						p.srv.mu.Lock()
						defer p.srv.mu.Unlock()
						return p.srv.lastUpTo >= after
					})
					if err := p.KillPrimary(); err != nil {
						t.Fatalf("takeover failed: %v", err)
					}
				}
				p.Process(&row.Events[i])
			}
			if err := p.Finish(); err != nil {
				t.Fatalf("finish after takeover: %v", err)
			}
			rungtest.Require(t, tc.name, got.Stream(), want)
			if tk := p.Takeover(); tk == nil || tk.Workers != tc.workers {
				t.Fatalf("takeover %+v, want the successor over %d workers", tk, tc.workers)
			}
		})
	}
}

package ha

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"acep/internal/chaos"
	"acep/internal/cluster"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/shard"
	"acep/internal/wire"
)

// tagRecorder canonicalizes a tagged-match stream exactly like the
// cluster tests: the wire encoding of every match in delivery order, so
// byte equality means identical match sets in identical order.
type tagRecorder struct {
	mu  sync.Mutex
	buf []byte
	n   int
}

func (r *tagRecorder) rec(t shard.Tagged) {
	r.mu.Lock()
	r.buf = wire.AppendMatchRecord(r.buf, 0, t.Seq, 0, wire.AppendMatchBody(nil, t.M))
	r.n++
	r.mu.Unlock()
}

// haWorkload mirrors the cluster failover workloads: enough keys that
// every node of a 3×2 cluster owns live traffic.
func haWorkload(t testing.TB, dataset string) *gen.Workload {
	t.Helper()
	switch dataset {
	case "traffic":
		return gen.Traffic(gen.TrafficConfig{
			Types: 6, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 12,
		})
	case "stocks":
		return gen.Stocks(gen.StocksConfig{
			Types: 6, Events: 5000, Seed: 23, MeanGap: 3, DriftEvery: 300, Keys: 16,
		})
	default:
		t.Fatalf("unknown dataset %s", dataset)
		return nil
	}
}

// runShardedRef is the single-process reference at equal total shards.
func runShardedRef(t *testing.T, w *gen.Workload, kind gen.Kind, shards int) *tagRecorder {
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

func requireIdentical(t *testing.T, label string, got, want *tagRecorder) {
	t.Helper()
	if want.n == 0 {
		t.Fatalf("%s: reference produced no matches; test is vacuous", label)
	}
	if !bytes.Equal(got.buf, want.buf) {
		t.Fatalf("%s: HA stream diverges from sharded reference (%d vs %d matches)",
			label, got.n, want.n)
	}
}

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

func startHARig(t *testing.T, w *gen.Workload, kind gen.Kind, standbys int) *haRig {
	t.Helper()
	pat, err := w.Pattern(kind, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	rig := &haRig{}
	start := func(configured bool) string {
		cfg := cluster.NodeConfig{
			Engine: engine.Config{CheckEvery: 250}, Batch: 64, KeyAttr: "key",
		}
		if configured {
			cfg.Pattern, cfg.Schema, cfg.Shards = pat, w.Schema, 2
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
	for i := 0; i < 3; i++ {
		rig.workers = append(rig.workers, start(true))
	}
	for k := 0; k < standbys; k++ {
		rig.standbys = append(rig.standbys, start(false))
	}
	return rig
}

// pairConfig is the configuration every pair under test starts from: the
// rig's workers and pool, cuts of 64, and the pair's own lease arbiter
// at a 300 ms TTL, so a takeover waits little for the dead primary's
// grant to lapse.
func (r *haRig) pairConfig(t *testing.T, w *gen.Workload, kind gen.Kind, onTagged func(shard.Tagged)) Config {
	t.Helper()
	pat, err := w.Pattern(kind, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Pattern: pat, Schema: w.Schema, KeyAttr: "key", Batch: 64,
		Workers: r.workers, Standbys: r.standbys, OnTagged: onTagged,
		LeaseTTL: 300 * time.Millisecond,
	}
}

// runPair streams the workload through a replicated pair, invoking the
// `at` hooks just before the given event indexes (on the feed
// goroutine, the calling contract of KillPrimary and friends).
func runPair(t *testing.T, rig *haRig, w *gen.Workload, kind gen.Kind,
	wrap func(i int, c cluster.Conn) cluster.Conn, at map[int]func(*Pair)) (*tagRecorder, *Pair) {
	t.Helper()
	return runPairFeed(t, rig, w, kind, wrap, func(p *Pair) {
		for i := range w.Events {
			if fn, ok := at[i]; ok {
				fn(p)
			}
			p.Process(&w.Events[i])
		}
	})
}

// runPairFeed is runPair with the feed loop the caller's.
func runPairFeed(t *testing.T, rig *haRig, w *gen.Workload, kind gen.Kind,
	wrap func(i int, c cluster.Conn) cluster.Conn, feed func(*Pair)) (*tagRecorder, *Pair) {
	t.Helper()
	rec := &tagRecorder{}
	cfg := rig.pairConfig(t, w, kind, rec.rec)
	cfg.WrapWorker = wrap
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(p)
	done := make(chan error, 1)
	go func() { done <- p.Finish() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pair finished with error: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("pair Finish hung")
	}
	return rec, p
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
			w := haWorkload(t, dataset)
			want := runShardedRef(t, w, kind, 6)
			rig := startHARig(t, w, kind, 0)
			got, p := runPair(t, rig, w, kind, nil, map[int]func(*Pair){
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
			requireIdentical(t, fmt.Sprintf("%s/%v", dataset, kind), got, want)
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
	w := gen.Stocks(gen.StocksConfig{
		Types: 6, Events: 5000, Seed: 23, MeanGap: 1, DriftEvery: 300, Keys: 12,
	})
	want := runShardedRef(t, w, gen.Sequence, 6)
	rig := startHARig(t, w, gen.Sequence, 0)
	got, p := runPairFeed(t, rig, w, gen.Sequence, nil, func(p *Pair) {
		var ev event.Event
		attrs := make([]float64, 0, 16)
		for i := range w.Events {
			if i == 40*64-1 { // the open cut (Batch 64) is one event short of sealing
				waitMirroredEmission(t, p)
				if err := p.KillPrimary(); err != nil {
					t.Fatalf("takeover failed: %v", err)
				}
			}
			src := &w.Events[i]
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
	requireIdentical(t, "reused event across a takeover", got, want)
}

// TestRingTrimsAtEachCut: the refeed ring is trimmed at every cut, not
// once it outgrows a threshold. Two cuts fed and acknowledged, a third
// fed: the ring holds the third alone. Over the rest of the stream it
// never holds more than the flow-control window plus the open cut, and
// the stream stays exact.
func TestRingTrimsAtEachCut(t *testing.T) {
	w := haWorkload(t, "stocks")
	want := runShardedRef(t, w, gen.Sequence, 6)
	rig := startHARig(t, w, gen.Sequence, 0)
	const batch = 64 // pairConfig's
	got, _ := runPairFeed(t, rig, w, gen.Sequence, nil, func(p *Pair) {
		for i := range 2 * batch {
			p.Process(&w.Events[i])
		}
		waitFor(t, "the standby acknowledging the second cut", func() bool {
			return p.g.ackedSeq() >= w.Events[2*batch-1].Seq
		})
		for i := 2 * batch; i < 3*batch; i++ {
			p.Process(&w.Events[i])
		}
		if n := p.ring.Len(); n > batch {
			t.Fatalf("ring holds %d events after the third cut, want at most the %d of that cut", n, batch)
		}
		for i := 3 * batch; i < len(w.Events); i++ {
			p.Process(&w.Events[i])
			if n := p.ring.Len(); n > (replLagCuts+1)*batch {
				t.Fatalf("ring holds %d events at event %d, past replLagCuts+1 cuts (%d)", n, i, (replLagCuts+1)*batch)
			}
		}
	})
	requireIdentical(t, "ring trimmed at each cut", got, want)
}

// TestTakeoverMidMigration — kill matrix: the primary dies right after
// initiating a shard migration, before (and after) the mirrored owner
// table could reflect it. Either way the successor resumes from the
// table its mirror holds and the stream stays exact.
func TestTakeoverMidMigration(t *testing.T) {
	for _, killAt := range []int{2010, 2100} { // before / after the next cut mirrors the move
		w := haWorkload(t, "traffic")
		want := runShardedRef(t, w, gen.Sequence, 6)
		rig := startHARig(t, w, gen.Sequence, 0)
		got, p := runPair(t, rig, w, gen.Sequence, nil, map[int]func(*Pair){
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
		requireIdentical(t, fmt.Sprintf("mid-migration kill@%d", killAt), got, want)
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
	w := haWorkload(t, "traffic")
	want := runShardedRef(t, w, gen.Sequence, 6)
	rig := startHARig(t, w, gen.Sequence, 1)
	got, p := runPair(t, rig, w, gen.Sequence,
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
	requireIdentical(t, "takeover during worker failover", got, want)
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
	w := haWorkload(t, "stocks")
	want := runShardedRef(t, w, gen.Sequence, 6)
	rig := startHARig(t, w, gen.Sequence, 0)
	got := &tagRecorder{}
	cfg := rig.pairConfig(t, w, gen.Sequence, got.rec)
	cfg.LeaseTTL = time.Minute // no keepalive: the arbiter's count is the gate's commits alone
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		if i == 2000 {
			// Some match must be out, or the count check below is 0 == 0.
			waitFor(t, "a delivered match", func() bool { return p.Delivered() > 0 })
			p.KillStandby()
		}
		p.Process(&w.Events[i])
	}
	if d := p.Demotion(); d == nil || !strings.Contains(d.Cause, "standby killed") {
		t.Fatalf("losing the standby left demotion %+v, want one naming the standby", d)
	}
	if err := p.Finish(); err == nil || !strings.Contains(err.Error(), "demoted without takeover") {
		t.Fatalf("Finish returned %v after the standby died, want an explicit demotion error", err)
	}
	if got.n == 0 || !bytes.HasPrefix(want.buf, got.buf) {
		t.Fatalf("the demoted primary delivered %d matches, want a nonempty prefix of the %d-match reference", got.n, want.n)
	}
	if _, _, _, count := p.arb.State(); count != p.Delivered() {
		t.Fatalf("arbiter records %d delivered, the demoted primary delivered %d", count, p.Delivered())
	}
	if p.Takeover() != nil {
		t.Fatal("demoted run recorded a takeover")
	}
}

// TestDoubleDeath — kill matrix: the primary dies after the standby is
// already gone. No state can resume the stream; the failure must be an
// explicit error, not a hang or a silently truncated stream.
func TestDoubleDeath(t *testing.T) {
	w := haWorkload(t, "traffic")
	rig := startHARig(t, w, gen.Sequence, 0)
	p, err := New(rig.pairConfig(t, w, gen.Sequence, func(shard.Tagged) {}))
	if err != nil {
		t.Fatal(err)
	}
	var killErr error
	for i := range w.Events {
		switch i {
		case 2000:
			p.KillStandby()
		case 3000:
			killErr = p.KillPrimary()
		}
		p.Process(&w.Events[i])
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
	w := haWorkload(t, "traffic")
	rig := startHARig(t, w, gen.Sequence, 0)
	p, err := New(rig.pairConfig(t, w, gen.Sequence, func(shard.Tagged) {}))
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
			w := haWorkload(t, "traffic")
			want := runShardedRef(t, w, gen.Sequence, 6)
			rig := startHARig(t, w, gen.Sequence, 1)
			got := &tagRecorder{}
			cfg := rig.pairConfig(t, w, gen.Sequence, got.rec)
			cfg.Standbys = nil // the bare node joins by AddNode, not as a failover target
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range w.Events {
				switch i {
				case 2000:
					tc.op(t, p, rig)
				case 2000 + 4*64:
					// The mirror may trail the feed by up to replLagCuts.
					after := w.Events[2000+2*64].Seq
					waitFor(t, "the mirror holding a cut past the op", func() bool {
						p.srv.mu.Lock()
						defer p.srv.mu.Unlock()
						return p.srv.lastUpTo >= after
					})
					if err := p.KillPrimary(); err != nil {
						t.Fatalf("takeover failed: %v", err)
					}
				}
				p.Process(&w.Events[i])
			}
			if err := p.Finish(); err != nil {
				t.Fatalf("finish after takeover: %v", err)
			}
			requireIdentical(t, tc.name, got, want)
			if tk := p.Takeover(); tk == nil || tk.Workers != tc.workers {
				t.Fatalf("takeover %+v, want the successor over %d workers", tk, tc.workers)
			}
		})
	}
}

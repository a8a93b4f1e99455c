package ha

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"acep/internal/cluster"
	"acep/internal/event"
	"acep/internal/gen"
	recovery "acep/internal/recover"
	"acep/internal/rungtest"
	"acep/internal/shard"
	"acep/internal/wire"
)

// mirrorShards is the global shard space of the scripted sessions below.
const mirrorShards = 2

// replCuts seals the workload into ReplCut frames the way a primary's
// ingress and replication tap do: batch events per cut, one encoded run
// per shard with traffic, dense ordinals from 1, both tables on every
// cut.
func replCuts(t testing.TB, schema *event.Schema, evs []event.Event, batch int) []wire.ReplCut {
	t.Helper()
	key, err := shard.ByAttrName(schema, "key")
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]uint32, mirrorShards)
	addrs := make([]string, 1)
	var cuts []wire.ReplCut
	for at := 0; at+batch <= len(evs); at += batch {
		encs := make([]wire.RunEncoder, mirrorShards)
		for i := at; i < at+batch; i++ {
			encs[shard.GlobalIndex(key(&evs[i]), mirrorShards)].Append(&evs[i])
		}
		rc := wire.ReplCut{UpTo: evs[at+batch-1].Seq, Cut: uint64(len(cuts) + 1), Owner: owner, Addrs: addrs}
		for g := range encs {
			if encs[g].Events() > 0 {
				rc.Runs = append(rc.Runs, encs[g].Seal(uint32(g)))
			}
		}
		cuts = append(cuts, rc)
	}
	return cuts
}

// TestStandbyAcksOnlyWhatItHolds: an acknowledgement tells the primary's
// emission gate that a successor could regenerate the cut, so the server
// must fail the link — no ack, the death recorded, nothing counted —
// rather than acknowledge a cut it did not journal: a replication
// session whose Epoch frame declared no usable window (every cut used to
// be acknowledged into a nil journal), a run naming a shard the owner
// table does not have (it used to be skipped, acknowledged, and counted
// in Stats). The successor side refuses the same run when a handover
// serves it.
func TestStandbyAcksOnlyWhatItHolds(t *testing.T) {
	w := rungtest.Lookup(t, "pinned/sequence-300")
	good := replCuts(t, w.Schema, w.Events, 256)[0]
	stray := good
	stray.Runs = append([]wire.ReplRun{}, good.Runs...)
	stray.Runs[0].Shard = mirrorShards
	for _, row := range []struct {
		name  string
		epoch wire.Epoch
		cut   wire.ReplCut
		cause string // "" = the cut must be mirrored and acknowledged
	}{
		{"sized journal, good cut", wire.Epoch{Epoch: 1, Window: 300}, good, ""},
		{"window 0", wire.Epoch{Epoch: 1}, good, "positive pattern window"},
		{"window negative", wire.Epoch{Epoch: 1, Window: -5}, good, "positive pattern window"},
		{"run outside the owner table", wire.Epoch{Epoch: 1, Window: 300}, stray, "run of shard 2 in a journal of 2 shards"},
	} {
		srv := &StandbyServer{done: make(chan struct{})}
		primary, standby := cluster.Pipe()
		served := make(chan struct{})
		go func() { srv.serveSession(standby); close(served) }()
		for _, f := range []wire.Frame{row.epoch, row.cut} {
			if err := primary.Send(f); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		}
		f, err := primary.Recv()
		cuts, events := srv.Stats()
		if row.cause == "" {
			if ack, ok := f.(wire.Watermark); !ok || ack.UpTo != row.cut.UpTo || cuts != 1 || events != 256 {
				t.Errorf("%s: answered %v (%v) with %d cuts / %d events mirrored, want the cut's ack and 1 / 256", row.name, f, err, cuts, events)
			}
			primary.Close()
			<-served
			continue
		}
		if err != io.EOF {
			t.Errorf("%s: the server answered %v (%v), want the link closed without an ack", row.name, f, err)
		}
		<-served
		srv.mu.Lock()
		dead, cause := srv.dead, srv.cause
		srv.mu.Unlock()
		if !dead || !strings.Contains(cause, row.cause) {
			t.Errorf("%s: dead=%v cause %q, want a link failure naming %q", row.name, dead, cause, row.cause)
		}
		if cuts != 0 || events != 0 {
			t.Errorf("%s: Stats reports %d cuts / %d events mirrored, want none", row.name, cuts, events)
		}
	}

	// The same run, served by a handover: the successor must not build a
	// journal that silently lacks it.
	l, err := cluster.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// Errors here surface as the failure of fetchMirror below.
		c.Recv()                                                                                  //nolint:errcheck // the Handover request
		c.Send(wire.HandoverState{LastUpTo: stray.UpTo, LastCut: 1, Cuts: 1, Owner: stray.Owner}) //nolint:errcheck
		c.Send(wire.ReplCut{UpTo: stray.UpTo, Cut: 1, Runs: stray.Runs})                          //nolint:errcheck
		c.Recv()                                                                                  //nolint:errcheck // hold the link until the successor hangs up
	}()
	p := &Pair{cfg: Config{Pattern: w.Specs[0].Pattern}, standbyAddr: l.Addr()}
	if _, err := p.fetchMirror(2); err == nil || !strings.Contains(err.Error(), "run of shard 2") {
		t.Errorf("fetchMirror over a handover with a run outside the owner table returned %v, want it refused", err)
	}
}

// TestStandbyMirrorsVerbatim: the mirror is the primary's bytes. A
// standby on a real socket mirrors a stream of cuts while the emission
// boundary advances (so retention trims), and what a handover then
// serves is, run for run, byte for byte what was replicated — and
// exactly what a journal fed the same cuts and boundaries in process
// retains, so a successor's replay sends its workers the very frames the
// dead primary's would have.
func TestStandbyMirrorsVerbatim(t *testing.T) {
	w := rungtest.Lookup(t, "pinned/sequence-300")
	cuts := replCuts(t, w.Schema, w.Events, 64)
	const window = 300
	ref, err := recovery.NewJournal(recovery.JournalConfig{Window: window, Shards: mirrorShards})
	if err != nil {
		t.Fatal(err)
	}
	sent := map[[2]uint64][]byte{} // (cut watermark, shard) -> replicated body

	l, err := cluster.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewStandbyServer(l)
	go srv.Serve()
	defer func() { srv.Stop(); srv.Wait() }()
	link, err := cluster.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Send(wire.Epoch{Epoch: 1, Window: window}); err != nil {
		t.Fatal(err)
	}
	var emitted uint64
	for i, rc := range cuts {
		if err := link.Send(rc); err != nil {
			t.Fatal(err)
		}
		if f, err := link.Recv(); err != nil || f != (wire.Watermark{UpTo: rc.UpTo}) {
			t.Fatalf("cut %d: acknowledged with %v (%v)", rc.Cut, f, err)
		}
		if err := ref.AppendRuns(rc.Runs, rc.UpTo); err != nil {
			t.Fatal(err)
		}
		for _, r := range rc.Runs {
			sent[[2]uint64{rc.UpTo, uint64(r.Shard)}] = r.Body
		}
		if i >= 2 { // the emission boundary trails the mirror by two cuts
			emitted = cuts[i-2].UpTo
			if err := link.Send(wire.ReplState{EmittedUpTo: emitted, Count: uint64(i)}); err != nil {
				t.Fatal(err)
			}
			ref.Advance(emitted)
		}
	}
	link.Close()
	if ref.Cuts() == 0 || ref.Cuts() >= len(cuts)/2 {
		t.Fatalf("the reference journal retains %d of %d cuts; the test needs retention to have trimmed most", ref.Cuts(), len(cuts))
	}

	// The handover as it comes off the wire.
	hand, err := cluster.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hand.Close()
	if err := hand.Send(wire.Handover{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	f, err := hand.Recv()
	hs, ok := f.(wire.HandoverState)
	if err != nil || !ok {
		t.Fatalf("handover answered %v (%v)", f, err)
	}
	if hs.EmittedUpTo != emitted || hs.LastUpTo != cuts[len(cuts)-1].UpTo || int(hs.Cuts) != ref.Cuts() {
		t.Fatalf("handover header %+v, want emission boundary %d, last cut %d and the reference's %d retained cuts",
			hs, emitted, cuts[len(cuts)-1].UpTo, ref.Cuts())
	}
	runs := 0
	for i := uint64(0); i < hs.Cuts; i++ {
		f, err := hand.Recv()
		rc, ok := f.(*wire.ReplCut)
		if err != nil || !ok {
			t.Fatalf("handover cut %d: %v (%v)", i+1, f, err)
		}
		for _, r := range rc.Runs {
			runs++
			if want := sent[[2]uint64{rc.UpTo, uint64(r.Shard)}]; !bytes.Equal(r.Body, want) {
				t.Fatalf("handover cut at %d, shard %d: the served run is not the replicated one", rc.UpTo, r.Shard)
			}
		}
	}
	if runs == 0 {
		t.Fatal("the handover served no run")
	}

	// The successor's side of the same exchange: the journal fetchMirror
	// rebuilds replays, per shard, what the reference replays.
	st, err := (&Pair{cfg: Config{Pattern: w.Specs[0].Pattern}, standbyAddr: srv.Addr()}).fetchMirror(2)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(j *recovery.Journal, g int) (frames []byte) {
		j.ReplayShard(g, func(r wire.ReplRun, upTo uint64) error { //nolint:errcheck // fn never fails
			frames = wire.Append(frames, wire.BatchRaw{UpTo: upTo, Shard: r.Shard, Run: r.Body})
			return nil
		})
		return frames
	}
	for g := 0; g < mirrorShards; g++ {
		want := replay(ref, g)
		if len(want) == 0 {
			t.Fatalf("the reference replays nothing for shard %d", g)
		}
		if got := replay(st.journal, g); !bytes.Equal(got, want) {
			t.Fatalf("shard %d: the successor's replay differs from the primary journal's (%d vs %d bytes)", g, len(got), len(want))
		}
	}
	if st.journal.Bytes() != ref.Bytes() || st.journal.Events() != ref.Events() {
		t.Fatalf("the rebuilt mirror holds %d bytes / %d events, the reference %d / %d",
			st.journal.Bytes(), st.journal.Events(), ref.Bytes(), ref.Events())
	}
}

// scriptConn is one end of a scripted link with no socket under it:
// frames cross by reference on channels — a cut as the *wire.ReplCut a
// stream Reader returns — and Close ends the other end's Recv.
type scriptConn struct {
	out chan<- wire.Frame
	in  <-chan wire.Frame
}

func (c scriptConn) Send(f wire.Frame) error { c.out <- f; return nil }

func (c scriptConn) Recv() (wire.Frame, error) {
	f, ok := <-c.in
	if !ok {
		return nil, io.EOF
	}
	return f, nil
}

func (c scriptConn) Close() error { close(c.out); return nil }

// openMirror starts a standby serving one replication session over a
// scripted link and opens it: the frames are the script's, boxed ahead of
// time, so what the server does per cut — journal it, acknowledge it — is
// all that runs.
func openMirror(t testing.TB) (primary cluster.Conn) {
	t.Helper()
	srv := &StandbyServer{done: make(chan struct{})}
	down, up := make(chan wire.Frame, 4), make(chan wire.Frame, 4)
	primary = scriptConn{out: down, in: up}
	go srv.serveSession(scriptConn{out: up, in: down})
	if err := primary.Send(wire.Epoch{Epoch: 1, Window: 300}); err != nil {
		t.Fatal(err)
	}
	return primary
}

// TestStandbyMirrorAllocs: the standby allocates per cut, not per event.
// In steady state — the journal trimming as fast as it grows — mirroring
// a cut costs the journal's record of it and the boxing of the
// acknowledgement, whether the cut carries 256 events or 1024. The
// script's frames (cut k, then the emission boundary of cut k-2) are
// boxed ahead of time to keep its own work off the books.
func TestStandbyMirrorAllocs(t *testing.T) {
	const warm, runs = 100, 200
	for _, events := range []int{256, 1024} {
		w := gen.Traffic(gen.TrafficConfig{
			Types: 6, Events: (warm + runs + 2) * events, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 12,
		})
		cuts := replCuts(t, w.Schema, w.Events, events)
		steps := make([][]wire.Frame, len(cuts))
		for i := range cuts {
			steps[i] = []wire.Frame{&cuts[i]}
			if i >= 2 {
				steps[i] = append(steps[i], wire.ReplState{EmittedUpTo: cuts[i-2].UpTo, Count: uint64(i)})
			}
		}
		primary := openMirror(t)
		next := 0
		cut := func() {
			for _, f := range steps[next] {
				if err := primary.Send(f); err != nil {
					t.Fatal(err)
				}
			}
			next++
			if f, err := primary.Recv(); err != nil {
				t.Fatalf("cut %d: acknowledged with %v (%v)", next, f, err)
			}
		}
		for i := 0; i < warm; i++ {
			cut() // fill the retention horizon, size the journal's cut list
		}
		if avg := testing.AllocsPerRun(runs, cut); avg > 2 {
			t.Errorf("mirroring a %d-event cut allocated %.0f times, want at most 2", events, avg)
		}
		primary.Close()
	}
}

// BenchmarkStandbyMirror measures the standby's own per-cut work — the
// mirror append and the acknowledgement — on 256-event cuts crossing a
// scripted link by reference: cuts/s, and a B/op that does not scale with the
// events a cut carries (about 200 B of it is this script's: two frames
// boxed and the relabelled run headers). The cuts of a small workload
// are replayed lap after lap under fresh ordinals, watermarks and
// timestamps; the bodies are never looked at.
func BenchmarkStandbyMirror(b *testing.B) {
	const events = 256
	w := rungtest.Lookup(b, "pinned/sequence-300")
	cuts := replCuts(b, w.Schema, w.Events, events)
	span := event.Time(cuts[len(cuts)-1].Runs[0].LastTS + 1)
	primary := openMirror(b)
	defer primary.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc := cuts[i%len(cuts)]
		rc.Cut, rc.UpTo = uint64(i+1), uint64(i+1)*events
		runs := make([]wire.ReplRun, len(rc.Runs))
		for k, r := range rc.Runs {
			r.LastTS += event.Time(i/len(cuts)) * span
			runs[k] = r
		}
		rc.Runs = runs
		if err := primary.Send(&rc); err != nil {
			b.Fatal(err)
		}
		if i >= 2 {
			if err := primary.Send(wire.ReplState{EmittedUpTo: uint64(i-1) * events, Count: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
		if f, err := primary.Recv(); err != nil {
			b.Fatalf("cut %d: acknowledged with %v (%v)", i+1, f, err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cuts/s")
}

package wire

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/stats"
)

// benchBatch builds one delta-friendly Batch of n events: four rotating
// types, monotone TS/Seq with small deltas, four attributes per event.
func benchBatch(n int) Batch {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Type:  i % 4,
			TS:    event.Time(1000 + i),
			Seq:   uint64(1 + i),
			Attrs: []float64{float64(i), float64(i % 97), 42.5, -1.25},
		}
	}
	return Batch{UpTo: uint64(n), Events: evs}
}

// BenchmarkBatchEncode measures the v2 delta encoding of a 256-event
// Batch frame into a reused buffer (ns/event; allocs/op must be zero
// steady-state — the buffer is warm after the first iteration).
func BenchmarkBatchEncode(b *testing.B) {
	const n = 256
	var f Frame = benchBatch(n) // box once: measure the codec, not the interface conversion
	dst := Append(nil, f)       // warm the buffer to final size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Append(dst[:0], f)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
}

// BenchmarkRunEncode measures the ingress's side of a cut: 256 events
// through a RunEncoder whose storage is reused, sealed (ns/event;
// allocs/op must be zero once the storage is warm).
func BenchmarkRunEncode(b *testing.B) {
	const n = 256
	evs := benchBatch(n).Events
	var e RunEncoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(true)
		for k := range evs {
			e.Append(&evs[k])
		}
		if e.Seal(0).Events != n {
			b.Fatal("short run")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
}

// BenchmarkBatchDecode measures decoding a 256-event v2 delta frame:
// the copying path (one event.Event slice + per-event Attrs per frame)
// against the decode-into-arena path (events materialized once, in
// place, in recycled arena chunks — zero allocations steady-state).
func BenchmarkBatchDecode(b *testing.B) {
	const n = 256
	batch := benchBatch(n)
	frame := Append(nil, batch)
	horizon := batch.Events[n-1].TS + 1

	b.Run("copy", func(b *testing.B) {
		br := bytes.NewReader(frame)
		r := NewReader(br)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br.Reset(frame)
			if _, err := r.Read(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
	})

	b.Run("arena", func(b *testing.B) {
		var arena match.Arena
		// The benchmark drops every decoded pointer before each Release,
		// so recycling is safe here and makes the steady state visible.
		arena.SetRecycle(true)
		br := bytes.NewReader(frame)
		r := NewReader(br)
		r.SetDecodeArena(&arena)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br.Reset(frame)
			if _, err := r.Read(); err != nil {
				b.Fatal(err)
			}
			arena.Release(horizon)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
	})
}

// TestBatchDecodeArenaAllocs is the allocation-regression guard of the
// zero-copy ingest path: once the Reader scratch and the recycling
// arena's free list are warm, decoding a whole Batch frame into the
// arena must not allocate at all — 0 allocs/event, and 0 allocs/frame.
func TestBatchDecodeArenaAllocs(t *testing.T) {
	const n = 256
	batch := benchBatch(n)
	frame := Append(nil, batch)
	horizon := batch.Events[n-1].TS + 1

	var arena match.Arena
	arena.SetRecycle(true) // every pointer is dropped before each Release
	br := bytes.NewReader(frame)
	r := NewReader(br)
	r.SetDecodeArena(&arena)
	decode := func() {
		br.Reset(frame)
		f, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := f.(*BatchView)
		if !ok {
			t.Fatalf("decode arena set but Read returned %T", f)
		}
		if len(v.Events) != n {
			t.Fatalf("decoded %d events, want %d", len(v.Events), n)
		}
		arena.Release(horizon)
	}
	for i := 0; i < 4; i++ {
		decode() // warm Reader buffers and the free list
	}
	if avg := testing.AllocsPerRun(100, decode); avg != 0 {
		t.Fatalf("decode-into-arena allocated %.2f times per %d-event frame; want 0 steady-state", avg, n)
	}
}

// TestBatchEncodeAllocs pins the encode side: appending a Batch frame
// onto a warm buffer performs no allocation.
func TestBatchEncodeAllocs(t *testing.T) {
	var f Frame = benchBatch(256) // box once: the codec itself must not allocate
	dst := Append(nil, f)
	if avg := testing.AllocsPerRun(100, func() {
		dst = Append(dst[:0], f)
	}); avg != 0 {
		t.Fatalf("warm Batch encode allocated %.2f times per frame; want 0", avg)
	}
}

// TestUnboxedFrameAllocs pins the two frames of a cluster's hot path
// crossing the stream codec without a box: a cut's BatchRaw written
// through WriteRaw — to the bytes Append writes — and a Matches frame read
// into a hooked buffer, which comes back as the Reader's own *Matches.
// Neither allocates per frame.
func TestUnboxedFrameAllocs(t *testing.T) {
	var e RunEncoder
	for _, ev := range benchBatch(64).Events {
		e.Append(&ev)
	}
	raw := BatchRaw{UpTo: 64, Run: e.Seal(0).Body}
	var out bytes.Buffer
	w := NewWriter(&out)
	for _, v := range []BatchRaw{raw, {UpTo: 65}} {
		out.Reset()
		if err := w.WriteRaw(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), Append(nil, v)) {
			t.Fatalf("WriteRaw(%d-byte run) wrote other bytes than Append", len(v.Run))
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		out.Reset()
		if err := w.WriteRaw(raw); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("WriteRaw allocated %.2f times per frame; want 0", avg)
	}

	plain, kleene, _ := sampleMatches()
	frame := Append(nil, matchesOf(9,
		MatchRecord{Seq: 3, Body: AppendMatchBody(nil, plain)},
		MatchRecord{Seq: 9, Body: AppendMatchBody(nil, kleene)}))
	own := make([]byte, len(frame))
	br := bytes.NewReader(frame)
	r := NewReader(br)
	r.SetMatchesBuffer(func(n int) []byte { return own[:n] })
	read := func() {
		br.Reset(frame)
		f, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := f.(*Matches); !ok || m.UpTo != 9 || m.Count != 2 {
			t.Fatalf("read %#v, want the two-record frame as a *Matches", f)
		}
	}
	read()
	if avg := testing.AllocsPerRun(100, read); avg != 0 {
		t.Errorf("reading a Matches frame allocated %.2f times; want 0", avg)
	}
}

// TestRunEncodeAllocs pins the two ways an ingress cycles a run encoder:
// reusing the sealed run's storage costs nothing per cut, and leaving it
// to whoever keeps the body costs the run's own bytes, carved one run
// after another from chunks of RunsPerChunk runs: fewer than one
// allocation a run, and at most an eighth more bytes than the run holds.
func TestRunEncodeAllocs(t *testing.T) {
	evs := benchBatch(256).Events
	var e RunEncoder
	var body int
	cut := func(reuse bool) func() {
		return func() {
			e.Reset(reuse)
			for k := range evs {
				e.Append(&evs[k])
			}
			body = len(e.Seal(0).Body)
		}
	}
	kept, reused := cut(false), cut(true)
	kept() // size the storage
	if avg := testing.AllocsPerRun(100, reused); avg != 0 {
		t.Errorf("encoding a 256-event run over the last one allocated %.2f times; want 0", avg)
	}
	const runs = 16 * RunsPerChunk
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	objs, bytes0 := ms.Mallocs, ms.TotalAlloc
	for range runs {
		kept()
	}
	runtime.ReadMemStats(&ms)
	if n := ms.Mallocs - objs; n >= runs {
		t.Errorf("encoding %d kept 256-event runs allocated %d times; want fewer than one a run", runs, n)
	}
	if per := float64(ms.TotalAlloc-bytes0) / runs; per > 1.125*float64(body) {
		t.Errorf("a kept %d-byte run cost %.0f bytes; want at most %.0f", body, per, 1.125*float64(body))
	}
}

// TestRunEncoderCapsCarvedBodies: a kept run's body is capped at its
// length, so appending to it copies it out instead of writing over the
// run carved after it from the same chunk.
func TestRunEncoderCapsCarvedBodies(t *testing.T) {
	evs := benchBatch(8).Events
	var e RunEncoder
	seal := func() ReplRun {
		e.Reset(false)
		for k := range evs {
			e.Append(&evs[k])
		}
		return e.Seal(0)
	}
	seal() // size the chunk: the next two runs are carved from it
	first, second := seal(), seal()
	want := bytes.Clone(second.Body)
	_ = append(first.Body, make([]byte, len(second.Body)+runHead)...)
	if !bytes.Equal(second.Body, want) {
		t.Fatal("appending to a sealed run's body overwrote the run carved after it")
	}
	if _, err := DecodeRun(&match.Arena{}, second.Body, nil); err != nil {
		t.Fatal(err)
	}
}

// controlFrame is one control frame the allocation guard and the
// benchmark run, with the objects decoding it may allocate: the frame's
// box — none for a value small enough for the runtime's preallocated
// ones — plus each table it carries and each string and run body in them.
type controlFrame struct {
	name   string
	f      Frame
	decode float64
}

func controlFrames() []controlFrame {
	ev, ev2 := sampleEvent(), event.Event{Type: 0, TS: 0, Seq: 1}
	var q stats.Quantile
	for i := 0; i < 2000; i++ {
		q.Add(float64(i % 97))
	}
	return []controlFrame{
		{"heartbeat", Heartbeat{UpTo: 77}, 0},
		{"pattern-remove", PatternRemove{ID: 99}, 0},
		{"handover", Handover{Epoch: 2}, 0},
		{"finish", Finish{}, 0},
		{"hello", Hello{Version: Version, Shards: 4, PatternSig: 0xdeadbeefcafef00d}, 1},
		{"assign", Assign{Base: 0, Shards: 2, Total: 4, Epoch: 3}, 1},
		{"watermark", Watermark{UpTo: math.MaxUint64}, 1},
		{"migrate", Migrate{Shard: 9, SuppressUpTo: 1234, ReplayUpTo: 5678}, 1},
		{"migrate-ack", MigrateAck{Shard: 9, UpTo: 5690}, 1},
		{"repl-state", ReplState{EmittedUpTo: 1 << 40, Count: 12345}, 1},
		{"takeover", Takeover{Epoch: 2, Boundary: 768, Count: 99}, 1},
		{"epoch", Epoch{Epoch: 3, Window: 5000}, 1},
		{"lease-acquire", LeaseAcquire{Holder: 1, TTLMillis: 2000}, 1},
		{"lease-renew", LeaseRenew{Holder: 1, Epoch: 4, TTLMillis: 2000, EmittedUpTo: 1 << 33, Count: 777}, 1},
		{"lease-fence", LeaseFence{Granted: true, Holder: 1, Epoch: 4, EmittedUpTo: 1 << 33, Count: 777}, 1},
		{"handover-state", HandoverState{LastUpTo: 1 << 30, LastCut: 255, Cuts: 8, Dead: true}, 1},
		{"shard-route", ShardRoute{Owner: []uint32{0, 2, 1, math.MaxUint32, 2}}, 2},
		{"metrics", Metrics{M: engine.Metrics{Events: 100, Matches: 3, PeakPMs: 17, QueueWait: q}}, 3},
		{"repl-cut-final", ReplCut{UpTo: 1 << 52, Cut: 1 << 20, Final: true}, 1},
		{"repl-cut-run", ReplCut{UpTo: 512, Cut: 1, Runs: []ReplRun{sealRun(1, ev2)}}, 3},
		{"repl-cut-tables", ReplCut{
			UpTo: 1 << 30, Cut: 17, Owner: []uint32{0, 1, 1, 0},
			Addrs: []string{"127.0.0.1:9001", "", "[::1]:40000"},
			Runs:  []ReplRun{sealRun(0, ev, ev2), sealRun(3, ev2, ev, ev)},
		}, 8},
	}
}

// TestControlFrameAllocs pins what a control frame's code method costs
// in each direction: encoding onto a warm buffer allocates nothing, and
// decoding allocates the frame's box and its tables, nothing for the codec
// or the dispatch.
func TestControlFrameAllocs(t *testing.T) {
	for _, tc := range controlFrames() {
		b := Append(nil, tc.f)
		dst := Append(nil, tc.f)
		if avg := testing.AllocsPerRun(100, func() { dst = Append(dst[:0], tc.f) }); avg != 0 {
			t.Errorf("%s: encoding allocated %.1f times, want 0", tc.name, avg)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if _, _, err := Decode(b); err != nil {
				t.Fatal(err)
			}
		}); avg > tc.decode {
			t.Errorf("%s: decoding allocated %.1f times, want at most %.0f", tc.name, avg, tc.decode)
		}
	}
}

// BenchmarkControlFrames measures the encode (onto a warm buffer) and the
// decode of each control frame.
func BenchmarkControlFrames(b *testing.B) {
	for _, tc := range controlFrames() {
		frame := Append(nil, tc.f)
		b.Run(tc.name+"/encode", func(b *testing.B) {
			dst := append([]byte(nil), frame...)
			b.ReportAllocs()
			for b.Loop() {
				dst = Append(dst[:0], tc.f)
			}
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMatchDecodeAllocs pins what the decode side allocates: a decoded
// match lies in a keeper's slabs (match.Keeper), so decoding allocates per
// slab, not per match. Unshared, each of a thousand bodies holds events of
// their own Seq, so every event and attribute value is copied: a
// three-event match costs at most want objects, and a Kleene match's
// table, sets and members come out of the same slabs. Shared, one body
// decoded a thousand times copies its events once a slab, so what is left
// is match headers, pointers and tables: at most shared objects. Checking
// a body allocates nothing, and a decoded match re-encodes to the bytes
// it came from.
func TestMatchDecodeAllocs(t *testing.T) {
	base := benchBatch(16).Events
	for name, tc := range map[string]struct {
		idx          [][]int // the events at each position; nil is a nil entry
		kleene       bool    // positions past the first two are Kleene sets
		want, shared float64
	}{
		"three events": {idx: [][]int{{0}, {1}, {2}}, want: 0.04, shared: 0.015},
		"kleene":       {idx: [][]int{{0}, {1, 2, 3, 4, 5}, {6, 7, 8}, {9}}, kleene: true, want: 0.15, shared: 0.05},
	} {
		// body encodes the case's match over base's events with Seq
		// shifted by shift.
		body := func(shift uint64) []byte {
			evs := slices.Clone(base)
			for i := range evs {
				evs[i].Seq += shift
			}
			m := &match.Match{Events: make([]*event.Event, len(tc.idx))}
			if tc.kleene {
				m.Kleene = make([][]*event.Event, len(tc.idx))
			}
			for p, is := range tc.idx {
				if !tc.kleene || p == 0 || p == len(tc.idx)-1 {
					m.Events[p] = &evs[is[0]]
					continue
				}
				for _, i := range is {
					m.Kleene[p] = append(m.Kleene[p], &evs[i])
				}
			}
			return AppendMatchBody(nil, m)
		}
		const n = 1000
		for _, shared := range []bool{false, true} {
			// Unshared: 1,000 bodies of distinct events, more than the
			// sharing table's entries and a slab's events, so no run of
			// AllocsPerRun finds a copy the last one made.
			bodies := make([][]byte, n)
			for i := range bodies {
				if shared {
					bodies[i] = body(0)
				} else {
					bodies[i] = body(uint64(i * len(base)))
				}
			}
			var k match.Keeper
			var got *match.Match
			avg := testing.AllocsPerRun(10, func() {
				for _, b := range bodies {
					var err error
					if got, err = DecodeMatchBody(b, &k); err != nil {
						t.Fatal(err)
					}
				}
			})
			want := tc.want
			if shared {
				want = tc.shared
			}
			if avg/n > want {
				t.Errorf("%s (shared %v): decoding allocated %.3f objects a match, want at most %.3f", name, shared, avg/n, want)
			}
			if again := AppendMatchBody(nil, got); !bytes.Equal(again, bodies[n-1]) {
				t.Errorf("%s (shared %v): the decoded match re-encodes to other bytes", name, shared)
			}
		}
		b := body(0)
		if avg := testing.AllocsPerRun(100, func() {
			if err := CheckMatchBody(b); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: checking allocated %.1f times, want 0", name, avg)
		}
	}
}

// TestReplCutReadAllocs pins the standby's replication read: a ReplCut
// comes back as the Reader's own *ReplCut, and while a cut's topology
// repeats the previous one's bytes its Owner and Addrs are the tables
// already decoded. What a read allocates is each run's body, which the
// mirror journal keeps: no box, no run headers, no topology. A changed
// topology decodes anew and leaves the tables handed out before intact.
func TestReplCutReadAllocs(t *testing.T) {
	evs := benchBatch(8).Events
	cut := func(i int, addrs ...string) ReplCut {
		return ReplCut{
			UpTo: uint64(i) * 256, Cut: uint64(i),
			Owner: []uint32{0, 1, 1, 0}, Addrs: addrs,
			Runs: []ReplRun{sealRun(0, evs[:3]...), sealRun(3, evs[3:]...)},
		}
	}
	const cuts = 64
	var stream []byte
	for i := 1; i <= cuts; i++ {
		stream = Append(stream, cut(i, "127.0.0.1:9001", "127.0.0.1:9002"))
	}
	stream = Append(stream, cut(cuts+1, "127.0.0.1:9001", "127.0.0.1:9003"))
	r := NewReader(bytes.NewReader(stream))
	read := func() *ReplCut {
		f, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := f.(*ReplCut)
		if !ok || len(v.Runs) != 2 {
			t.Fatalf("read %#v, want a two-run *ReplCut", f)
		}
		return v
	}
	first := read()
	owner, addrs := first.Owner, first.Addrs
	if avg := testing.AllocsPerRun(cuts-2, func() { read() }); avg != 2 {
		t.Errorf("reading a two-run ReplCut of a repeated topology allocated %.2f times; want 2, the run bodies", avg)
	}
	if first.Cut != cuts || !bytes.Equal(Append(nil, *first), Append(nil, cut(cuts, "127.0.0.1:9001", "127.0.0.1:9002"))) {
		t.Fatalf("cut %d read back as other bytes than cut %d", first.Cut, cuts)
	}
	if &first.Owner[0] != &owner[0] || &first.Addrs[0] != &addrs[0] {
		t.Error("a repeated topology was decoded anew")
	}
	if changed := read(); changed.Addrs[1] != "127.0.0.1:9003" || addrs[1] != "127.0.0.1:9002" {
		t.Errorf("a changed topology read Addrs %q, and the tables handed out before read %q", changed.Addrs, addrs)
	}
}

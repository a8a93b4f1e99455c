package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/shed"
	"acep/internal/stats"
)

// sampleSchema and samplePattern exercise the pattern-shipping payload of
// Assign frames: negation, Kleene, unary and binary predicates.
func sampleSchema() *event.Schema {
	s := event.NewSchema()
	s.MustAddType("A", "key", "v")
	s.MustAddType("B", "key", "v")
	s.MustAddType("C", "key")
	return s
}

func samplePattern(s *event.Schema) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, 300)
	a := b.Event(0)
	k := b.Event(1)
	b.Kleene(k)
	n := b.Event(2)
	b.Negate(n)
	c := b.Event(1)
	b.WhereEq(a, "key", c, "key")
	b.Where(a, "key", pattern.EQ, k, "key", 0)
	b.Where(a, "key", pattern.EQ, n, "key", 0)
	b.WhereConst(a, "v", pattern.GT, 0.5)
	return b.MustBuild()
}

// sampleEvent builds an event exercising varint edge shapes: type 0,
// negative-capable TS, large Seq, NaN and -0.0 attribute bit patterns.
func sampleEvent() event.Event {
	return event.Event{
		Type:  3,
		TS:    -17,
		Seq:   1<<40 + 9,
		Attrs: []float64{1.5, math.Copysign(0, -1), math.NaN(), -2.25e18},
	}
}

// sealRun encodes evs the way an ingress does: one RunEncoder, sealed.
func sealRun(shard uint32, evs ...event.Event) ReplRun {
	var e RunEncoder
	for i := range evs {
		e.Append(&evs[i])
	}
	return e.Seal(shard)
}

// matchesOf builds a Matches frame the way a node does: one record per
// match, appended in order.
func matchesOf(upTo uint64, recs ...MatchRecord) Matches {
	f := Matches{UpTo: upTo, Count: len(recs)}
	for _, r := range recs {
		f.Recs = AppendMatchRecord(f.Recs, r.Shard, r.Seq, r.Pattern, r.Body)
	}
	return f
}

// sampleMatches are the match shapes a body must carry: plain positions
// with a negated one, Kleene sets beside nil ones, and nothing at all.
func sampleMatches() (plain, kleene, empty *match.Match) {
	ev := sampleEvent()
	ev2 := event.Event{Type: 0, TS: 0, Seq: 1}
	plain = &match.Match{Events: []*event.Event{&ev, nil, &ev2}}
	kleene = &match.Match{
		Events: []*event.Event{&ev, nil, nil},
		Kleene: [][]*event.Event{nil, {&ev2, &ev}, nil},
	}
	return plain, kleene, &match.Match{}
}

// frames is the table every round-trip test walks: at least one instance
// of every frame kind, including degenerate shapes.
func frames() []Frame {
	ev := sampleEvent()
	ev2 := event.Event{Type: 0, TS: 0, Seq: 1}
	var q stats.Quantile
	for i := 0; i < 2000; i++ {
		q.Add(float64(i % 97))
	}
	s := sampleSchema()
	p := samplePattern(s)
	orPat, err := pattern.NewOr(samplePattern(s), samplePattern(s))
	if err != nil {
		panic(err)
	}
	plain, kleene, empty := sampleMatches()
	return []Frame{
		Hello{Version: Version, Shards: 4, PatternSig: 0xdeadbeefcafef00d, KeyAttr: "key"},
		Hello{Version: Version, Shards: 1, KeyAttr: "key"}, // a bare node pinning its key
		Hello{},
		Assign{Total: 12},
		Assign{Total: 4, Schema: s, KeyAttr: "key", Patterns: []PatternEntry{{Pattern: p}}},     // the set of one
		Assign{Total: 4, Schema: s, KeyAttr: "key", Patterns: []PatternEntry{{Pattern: orPat}}}, // an OR pattern
		Assign{ // a full pattern set with tenant budgets
			Total: 2, Schema: s, KeyAttr: "key",
			Patterns: []PatternEntry{
				{ID: 1, Tenant: 9, Pattern: p},
				{ID: 2, Tenant: 9, Pattern: samplePattern(s)},
				{ID: 7, Tenant: 0, Pattern: samplePattern(s)},
			},
			Tenants: []TenantBudgetEntry{
				{Tenant: 9, Budget: shed.TenantBudget{Rate: 125.5, Burst: 250}},
				{Tenant: 0, Budget: shed.TenantBudget{Rate: 1}},
			},
		},
		Batch{UpTo: 1 << 50},
		Batch{UpTo: 42, Shard: 5, Events: []event.Event{ev, ev2}},
		Batch{Shard: 1 << 20, Events: []event.Event{ev2}},       // events-only run of an open cut
		BatchRaw{UpTo: 1 << 50},                                 // pre-encoded: the bare watermark,
		BatchRaw{Shard: 3, Run: sealRun(3, ev, ev2).Body},       // a live cut's run,
		BatchRaw{UpTo: 42, Shard: 7, Run: sealRun(7, ev2).Body}, // a replayed one
		Heartbeat{UpTo: 77},
		Migrate{Shard: 9, SuppressUpTo: 1234, ReplayUpTo: 5678},
		Migrate{},
		MigrateAck{Shard: 9, UpTo: 5690},
		ShardRoute{Owner: []uint32{0, 2, 1, math.MaxUint32, 2}},
		ShardRoute{},
		Watermark{UpTo: math.MaxUint64},
		matchesOf(1 << 40), // a cut that released nothing: the bare watermark
		matchesOf(7, MatchRecord{Shard: 3, Seq: 7, Pattern: 42, Body: AppendMatchBody(nil, plain)}),
		matchesOf(math.MaxUint64, // the end-of-stream flush
			MatchRecord{Seq: math.MaxUint64, Body: AppendMatchBody(nil, kleene)},
			MatchRecord{Shard: 1, Seq: math.MaxUint64, Pattern: 9, Body: AppendMatchBody(nil, plain)}),
		matchesOf(0, MatchRecord{Body: AppendMatchBody(nil, empty)}), // records only: no watermark moves
		Metrics{M: engine.Metrics{
			Events: 100, Matches: 3, LateDropped: 1, EventsArrived: 100,
			EventsShed: 7, QueueDropped: 2, DecisionCalls: 5, PlanGenerations: 4,
			Reoptimizations: 2, DecisionTime: 12 * time.Microsecond,
			PlanTime: 3 * time.Millisecond, StatTime: time.Second,
			PMCreated: 55, PredEvals: 1234, PeakPMs: 17,
			QueueWait: q,
		}},
		Metrics{},
		Metrics{M: engine.Metrics{Events: 12, Matches: 1, QueueDropped: 4},
			Patterns: []PatternMetrics{
				{ID: 0, M: engine.Metrics{Events: 7, Matches: 1}},
				{ID: 12, M: engine.Metrics{Events: 5, PlanTime: time.Millisecond, PeakPMs: 3}},
			},
			Tenants: []shed.TenantStat{
				{Tenant: 0, Admitted: 100, Shed: 3},
				{Tenant: 4, Admitted: 1 << 40},
			}},
		PatternAdd{Entry: PatternEntry{ID: 99, Tenant: 2, Pattern: samplePattern(s)}},
		PatternRemove{ID: 99},
		PatternRemove{},
		Assign{Total: 4, Epoch: 3}, // epoch-stamped session
		ReplCut{ // replicated cut with topology tables
			UpTo:  1 << 30,
			Cut:   17,
			Owner: []uint32{0, 1, 1, 0},
			Addrs: []string{"127.0.0.1:9001", "", "[::1]:40000"},
			Runs:  []ReplRun{sealRun(0, ev, ev2), sealRun(3, ev2, ev, ev)},
		},
		ReplCut{UpTo: 512, Cut: 1, Runs: []ReplRun{sealRun(1, ev2)}}, // what a handover carries: no tables
		ReplCut{UpTo: 1 << 52, Cut: 1 << 20, Final: true},            // stream-ending marker
		ReplState{EmittedUpTo: 1 << 40, Count: 12345},
		ReplState{},
		Epoch{Epoch: 1},
		Epoch{Epoch: 3, Window: 5000}, // self-configuring standby
		Epoch{Epoch: 2, Window: -1},
		LeaseAcquire{Holder: 1, TTLMillis: 2000},
		LeaseAcquire{},
		LeaseRenew{Holder: 1, Epoch: 4, TTLMillis: 2000, EmittedUpTo: 1 << 33, Count: 777},
		LeaseRenew{Holder: 2, Epoch: 5}, // TTL 0: release
		LeaseFence{Granted: true, Holder: 1, Epoch: 4, EmittedUpTo: 1 << 33, Count: 777},
		LeaseFence{Holder: 2, Epoch: 9, LeftMillis: 1499}, // denial with remaining grant
		LeaseFence{},
		Handover{Epoch: 2},
		Handover{},
		HandoverState{ // full mirror handover header
			LastUpTo: 1 << 30, LastCut: 255, EmittedUpTo: 1 << 29, Count: 4242,
			Cuts: 8, Events: 1 << 16,
			Dead: true, Cause: "replication link: read tcp: connection reset",
			DetectedAt: 1_700_000_000_000_000_000,
			Owner:      []uint32{1, 0, math.MaxUint32},
			Addrs:      []string{"127.0.0.1:9001", "[::1]:40000"},
		},
		HandoverState{Dead: true},
		HandoverState{},
		Finish{},
	}
}

// eqFrame compares frames for semantic equality (NaN attribute bits
// compare by bit pattern, quantiles by count and reservoir).
func eqFrame(t *testing.T, a, b Frame) bool {
	t.Helper()
	am, aok := a.(Metrics)
	bm, bok := b.(Metrics)
	if aok != bok {
		return false
	}
	if aok {
		// Quantile has unexported state; compare through its surface.
		if am.M.QueueWait.Count() != bm.M.QueueWait.Count() ||
			am.M.DetectTime.Count() != bm.M.DetectTime.Count() ||
			!reflect.DeepEqual(am.M.QueueWait.Samples(), bm.M.QueueWait.Samples()) ||
			!reflect.DeepEqual(am.M.DetectTime.Samples(), bm.M.DetectTime.Samples()) {
			return false
		}
		am.M.QueueWait, bm.M.QueueWait = stats.Quantile{}, stats.Quantile{}
		am.M.DetectTime, bm.M.DetectTime = stats.Quantile{}, stats.Quantile{}
		// Per-pattern entries carry no latency samples (those are
		// session-wide); drop the restored-empty estimators.
		for _, pms := range [][]PatternMetrics{am.Patterns, bm.Patterns} {
			for i := range pms {
				pms[i].M.QueueWait, pms[i].M.DetectTime = stats.Quantile{}, stats.Quantile{}
			}
		}
		return reflect.DeepEqual(am, bm)
	}
	// NaNs: compare canonical re-encodings instead of raw values.
	return bytes.Equal(Append(nil, a), Append(nil, b))
}

// TestRoundTrip: every frame kind encodes and decodes back to itself,
// both via the byte API and the stream Reader/Writer.
func TestRoundTrip(t *testing.T) {
	for _, f := range frames() {
		b := Append(nil, f)
		got, n, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", KindOf(f), err)
		}
		if n != len(b) {
			t.Fatalf("%s: consumed %d of %d bytes", KindOf(f), n, len(b))
		}
		if !eqFrame(t, f, got) {
			t.Fatalf("%s: round-trip mismatch:\n in: %#v\nout: %#v", KindOf(f), f, got)
		}
	}
}

// everyMetric returns engine.Metrics with every field set by reflection,
// each to its own value (base offsets them), and samples in both
// estimators. A field of a kind it cannot set fails the test.
func everyMetric(t *testing.T, base int) engine.Metrics {
	t.Helper()
	var m engine.Metrics
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, n := v.Field(i), base+1000*(i+1)
		if q, ok := f.Addr().Interface().(*stats.Quantile); ok {
			for j := 0; j < 50; j++ {
				q.Add(float64(n + j))
			}
			continue
		}
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n))
		default:
			t.Fatalf("engine.Metrics.%s: set it here (kind %s)", v.Type().Field(i).Name, f.Kind())
		}
	}
	return m
}

// TestMetricsEveryFieldRoundTrip: a Metrics frame carries every field of
// engine.Metrics, in the session-wide counters and in each pattern's
// entry, so a field added to the engine and not to the codec fails here.
func TestMetricsEveryFieldRoundTrip(t *testing.T) {
	in := Metrics{M: everyMetric(t, 0), Patterns: []PatternMetrics{{ID: 7, M: everyMetric(t, 1)}}}
	f, _, err := Decode(Append(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	out := f.(Metrics)
	if len(out.Patterns) != 1 || out.Patterns[0].ID != 7 {
		t.Fatalf("pattern entries %+v, want one with id 7", out.Patterns)
	}
	for _, pair := range [][2]engine.Metrics{{in.M, out.M}, {in.Patterns[0].M, out.Patterns[0].M}} {
		want, got := reflect.ValueOf(pair[0]), reflect.ValueOf(pair[1])
		for i := 0; i < want.NumField(); i++ {
			name := want.Type().Field(i).Name
			if wq, ok := want.Field(i).Interface().(stats.Quantile); ok {
				gq := got.Field(i).Interface().(stats.Quantile)
				if wq.Count() != gq.Count() || !slices.Equal(wq.Samples(), gq.Samples()) {
					t.Errorf("%s: decoded %d samples of %d, want %d of %d",
						name, len(gq.Samples()), gq.Count(), len(wq.Samples()), wq.Count())
				}
				continue
			}
			if w, g := want.Field(i).Interface(), got.Field(i).Interface(); w != g {
				t.Errorf("%s: decoded %v, want %v", name, g, w)
			}
		}
	}
}

// TestStreamRoundTrip: all frames written back-to-back through a Writer
// decode in order through a Reader, ending in clean io.EOF.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	all := frames()
	for _, f := range all {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range all {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		switch v := got.(type) {
		case *Matches:
			got = *v // the Reader's own: a Matches frame comes back unboxed
		case *ReplCut:
			got = *v // and so does a ReplCut
		}
		if !eqFrame(t, want, got) {
			t.Fatalf("frame %d (%s): mismatch", i, KindOf(want))
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

// TestDecodeTruncated: every proper prefix of every encoded frame is
// rejected — with ErrShort when the length prefix promises more, with a
// descriptive error when the body lies about its own structure.
func TestDecodeTruncated(t *testing.T) {
	for _, f := range frames() {
		b := Append(nil, f)
		for cut := 0; cut < len(b); cut++ {
			if _, n, err := Decode(b[:cut]); err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded (consumed %d)", KindOf(f), cut, len(b), n)
			}
		}
	}
}

// TestReaderTruncated: a stream ending mid-frame reports
// io.ErrUnexpectedEOF, distinguishing it from a clean close.
func TestReaderTruncated(t *testing.T) {
	b := Append(nil, Batch{UpTo: 9, Events: []event.Event{sampleEvent()}})
	for _, cut := range []int{1, 3, 4, 5, len(b) - 1} {
		r := NewReader(bytes.NewReader(b[:cut]))
		if _, err := r.Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestDecodeCorrupt: structurally invalid frames are rejected with
// wire-prefixed errors and never panic. The single-byte corruptions of
// every frame are TestDecodeMutations'; these are the framing, the
// crashers fuzzing found and the shapes a byte flip cannot reach.
func TestDecodeCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"zero length":      {0, 0, 0, 0},
		"oversized length": {0xff, 0xff, 0xff, 0xff, byte(KindFinish)},
		"unknown kind":     Append(nil, Finish{})[:4:4],
		"event count lie":  {4, 0, 0, 0, byte(KindBatch), 5, 0, 200},
		"attr count lie":   {8, 0, 0, 0, byte(KindBatch), 5, 0, 1, 0, 0, 1, 250},
		// A uint32 field whose varint does not fit 32 bits: truncated to 32,
		// it would name another shard, version or pattern.
		"migrate shard 2^32+3":  frame(KindMigrate, uvarints(1<<32+3, 0, 0)),
		"batch shard 2^32+3":    frame(KindBatch, uvarints(5, 1<<32+3, 0)),
		"hello version 2^32+9":  frame(KindHello, uvarints(1<<32+9, 1, 0)),
		"match shard 2^32+1":    frame(KindMatches, uvarints(5, 1, 1<<32+1, 5, 0, 2), []byte{0, 0}),
		"match pattern 2^32+42": frame(KindMatches, uvarints(5, 1, 1, 5, 1<<32+42, 2), []byte{0, 0}),
	}
	cases["unknown kind"] = append(cases["unknown kind"], 99)
	for name, b := range corruptReplCuts() {
		cases[name] = b
	}
	for name, b := range corruptMatches() {
		cases[name] = b
	}
	cases["pattern type bomb"] = patternTypeBomb()
	// A byte past the body, inside the declared length, in every kind.
	for _, f := range frames() {
		cases[KindOf(f).String()+" trailing byte"] = withTrailingByte(Append(nil, f))
	}
	for name, b := range cases {
		f, _, err := Decode(b)
		if err == nil {
			t.Errorf("%s: decoded %#v, want error", name, f)
		} else if errors.Is(err, ErrShort) {
			t.Errorf("%s: rejected as a short buffer, not as corrupt: %v", name, err)
		}
	}
}

// retiredFrames are frames of the retired kinds: 12, which carried a
// node's load report up to Version 9 (its old layout with two shards'
// entries, and with none), and 17, which carried a successor's
// session-wide suppression floor up to Version 12 (epoch, boundary and
// count, and all zero).
func retiredFrames() [][]byte {
	return [][]byte{
		frame(12, uvarints(2, 0, 1<<44, 125_000, 1<<52, 3, 7, 0, 0)), frame(12, uvarints(0)),
		frame(17, uvarints(2, 768, 99)), frame(17, uvarints(0, 0, 0)),
	}
}

// TestRetiredKindUnknown: a frame of a retired kind is refused as an
// unknown kind, not decoded as some other layout.
func TestRetiredKindUnknown(t *testing.T) {
	for _, b := range retiredFrames() {
		_, _, err := Decode(b)
		if want := fmt.Sprintf("wire: unknown frame kind %d", b[4]); err == nil || err.Error() != want {
			t.Fatalf("kind %d decoded with error %v, want an unknown frame kind", b[4], err)
		}
	}
}

// TestDecodeMutations: every frame Decode accepts has one encoding. Each
// frames() entry with any one body byte set to any of a spread of values
// either fails to decode — as corrupt, not as short — or decodes to a
// frame that re-encodes to exactly the mutated bytes.
func TestDecodeMutations(t *testing.T) {
	violations := 0
	for _, f := range frames() {
		good := Append(nil, f)
		b := make([]byte, len(good))
		for at := 5; at < len(good); at++ { // past the length prefix and the kind
			for _, v := range []byte{0x00, 0x01, 0x02, 0x04, 0x08, 0x7f, 0x80, 0xff} {
				copy(b, good)
				b[at] = v
				got, _, err := Decode(b)
				if errors.Is(err, ErrShort) {
					t.Fatalf("%s with byte %d set to %#x: rejected as a short buffer: %v", KindOf(f), at, v, err)
				}
				if err != nil {
					continue
				}
				if again := Append(nil, got); !bytes.Equal(again, b) {
					if violations++; violations <= 5 {
						t.Errorf("%s with byte %d set to %#x re-encodes to other bytes:\n  in: %x\n out: %x",
							KindOf(f), at, v, b, again)
					}
				}
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d mutated frames decode to a frame with another encoding", violations)
	}
}

// frame prefixes a hand-written body with its length and kind.
func frame(k Kind, body ...[]byte) []byte {
	b := []byte{0, 0, 0, 0, byte(k)}
	for _, part := range body {
		b = append(b, part...)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// withTrailingByte appends a junk byte to an encoded frame and grows its
// declared length over it.
func withTrailingByte(b []byte) []byte {
	b = append(b[:len(b):len(b)], 0xcc)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// patternTypeBomb is a schema-less PatternAdd whose one position names
// event type 0xbabababababa-odd: compiled, its dispatch table would be
// that many entries long. Found by FuzzDecode, where it killed the process
// with a 48 TB allocation instead of returning an error.
func patternTypeBomb() []byte {
	b := []byte("E\x00\x00\x00\rc\x02\x01\x00\xd8\x04\x04\x00\x00\x01\xba\xba\xba\xba\xba\xba\xba")
	return append(b, make([]byte, 4+int(b[0])-len(b))...) // zeros out to the declared length
}

// corruptReplCuts damages a one-run ReplCut whose every header field is a
// single byte — length prefix, kind, UpTo, Cut, flags, run count, then
// the run's shard, event count, newest timestamp and body length, then
// the body — in each way its decoder must refuse without looking past
// the body's opening count.
func corruptReplCuts() map[string][]byte {
	const flags, events, byteLen = 7, 10, 12
	good := Append(nil, ReplCut{UpTo: 1, Cut: 1, Runs: []ReplRun{
		sealRun(2, event.Event{Type: 1, TS: 5, Seq: 1}, event.Event{Type: 1, TS: 6, Seq: 2}),
	}})
	damage := func(at int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[at] = v
		return b
	}
	// A body length beyond any frame, ahead of the intact body.
	huge := append(append(good[:byteLen:byteLen], 0xff, 0xff, 0xff, 0xff, 0x7f), good[byteLen+1:]...)
	binary.LittleEndian.PutUint32(huge, uint32(len(huge)-4))
	return map[string][]byte{
		"repl-cut unknown flag":            damage(flags, 8),
		"repl-cut count 0 with bytes":      damage(events, 0),
		"repl-cut count not the body's":    damage(events, 1),
		"repl-cut body past the frame end": damage(byteLen, good[byteLen]+1),
		"repl-cut body short of the frame": damage(byteLen, good[byteLen]-1),
		"repl-cut body beyond any frame":   huge,
	}
}

// corruptMatches damages a Matches frame of two records — the frame a
// node answers a cut with — in each way a reader must refuse before any
// of it reaches the collector: a record count the bytes cannot hold, a
// body length that runs past the frame or stops short of the body's end,
// a body cut off mid-event, counts past their caps, a presence tag that is
// neither 0 nor 1, a varint that is not in its shortest form, and a record
// the count does not cover.
func corruptMatches() map[string][]byte {
	plain, kleene, _ := sampleMatches()
	body, kbody := AppendMatchBody(nil, plain), AppendMatchBody(nil, kleene)
	frame := func(count int, recs ...[]byte) []byte {
		f := Matches{UpTo: 5, Count: count}
		for _, r := range recs {
			f.Recs = append(f.Recs, r...)
		}
		return Append(nil, f)
	}
	rec := func(body []byte) []byte { return AppendMatchRecord(nil, 1, 5, 0, body) }
	lying := func(n int, body []byte) []byte { // a record whose length field says n
		r := binary.AppendUvarint([]byte{1, 5, 0}, uint64(n))
		return append(r, body...)
	}
	damaged := func(body []byte, at int, v ...byte) []byte {
		b := append([]byte(nil), body[:at]...)
		b = append(b, v...)
		return append(b, body[at+1:]...)
	}
	return map[string][]byte{
		"matches count past the bytes":    frame(200, rec(body)),
		"matches count short of records":  frame(1, rec(body), rec(body)),
		"matches truncated record":        frame(2, rec(body), rec(body)[:3]),
		"matches body past the frame":     frame(2, rec(body), lying(len(body)+1, body)),
		"matches body beyond any frame":   frame(2, rec(body), lying(MaxFrame+1, body)),
		"matches body length short":       frame(2, rec(body), lying(len(body)-1, body)),
		"matches truncated body":          frame(2, rec(body), rec(body[:len(body)-9])),
		"matches position cap overrun":    frame(1, rec(append(binary.AppendUvarint(nil, maxPositions+1), make([]byte, maxPositions+2)...))),
		"matches position count lie":      frame(1, rec([]byte{99, 0})),
		"matches kleene cap overrun":      frame(1, rec(append(binary.AppendUvarint([]byte{0, 1, 1}, maxKleene+1), make([]byte, 16)...))),
		"matches kleene count lie":        frame(1, rec([]byte{0, 1, 1, 99})),
		"matches presence tag 2":          frame(1, rec(damaged(body, 1, 2))),
		"matches kleene presence tag 2":   frame(1, rec(damaged(kbody, len(kbody)-1, 2))),
		"matches non-minimal body varint": frame(1, rec(damaged(body, 0, 0x83, 0))),
	}
}

// TestMatchBodyCanonical: the three ways to read a body agree. What
// CheckMatchBody accepts decodes, what it refuses does not, and a decoded
// match re-encodes to the bytes it came from — the property that lets
// every layer between a worker and the consumer carry the worker's bytes
// and the emission boundary alone decode them.
func TestMatchBodyCanonical(t *testing.T) {
	plain, kleene, empty := sampleMatches()
	present := &match.Match{Kleene: [][]*event.Event{{}}} // a set that is there and empty
	for _, m := range []*match.Match{plain, kleene, empty, present} {
		b := AppendMatchBody(nil, m)
		if err := CheckMatchBody(b); err != nil {
			t.Fatalf("%v: own encoding refused: %v", m, err)
		}
		got, err := DecodeMatchBody(b, &match.Keeper{})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if again := AppendMatchBody(nil, got); !bytes.Equal(again, b) {
			t.Fatalf("%v re-encodes to other bytes:\n was: %x\n now: %x", m, b, again)
		}
		for cut := 0; cut < len(b); cut++ {
			if CheckMatchBody(b[:cut]) == nil {
				t.Fatalf("%v: body truncated to %d/%d bytes passes the check", m, cut, len(b))
			}
			if _, err := DecodeMatchBody(b[:cut], &match.Keeper{}); err == nil {
				t.Fatalf("%v: body truncated to %d/%d bytes decodes", m, cut, len(b))
			}
		}
		if CheckMatchBody(append(b[:len(b):len(b)], 0)) == nil {
			t.Fatalf("%v: a trailing byte passes the check", m)
		}
	}
}

// TestDecodeSharesOnlyEqualEvents: a decode shares the copy its keeper's
// current slab holds of an event with the same Seq only when the type, the
// timestamp and the attribute bits are the same too — so every decoded
// body re-encodes to its own bytes, whatever was decoded before it — and a
// new slab shares nothing.
func TestDecodeSharesOnlyEqualEvents(t *testing.T) {
	base := event.Event{Type: 1, TS: 10, Seq: 7, Attrs: []float64{1.5, 0}}
	variant := func(f func(*event.Event)) event.Event {
		e := base
		e.Attrs = slices.Clone(base.Attrs)
		f(&e)
		return e
	}
	var k match.Keeper
	decode := func(e event.Event) *match.Match {
		t.Helper()
		b := AppendMatchBody(nil, &match.Match{Events: []*event.Event{&e, nil}})
		m, err := DecodeMatchBody(b, &k)
		if err != nil {
			t.Fatal(err)
		}
		if again := AppendMatchBody(nil, m); !bytes.Equal(again, b) {
			t.Fatalf("%v decodes to a match that re-encodes to other bytes", e)
		}
		return m
	}
	first := decode(base).Events[0]
	if again := decode(base).Events[0]; again != first {
		t.Fatal("one slab decoded two copies of one event")
	}
	k.Match(0, 1<<12, 0, 0) // more room than the slab has: a new one
	if decode(base).Events[0] == first {
		t.Fatal("a new slab shares the last slab's copy")
	}
	for _, e := range []event.Event{
		variant(func(e *event.Event) { e.Attrs[1] = math.Copysign(0, -1) }), // == 0, other bits
		variant(func(e *event.Event) { e.Attrs[0] = 2.5 }),
		variant(func(e *event.Event) { e.Attrs = e.Attrs[:1] }),
		variant(func(e *event.Event) { e.Type = 2 }),
		variant(func(e *event.Event) { e.TS = 11 }),
	} {
		if kept := decode(base).Events[0]; decode(e).Events[0] == kept {
			t.Errorf("%v shares the copy of %v, the event with its Seq", e, base)
		}
	}
}

// TestMatchesEach: Each hands out the records as appended, their bodies
// aliasing the frame's bytes, and visits nothing past the first unsound
// record.
func TestMatchesEach(t *testing.T) {
	plain, kleene, _ := sampleMatches()
	want := []MatchRecord{
		{Shard: 3, Seq: 7, Pattern: 42, Body: AppendMatchBody(nil, plain)},
		{Shard: 0, Seq: 9, Pattern: 1, Body: AppendMatchBody(nil, kleene)},
	}
	f := matchesOf(9, want...)
	var got []MatchRecord
	if err := f.Each(func(r MatchRecord) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Each yields %+v, want %+v", got, want)
	}
	if &got[1].Body[0] != &f.Recs[len(f.Recs)-len(got[1].Body)] {
		t.Fatal("a record's body is a copy, not the frame's bytes")
	}
	f.Recs = f.Recs[:len(f.Recs)-1]
	got = got[:0]
	if err := f.Each(func(r MatchRecord) { got = append(got, r) }); err == nil || len(got) != 1 {
		t.Fatalf("truncated frame: error %v after %d records, want an error after the first", err, len(got))
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := matchesOf(9).Each(nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("checking an empty frame allocates %.1f times", avg)
	}
}

// TestReaderHandsOverMatches: a Matches frame read off a stream keeps its
// records when the Reader moves on — its bytes are the consumer's, not the
// Reader's reusable buffer.
func TestReaderHandsOverMatches(t *testing.T) {
	plain, kleene, _ := sampleMatches()
	first := matchesOf(1, MatchRecord{Seq: 1, Body: AppendMatchBody(nil, plain)})
	second := matchesOf(2, MatchRecord{Seq: 2, Body: AppendMatchBody(nil, kleene)})
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, f := range []Frame{first, second, Batch{UpTo: 3, Events: make([]event.Event, 64)}} {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&stream)
	var held []Matches
	for i := 0; i < 3; i++ {
		f, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := f.(*Matches); ok {
			held = append(held, *m)
		}
	}
	for i, want := range []Matches{first, second} {
		if !bytes.Equal(held[i].Recs, want.Recs) {
			t.Fatalf("frame %d's records changed under a later Read", i)
		}
	}
}

// TestReaderMatchesBuffer: under SetMatchesBuffer a Matches frame is read
// into the buffer the hook hands out — its records alias it — and no other
// frame asks for one.
func TestReaderMatchesBuffer(t *testing.T) {
	plain, _, _ := sampleMatches()
	f := matchesOf(1, MatchRecord{Seq: 1, Body: AppendMatchBody(nil, plain)})
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, fr := range []Frame{Heartbeat{}, f, Batch{UpTo: 3, Events: make([]event.Event, 4)}} {
		if err := w.Write(fr); err != nil {
			t.Fatal(err)
		}
	}
	own := make([]byte, 4096)
	asked := 0
	r := NewReader(&stream)
	r.SetMatchesBuffer(func(n int) []byte { asked++; return own[:n] })
	for i := 0; i < 3; i++ {
		fr, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := fr.(*Matches); ok {
			if !bytes.Equal(m.Recs, f.Recs) || &m.Recs[0] != &own[cap(own)-cap(m.Recs)] {
				t.Fatal("the frame's records are not in the hook's buffer")
			}
		}
	}
	if asked != 1 {
		t.Fatalf("the hook was asked %d times for one Matches frame among three", asked)
	}
}

// runCases are event sequences the run codec must carry exactly: the
// float edge values by bit pattern, timestamps and sequence numbers that
// go backwards or wrap, no attributes, no events, and counts on both
// sides of the count varint's width changes.
func runCases() map[string][]event.Event {
	long := func(n int) []event.Event {
		evs := make([]event.Event, n)
		for i := range evs {
			evs[i] = event.Event{Type: i % 3, TS: event.Time(i / 2), Seq: uint64(i + 1), Attrs: []float64{float64(i)}}
		}
		return evs
	}
	return map[string][]event.Event{
		"empty":  nil,
		"sample": {sampleEvent(), {Type: 0, TS: 0, Seq: 1}},
		"float edges": {{Type: 1, TS: 1, Seq: 1, Attrs: []float64{
			math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Copysign(0, -1), 0,
			math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		}}},
		"decreasing ts":   {{TS: 100, Seq: 1}, {TS: -50, Seq: 2}, {TS: math.MinInt64, Seq: 3}, {TS: math.MaxInt64, Seq: 4}},
		"wrapping seq":    {{Seq: math.MaxUint64}, {Seq: 0}, {Seq: 1 << 63}, {Seq: 3}},
		"zero attributes": {{Type: 7, TS: 1, Seq: 1}, {Type: 7, TS: 1, Seq: 2, Attrs: []float64{}}},
		"127 events":      long(127),
		"128 events":      long(128),
		"16384 events":    long(16384),
	}
}

// TestRunEncoderIsTheBatchBody: the bytes are the contract. For any
// event sequence the incremental encoder yields exactly what follows the
// watermark in the Batch frame of the same events — so a BatchRaw of the
// run is that frame, byte for byte — with the count and newest timestamp
// a coordinator reads off it; and a reused encoder yields the same bytes
// again.
func TestRunEncoderIsTheBatchBody(t *testing.T) {
	var reused RunEncoder
	for name, evs := range runCases() {
		want := Append(nil, Batch{Shard: 4, Events: evs})
		run := sealRun(4, evs...)
		if run.Shard != 4 || run.Events != len(evs) {
			t.Errorf("%s: sealed as shard %d with %d events, want shard 4 with %d", name, run.Shard, run.Events, len(evs))
		}
		if len(evs) > 0 && run.LastTS != evs[len(evs)-1].TS {
			t.Errorf("%s: LastTS %d, want the last event's %d", name, run.LastTS, evs[len(evs)-1].TS)
		}
		// Payload: length prefix, kind, the one-byte watermark 0 and shard
		// 4, the run.
		if body := want[4+1+1+1:]; len(evs) > 0 && !bytes.Equal(run.Body, body) {
			t.Errorf("%s: run body differs from the Batch frame's", name)
		}
		if got := Append(nil, BatchRaw{Shard: 4, Run: run.Body}); !bytes.Equal(got, want) {
			t.Errorf("%s: BatchRaw frame differs from the Batch frame", name)
		}
		for _, reuse := range []bool{true, false} {
			reused.Reset(reuse)
			for i := range evs {
				reused.Append(&evs[i])
			}
			if again := reused.Seal(4); !bytes.Equal(again.Body, run.Body) || again.Events != run.Events || again.LastTS != run.LastTS {
				t.Errorf("%s: encoder reset with reuse=%v sealed a different run", name, reuse)
			}
		}
	}
}

// TestDecodeRunIsTheBatchDecode: decoding a run into an arena yields the
// events a Reader decodes from the Batch frame of it — the same events
// that were encoded, bit for bit — and every truncation of a run is an
// error, never a panic.
func TestDecodeRunIsTheBatchDecode(t *testing.T) {
	reencode := func(evs []*event.Event) []byte {
		flat := make([]event.Event, len(evs))
		for i, ev := range evs {
			flat[i] = *ev
		}
		return Append(nil, Batch{Events: flat})
	}
	for name, evs := range runCases() {
		want := Append(nil, Batch{Events: evs})
		r := NewReader(bytes.NewReader(want))
		r.SetDecodeArena(&match.Arena{})
		f, err := r.Read()
		if err != nil {
			t.Fatalf("%s: reader: %v", name, err)
		}
		if got := reencode(f.(*BatchView).Events); !bytes.Equal(got, want) {
			t.Errorf("%s: the Reader's arena decode does not re-encode to the frame", name)
		}
		body := sealRun(0, evs...).Body
		if body == nil {
			body = []byte{0} // Seal gives an empty run no body; its encoding is the zero count
		}
		got, err := DecodeRun(&match.Arena{}, body, nil)
		if err != nil {
			t.Fatalf("%s: DecodeRun: %v", name, err)
		}
		if !bytes.Equal(reencode(got), want) {
			t.Errorf("%s: DecodeRun does not re-encode to the frame", name)
		}
		if len(body) > 4096 {
			continue // the truncation sweep is quadratic
		}
		for cut := 0; cut < len(body); cut++ {
			if _, err := DecodeRun(&match.Arena{}, body[:cut], nil); err == nil {
				t.Fatalf("%s: run truncated to %d/%d bytes decoded", name, cut, len(body))
			}
		}
		if _, err := DecodeRun(&match.Arena{}, append(body[:len(body):len(body)], 0), nil); err == nil {
			t.Fatalf("%s: run with a trailing byte decoded", name)
		}
	}
}

// TestBatchDeltaCompact: on a realistic cut (monotone timestamps,
// consecutive sequence numbers) the delta encoding spends one byte per
// timestamp and one per sequence number; the absolute v1 layout needed
// up to five of each. The frame must stay well under the absolute size.
func TestBatchDeltaCompact(t *testing.T) {
	evs := make([]event.Event, 1000)
	absolute := 0
	for i := range evs {
		evs[i] = event.Event{
			Type:  i % 5,
			TS:    event.Time(1 << 40),
			Seq:   uint64(1<<50 + i),
			Attrs: []float64{float64(i)},
		}
		absolute = len(appendEvent(nil, &evs[i]))
	}
	b := Append(nil, Batch{UpTo: 1<<50 + 1000, Events: evs})
	perEvent := (len(b) - 16) / len(evs)
	if perEvent >= absolute {
		t.Fatalf("delta batch spends %d bytes/event, absolute layout %d", perEvent, absolute)
	}
	// And it still round-trips exactly.
	f, _, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.(Batch); !reflect.DeepEqual(got.Events, evs) {
		t.Fatal("delta batch round-trip mismatch")
	}
}

// TestBatchDeltaNonMonotone: the codec must round-trip batches whose
// timestamps or sequence numbers go backwards (the deltas are signed and
// wrap in two's complement), even though the cluster never produces them.
func TestBatchDeltaNonMonotone(t *testing.T) {
	evs := []event.Event{
		{Type: 1, TS: 100, Seq: math.MaxUint64},
		{Type: 2, TS: -50, Seq: 3},
		{Type: 0, TS: -50, Seq: 1},
	}
	b := Append(nil, Batch{UpTo: 0, Events: evs})
	f, n, err := Decode(b)
	if err != nil || n != len(b) {
		t.Fatalf("decode: %v (consumed %d/%d)", err, n, len(b))
	}
	if got := f.(Batch); !reflect.DeepEqual(got.Events, evs) {
		t.Fatalf("round-trip mismatch: %#v", f)
	}
}

// TestPatternShipping: a shipped pattern and schema rebuild into
// semantically identical structures — same textual rendering, same
// type/attribute registry — and an Assign without payload stays nil.
func TestPatternShipping(t *testing.T) {
	s := sampleSchema()
	p := samplePattern(s)
	f, _, err := Decode(Append(nil, Assign{Total: 3, Schema: s, Patterns: []PatternEntry{{ID: 5, Tenant: 2, Pattern: p}}}))
	if err != nil {
		t.Fatal(err)
	}
	got := f.(Assign)
	if len(got.Patterns) != 1 || got.Patterns[0].ID != 5 || got.Patterns[0].Tenant != 2 ||
		got.Patterns[0].Pattern.String() != p.String() {
		t.Fatalf("shipped set %+v, want pattern 5 of tenant 2 rendering %q", got.Patterns, p)
	}
	if got.Schema == nil || got.Schema.NumTypes() != s.NumTypes() {
		t.Fatal("shipped schema lost types")
	}
	for i := 0; i < s.NumTypes(); i++ {
		if got.Schema.TypeName(i) != s.TypeName(i) ||
			!reflect.DeepEqual(got.Schema.Attrs(i), s.Attrs(i)) {
			t.Fatalf("type %d: %q/%v, want %q/%v", i,
				got.Schema.TypeName(i), got.Schema.Attrs(i), s.TypeName(i), s.Attrs(i))
		}
	}

	f, _, err = Decode(Append(nil, Assign{Total: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.(Assign); got.Patterns != nil || got.Schema != nil {
		t.Fatal("payload-free assign grew a pattern or schema")
	}

	// A shipped pattern that fails builder validation (predicate position
	// out of range) is a decode error, not a bad pattern object.
	bad := samplePattern(s)
	bad.Preds = append([]pattern.Pred(nil), bad.Preds...)
	bad.Preds[0].L = 99
	if _, _, err := Decode(Append(nil, Assign{Schema: s, Patterns: []PatternEntry{{Pattern: bad}}})); err == nil {
		t.Fatal("invalid shipped pattern accepted")
	}
}

// TestFingerprint: stable, input-sensitive.
func TestFingerprint(t *testing.T) {
	a := Fingerprint("SEQ(A,B,C)")
	if a != Fingerprint("SEQ(A,B,C)") {
		t.Fatal("fingerprint not deterministic")
	}
	if a == Fingerprint("SEQ(A,B,D)") || a == Fingerprint("") {
		t.Fatal("fingerprint collisions on trivially different inputs")
	}
}

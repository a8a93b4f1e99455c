package wire

import (
	"bytes"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
)

// fuzzMemoryLimit caps the heap of a fuzz worker and fuzzAllocBound what
// one input may allocate in it: the fixed part covers what a few bytes can
// legitimately buy (a Reader's buffer for a frame whose prefix says
// MaxFrame; a schema, a compiled pattern and its dispatch tables), the
// per-byte part the decoded structs, which are wider than their
// encodings. An input past the bound fails with the input saved; without
// the check it would pass until the day one kills the process, which
// saves nothing.
const fuzzMemoryLimit = 1 << 30

func fuzzAllocBound(input int) uint64 { return MaxFrame + 64<<20 + 512*uint64(input) }

var limitMemory sync.Once

// allocated reports the bytes this process has allocated so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzDecode asserts the codec's crash-safety and consistency contract on
// arbitrary bytes:
//
//   - Decode never panics, never over-consumes the buffer and never
//     allocates out of proportion to it (fuzzAllocBound);
//   - whatever Decode accepts, Append re-encodes into a frame that
//     decodes again to the same canonical bytes (decode∘encode is
//     idempotent — the varint layer may accept a non-minimal input
//     encoding once, but the re-encoding is a fixed point).
//
// CI runs this for a short smoke interval on every push (like the SASE
// parser fuzzer); longer runs are local.
func FuzzDecode(f *testing.F) {
	for _, fr := range frames() {
		f.Add(Append(nil, fr))
	}
	// Hand-made corrupt shapes from the unit tests.
	f.Add([]byte{0, 0, 0, 0})
	// Pattern lifecycle frames and corrupt Assign sets: an entry without
	// a pattern, and an entry count the frame cannot hold.
	f.Add(Append(nil, Assign{Total: 1, Patterns: []PatternEntry{{ID: 1}}}))
	f.Add([]byte{7, 0, 0, 0, byte(KindAssign), 0, 1, 1, 0, 0xff, 0x1f})
	overcount := Append(nil, Metrics{})
	overcount[len(overcount)-2] = 9 // pattern-metrics count beyond the frame
	f.Add(overcount)
	f.Add(Append(nil, PatternRemove{ID: 7}))
	f.Add(Append(nil, PatternAdd{Entry: PatternEntry{ID: 1}})) // invalid: no pattern
	f.Add([]byte{5, 0, 0, 0, byte(KindPatternAdd), 1, 0, 3})   // bad presence tag
	f.Add(patternTypeBomb())
	f.Add([]byte{1, 0, 0, 0, 99})
	// A Matches frame's records travel as bytes too (frames() has the
	// sound ones: empty, one record, Kleene, a MaxUint64 flush tag).
	for _, b := range corruptMatches() {
		f.Add(b)
	}
	f.Add(append(Append(nil, Watermark{UpTo: 1}), Append(nil, Finish{})...))
	// Lease arbitration and mirror-handover frames, plus corrupt shapes
	// the flag validators must reject cleanly.
	f.Add(Append(nil, LeaseRenew{Holder: 1, Epoch: 2, TTLMillis: 2000, EmittedUpTo: 99, Count: 7}))
	f.Add(Append(nil, LeaseFence{Granted: true, Holder: 1, Epoch: 2}))
	f.Add(Append(nil, HandoverState{Dead: true, Cause: "x", Owner: []uint32{0}}))
	f.Add([]byte{2, 0, 0, 0, byte(KindLeaseFence), 0xfe})                         // unknown fence flags
	f.Add([]byte{8, 0, 0, 0, byte(KindHandoverState), 0, 0, 0, 0, 0, 0, 0xf0, 0}) // unknown handover flags
	// A ReplCut's runs travel as bytes: the ways its metadata can lie
	// about them.
	for _, b := range corruptReplCuts() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<20 {
			return // linear decoder; keep fuzzing fast
		}
		limitMemory.Do(func() { debug.SetMemoryLimit(fuzzMemoryLimit) })
		before := allocated()
		defer func() {
			if spent := allocated() - before; spent > fuzzAllocBound(len(b)) {
				t.Fatalf("%d input bytes made the codec allocate %d", len(b), spent)
			}
		}()
		fr, n, err := Decode(b)
		// The worker's decoder sees the same bytes through a Reader with
		// an arena: it must agree with Decode on what a Batch frame is.
		ar := NewReader(bytes.NewReader(b))
		ar.SetDecodeArena(&match.Arena{})
		view, aerr := ar.Read()
		if len(b) > 4 && Kind(b[4]) == KindBatch && (err == nil) != (aerr == nil) {
			t.Fatalf("Decode says %v, the arena decode of the same batch frame %v", err, aerr)
		}
		if err != nil {
			if fr != nil {
				t.Fatalf("Decode returned both frame %#v and error %v", fr, err)
			}
			return
		}
		if v, ok := view.(*BatchView); ok {
			flat := Batch{UpTo: v.UpTo}
			for _, ev := range v.Events {
				flat.Events = append(flat.Events, *ev)
			}
			if !bytes.Equal(Append(nil, flat), Append(nil, fr)) {
				t.Fatalf("the arena decode of a batch frame differs from Decode's")
			}
		}
		if rc, ok := fr.(ReplCut); ok {
			// A mirrored run is opaque until a worker gets it: whatever
			// the bytes are, decoding them is an error or a run of the
			// declared size, never a panic.
			for _, run := range rc.Runs {
				if evs, err := DecodeRun(&match.Arena{}, run.Body, nil); err == nil && len(evs) != run.Events {
					t.Fatalf("a run declared as %d events decoded to %d", run.Events, len(evs))
				}
			}
		}
		if n < 5 || n > len(b) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(b))
		}
		enc := Append(nil, fr)
		fr2, n2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		if enc2 := Append(nil, fr2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not a fixed point:\n 1st: %x\n 2nd: %x", enc, enc2)
		}
	})
}

// FuzzCheckMatchBody holds the check a reader runs on every match body it
// takes in against the decoder the emission boundary runs later: they
// accept exactly the same bytes — so a body that passed the reader cannot
// fail at emission — and what decodes re-encodes to the bytes it came
// from, so carrying the worker's bytes and carrying the match are the
// same thing.
func FuzzCheckMatchBody(f *testing.F) {
	plain, kleene, empty := sampleMatches()
	for _, m := range []*match.Match{plain, kleene, empty, {Kleene: [][]*event.Event{{}}}} {
		f.Add(AppendMatchBody(nil, m))
	}
	for _, b := range corruptMatches() {
		f.Add(b[4+1+2:]) // past length, kind, watermark and count: records, bodies inside
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<20 {
			return
		}
		limitMemory.Do(func() { debug.SetMemoryLimit(fuzzMemoryLimit) })
		before := allocated()
		cerr := CheckMatchBody(b)
		m, derr := DecodeMatchBody(b)
		if spent := allocated() - before; spent > fuzzAllocBound(len(b)) {
			t.Fatalf("%d input bytes made the decoder allocate %d", len(b), spent)
		}
		if (cerr == nil) != (derr == nil) {
			t.Fatalf("CheckMatchBody says %v, DecodeMatchBody %v", cerr, derr)
		}
		if derr != nil {
			return
		}
		if again := AppendMatchBody(nil, m); !bytes.Equal(again, b) {
			t.Fatalf("a decoded body re-encodes to other bytes:\n was: %x\n now: %x", b, again)
		}
	})
}

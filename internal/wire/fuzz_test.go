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
//   - whatever Decode accepts, Append re-encodes to exactly the bytes it
//     consumed: an accepted frame has one encoding.
//
// The seeds are every frames() entry and every frame of the retired kinds
// 12 and 17, each also with a trailing byte inside its declared length, plus
// what no byte flip of them reaches: the framing, two frames in one
// buffer, and the crashers of the unit tests.
// CI runs this for a short smoke interval on every push (like the SASE
// parser fuzzer); longer runs are local.
func FuzzDecode(f *testing.F) {
	for _, fr := range frames() {
		f.Add(Append(nil, fr))
	}
	for _, fr := range frames() {
		f.Add(withTrailingByte(Append(nil, fr)))
	}
	for _, b := range retiredFrames() {
		f.Add(b)
		f.Add(withTrailingByte(b))
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 99})
	f.Add(append(Append(nil, Watermark{UpTo: 1}), Append(nil, Finish{})...))
	f.Add(patternTypeBomb())
	for _, b := range corruptMatches() {
		f.Add(b)
	}
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
		// an arena, the standby's through a Reader that keeps the ReplCut
		// it returns: each must agree with Decode on what its frame is.
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
		if len(b) > 4 && Kind(b[4]) == KindReplCut && (err == nil) != (aerr == nil) {
			t.Fatalf("Decode says %v, the Reader's decode of the same repl-cut frame %v", err, aerr)
		}
		if v, ok := view.(*ReplCut); ok && !bytes.Equal(Append(nil, *v), Append(nil, fr)) {
			t.Fatalf("the Reader's decode of a repl-cut frame differs from Decode's")
		}
		if v, ok := view.(*BatchView); ok {
			flat := Batch{UpTo: v.UpTo, Shard: v.Shard}
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
		if enc := Append(nil, fr); !bytes.Equal(enc, b[:n]) {
			t.Fatalf("a decoded frame re-encodes to other bytes:\n  in: %x\n out: %x", b[:n], enc)
		}
	})
}

// FuzzCheckMatchBody holds the check a reader runs on every match body it
// takes in against the decoder the emission boundary runs later: they
// accept exactly the same bytes — so a body that passed the reader cannot
// fail at emission — and what decodes re-encodes to the bytes it came
// from, so carrying the worker's bytes and carrying the match are the
// same thing. Each input is decoded twice into one keeper, in one slab:
// the second decode shares the first one's events, and re-encodes to the
// input too.
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
		var k match.Keeper
		m, derr := DecodeMatchBody(b, &k)
		if spent := allocated() - before; spent > fuzzAllocBound(len(b)) {
			t.Fatalf("%d input bytes made the decoder allocate %d", len(b), spent)
		}
		if (cerr == nil) != (derr == nil) {
			t.Fatalf("CheckMatchBody says %v, DecodeMatchBody %v", cerr, derr)
		}
		if derr != nil {
			return
		}
		twice, err := DecodeMatchBody(b, &k)
		if err != nil {
			t.Fatalf("decodes once, not twice: %v", err)
		}
		for _, m := range []*match.Match{m, twice} {
			if again := AppendMatchBody(nil, m); !bytes.Equal(again, b) {
				t.Fatalf("a decoded body re-encodes to other bytes:\n was: %x\n now: %x", b, again)
			}
		}
	})
}

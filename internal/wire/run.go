package wire

import (
	"encoding/binary"
	"math"

	"acep/internal/event"
	"acep/internal/match"
)

// Batch is one global shard's run of a cut, bound for the node that owns
// the shard: the watermark the frame seals (0: none), the shard the
// ingress placed the events on, and the events (possibly none).
type Batch struct {
	UpTo   uint64
	Shard  uint32
	Events []event.Event
}

// BatchView is a Batch frame as a Reader with a decode arena
// (SetDecodeArena) decodes it: every event materialized once, in a block
// of the arena, and pointed at. The view and its Events header are the
// Reader's scratch until its next Read, so the steady state allocates
// nothing; the events live until the arena releases the block or, once
// taken (match.Arena.Take), its new owner does. Senders encode Batch or
// BatchRaw.
type BatchView struct {
	UpTo   uint64
	Shard  uint32
	Events []*event.Event
}

// BatchRaw is a pre-encoded Batch: Run is the run that follows the
// watermark and the shard (nil: the empty run of a bare watermark frame),
// so its frame is the Batch's, byte for byte, with no event struct on the
// sending side. It decodes as a Batch, or as a BatchView where the
// receiver decodes into an arena, as a node does.
type BatchRaw struct {
	UpTo  uint64
	Shard uint32
	Run   []byte
}

// ReplRun is one shard's run of a sealed cut as every layer above a
// worker holds it: the encoded Body and what a coordinator needs of it
// without decoding — whose it is, its event count (the journal's
// accounting) and its newest timestamp (the journal's retention clock).
type ReplRun struct {
	Shard  uint32
	Events int
	LastTS event.Time
	Body   []byte
}

// code codes one run of a ReplCut: the metadata, then the body. A decoder
// copies the body out of the frame and reads only its opening count,
// which must be Events: the mirror's accounting may not drift from what a
// worker later decodes.
func (r *ReplRun) code(c *codec) {
	c.u32(&r.Shard)
	if n := c.count(r.Events, maxBatchEvents, 4, "repl run event"); !c.enc {
		r.Events = n
	}
	c.i64((*int64)(&r.LastTS))
	n := c.count(len(r.Body), MaxFrame, 1, "repl run byte")
	if c.enc {
		c.b = append(c.b, r.Body...)
	} else if c.err == nil {
		head := codec{b: c.b[c.off : c.off+n]}
		if r.Events == 0 || head.uvarint() != uint64(r.Events) {
			c.fail("repl run of shard %d declares %d events over a %d-byte body that does not open with that count", r.Shard, r.Events, n)
		}
		r.Body = append([]byte(nil), head.b...)
		c.off += n
	}
}

// encode appends a Batch's body: the watermark, the shard, the run.
func (v Batch) encode(c *codec) {
	c.u64(&v.UpTo)
	c.u32(&v.Shard)
	c.count(len(v.Events), maxBatchEvents, 4, "batch event")
	var prevTS event.Time
	var prevSeq uint64
	for i := range v.Events {
		ev := &v.Events[i]
		c.b = appendEventDelta(c.b, ev, prevTS, prevSeq)
		prevTS, prevSeq = ev.TS, ev.Seq
	}
}

// encode appends a BatchRaw's watermark and shard and returns the run
// that follows them; a nil run is encoded here, as its zero count.
func (v BatchRaw) encode(c *codec) (tail []byte) {
	c.u64(&v.UpTo)
	c.u32(&v.Shard)
	if len(v.Run) == 0 {
		c.b = append(c.b, 0)
	}
	return v.Run
}

// batch decodes a Batch body into events of its own: the run decoded by
// DecodeRun, the one run decoder there is, and copied out of its block.
func (c *codec) batch() Batch {
	v := Batch{UpTo: c.uvarint()}
	if c.u32(&v.Shard); c.err != nil {
		return v
	}
	evs, err := DecodeRun(&match.Arena{}, c.b[c.off:], nil)
	if c.off, c.err = len(c.b), err; err == nil && len(evs) > 0 {
		v.Events = make([]event.Event, len(evs))
	}
	for i := range v.Events {
		if v.Events[i] = *evs[i]; len(evs[i].Attrs) == 0 {
			v.Events[i].Attrs = nil
		}
	}
	return v
}

// appendEventDelta encodes an event against the previous one of its run:
// timestamps and sequence numbers are near-monotone within a cut, so the
// signed deltas almost always take one byte, and wrap in two's complement
// so that any input round-trips.
func appendEventDelta(dst []byte, ev *event.Event, prevTS event.Time, prevSeq uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(ev.Type))
	dst = binary.AppendVarint(dst, int64(ev.TS-prevTS))
	dst = binary.AppendVarint(dst, int64(ev.Seq-prevSeq))
	return appendAttrs(dst, ev.Attrs)
}

func appendAttrs(dst []byte, attrs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for _, a := range attrs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a))
	}
	return dst
}

// runHead is the room a RunEncoder keeps in front of the events for the
// count that opens the run: the count is known only at the seal, and a
// varint's width depends on its value.
const runHead = binary.MaxVarintLen64

// RunsPerChunk is how many runs at an encoder's peak one chunk holds (see
// Reset): the room a chunk loses at its end, where the next run might not
// fit, is less than one run's, and a cold shard's chunk pins a few of its
// own small runs, not a floor sized for a hot one.
const RunsPerChunk = 16

// chunkSize rounds a chunk of n bytes up to what the allocator hands out
// for it anyway, so the chunk's room is all of it: above 32 KiB, whole
// 8 KiB pages.
func chunkSize(n int) int {
	const page = 8 << 10
	if n <= 32<<10 {
		return n
	}
	return (n + page - 1) &^ (page - 1)
}

// RunEncoder builds one run event by event — the ingress's cut buffer.
// The zero value is ready to use.
type RunEncoder struct {
	buf     []byte // runHead spare bytes, then the delta-coded events
	peak    int    // the recent runs' largest length, decaying (see Reset)
	n       int
	prevTS  event.Time
	prevSeq uint64
}

// Append encodes ev onto the run. Nothing of ev is retained.
func (e *RunEncoder) Append(ev *event.Event) {
	if len(e.buf) == 0 {
		e.buf = append(e.buf, make([]byte, runHead)...)
	}
	e.buf = appendEventDelta(e.buf, ev, e.prevTS, e.prevSeq)
	e.prevTS, e.prevSeq = ev.TS, ev.Seq
	e.n++
}

// Events reports how many events the open run holds.
func (e *RunEncoder) Events() int { return e.n }

// Seal closes the run and returns it; Body aliases the encoder's storage
// until Reset lets go of it, and is capped at its length, so an append to
// it cannot reach the run carved after it. An empty run seals to a
// ReplRun without a body.
func (e *RunEncoder) Seal(shard uint32) ReplRun {
	if e.n == 0 {
		return ReplRun{Shard: shard}
	}
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], uint64(e.n))
	copy(e.buf[runHead-k:], count[:k])
	n := len(e.buf)
	return ReplRun{Shard: shard, Events: e.n, LastTS: e.prevTS, Body: e.buf[runHead-k : n : n]}
}

// Reset starts the next run. With reuse it overwrites the last one's
// storage, legal only once nothing reads the sealed body. Otherwise the
// body keeps its bytes and the next run is carved from the storage after
// them, the rest of the encoder's chunk, if a run at the recent runs'
// peak fits there with room to spare; if not, from a new chunk of
// RunsPerChunk such runs. The peak forgets a sixteenth a run: a shard's
// runs are of similar length, but where the router drops the types no
// pattern reads, that length follows the stream's type mix, and a run
// outgrowing its room costs a regrowth. A chunk lives as long as any run
// carved from it is kept.
func (e *RunEncoder) Reset(reuse bool) {
	if reuse {
		e.buf = e.buf[:0]
	} else if n := len(e.buf); n > 0 {
		e.peak = max(n, e.peak-e.peak/16)
		need := e.peak + e.peak/8 + 64
		if rest := e.buf[n:]; cap(rest) >= need {
			e.buf = rest
		} else {
			e.buf = make([]byte, 0, chunkSize((RunsPerChunk-1)*e.peak+need))
		}
	}
	e.n, e.prevTS, e.prevSeq = 0, 0, 0
}

// DecodeRun decodes a run into a block of its own in a (match.Arena.Open;
// none for an empty run): every event is written in place into the block,
// which the caller can lift out with Take, and pointed at from evs[:0],
// the caller's scratch. It is the one run decoder: a Reader runs it on a
// Batch frame's run, and anyone holding a sealed run's body can run it
// directly; corrupt bytes are an error, never a panic.
func DecodeRun(a *match.Arena, run []byte, evs []*event.Event) ([]*event.Event, error) {
	c := &codec{b: run}
	n := c.count(0, maxBatchEvents, 4, "batch event")
	if cap(evs) < n {
		evs = make([]*event.Event, 0, n)
	}
	evs = evs[:0]
	var dst *match.Block
	if n > 0 { // a bare watermark frame's empty run opens nothing
		dst = a.Open()
		// An attribute value is 8 bytes of the run, so the bytes left bound
		// their number: nothing relocates while the run decodes.
		dst.Reserve(n, (len(run)-c.off)/8)
	}
	var prevTS event.Time
	var prevSeq uint64
	for i := 0; i < n && c.err == nil; i++ {
		typ := int(c.uvarint())
		ts := prevTS + event.Time(c.varint())
		seq := prevSeq + uint64(c.varint())
		na := c.count(0, maxAttrs, 8, "attribute")
		if c.err != nil {
			break
		}
		ev := dst.Alloc(typ, ts, seq, na)
		for k := 0; k < na && c.err == nil; k++ {
			ev.Attrs[k] = c.float()
		}
		evs = append(evs, ev)
		prevTS, prevSeq = ts, seq
	}
	if c.err == nil && c.off != len(run) {
		c.fail("batch frame has %d trailing bytes", len(run)-c.off)
	}
	return evs, c.err
}

package wire

import (
	"errors"
	"io"

	"acep/internal/event"
	"acep/internal/match"
)

// Writer frames messages onto an io.Writer, one underlying write per
// frame — two for a BatchRaw or Matches, whose run or records go out as
// they are — so one goroutine owning it never interleaves frames.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write encodes and sends one frame.
func (w *Writer) Write(f Frame) error {
	var tail []byte
	w.buf, tail = appendFrame(w.buf[:0], f)
	if _, err := w.w.Write(w.buf); err != nil || len(tail) == 0 {
		return err
	}
	_, err := w.w.Write(tail)
	return err
}

// Reader decodes frames from an io.Reader. A clean end of stream at a
// frame boundary returns io.EOF; a stream ending mid-frame returns
// io.ErrUnexpectedEOF.
type Reader struct {
	r    io.Reader
	head [5]byte // length prefix and kind
	buf  []byte

	// Zero-copy batch decode state (SetDecodeArena).
	arena *match.Arena
	evs   []*event.Event
	view  BatchView

	frame func(n int) []byte // a Matches frame's buffer (SetMatchesBuffer)
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// SetDecodeArena switches the Reader to zero-copy batch decoding: a Batch
// frame's run decodes into a block of its own that a opens (DecodeRun) and
// is returned as a *BatchView. The Reader does not track the pointers it
// hands out: the block's owner — a, until it releases the block, or the
// consumer that took it (match.Arena.Take) — answers for none outliving
// it. A nil arena restores the copying decode.
func (r *Reader) SetDecodeArena(a *match.Arena) { r.arena = a }

// SetMatchesBuffer has r read each Matches frame into frame(n), a slice
// of length n that the frame then owns, instead of a buffer it makes: a
// consumer that knows when the frame's records are dead hands the bytes
// back that way. Nil restores the made buffer.
func (r *Reader) SetMatchesBuffer(frame func(n int) []byte) { r.frame = frame }

// Read decodes the next frame. What it returns may alias the Reader's
// buffer only until the next Read, with one exception: a Matches frame's
// records are the consumer's to keep.
func (r *Reader) Read() (Frame, error) {
	// A frame is at least its length prefix and kind: a clean end of stream
	// reads none of the five bytes.
	if _, err := io.ReadFull(r.r, r.head[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n, err := frameLen(r.head[:])
	if err != nil {
		return nil, err
	}
	var buf []byte
	if Kind(r.head[4]) == KindMatches {
		// The decoded records alias the frame's bytes and outlive this
		// call: the frame gets a buffer of its own, which goes with it.
		if r.frame != nil {
			buf = r.frame(int(n))
		} else {
			buf = make([]byte, n)
		}
	} else {
		if cap(r.buf) < int(n) {
			r.buf = make([]byte, n)
		}
		buf = r.buf[:n]
	}
	buf[0] = r.head[4]
	if _, err := io.ReadFull(r.r, buf[1:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if r.arena == nil || Kind(buf[0]) != KindBatch {
		return decodePayload(buf)
	}
	// The zero-copy decode: the watermark, then the run straight into the
	// arena.
	c := codec{b: buf, off: 1}
	if r.view.UpTo = c.uvarint(); c.err != nil {
		return nil, c.err
	}
	if r.evs, err = DecodeRun(r.arena, buf[c.off:], r.evs); err != nil {
		return nil, err
	}
	r.view.Events = r.evs
	return &r.view, nil
}

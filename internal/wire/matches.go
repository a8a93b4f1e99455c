package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"acep/internal/event"
	"acep/internal/match"
)

// Matches is a node's answer to one progress step: the matches its
// collector released and the completion watermark they were released
// under — every match tagged at or below UpTo has been sent (zero: none
// advances). Recs holds Count records back to back, built by
// AppendMatchRecord:
//
//	uvarint shard · uvarint seq · uvarint pattern · uvarint body length · body
//
// A decoded frame's Recs alias the buffer it was decoded from, which a
// Reader gives up to the frame, so the records and the bodies Each hands
// out stay valid for as long as anything holds them.
type Matches struct {
	UpTo  uint64
	Count int
	Recs  []byte
}

// MatchRecord is one record of a Matches frame: the merge tag — the global
// shard that emitted the match (not the node: a shard's stream may resume
// on another node mid-run) and the sequence number of the event whose
// processing emitted it — the pattern's id, and the body.
type MatchRecord struct {
	Shard   uint32
	Seq     uint64
	Pattern uint32
	Body    []byte
}

// minMatchRecord is the shortest record: four one-byte varints and the
// body of a match without positions.
const minMatchRecord = 6

// code codes what precedes the records. An encoder leaves the records to
// its caller; a decoder aliases and checks them (Each), so a decoded
// frame's records are walked unchecked (Records).
func (m Matches) code(c *codec) Matches {
	c.u64(&m.UpTo)
	m.Count = c.count(m.Count, maxMatches, minMatchRecord, "match record")
	if !c.enc && c.err == nil {
		m.Recs, c.off = c.b[c.off:], len(c.b)
		c.err = m.Each(nil)
	}
	return m
}

// AppendMatchRecord appends one record of a Matches frame to dst: the
// merge tag, then body, the bytes AppendMatchBody wrote.
func AppendMatchRecord(dst []byte, shard uint32, seq uint64, pattern uint32, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(shard))
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(pattern))
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// Each checks the frame — the count against the bytes, every record's
// tag and length, every body (CheckMatchBody) — and calls visit, when not
// nil, with each record in order; the bodies alias Recs. It allocates
// nothing. On an error the records visited so far were sound, the frame
// is not: a caller that must take all of it or none collects and discards.
func (m Matches) Each(visit func(MatchRecord)) error { return m.walk(true, visit) }

// Records is Each without the body check, for a frame Decode returned:
// decoding checked every body of these immutable bytes, and a second
// check would walk each one again. The tags and lengths are still read
// against the bytes, so a frame that was never decoded cannot take it out
// of bounds — but its bodies are unchecked.
func (m Matches) Records(visit func(MatchRecord)) error { return m.walk(false, visit) }

// walk is Each, with the body check optional.
func (m Matches) walk(check bool, visit func(MatchRecord)) error {
	if m.Count < 0 || uint64(m.Count)*minMatchRecord > uint64(len(m.Recs)) {
		return fmt.Errorf("wire: matches frame declares %d records over %d bytes", m.Count, len(m.Recs))
	}
	c := codec{b: m.Recs}
	for i := 0; i < m.Count; i++ {
		var r MatchRecord
		c.u32(&r.Shard)
		c.u64(&r.Seq)
		c.u32(&r.Pattern)
		n := c.count(0, MaxFrame, 1, "match body byte")
		if c.err != nil {
			return c.err
		}
		r.Body = c.b[c.off : c.off+n : c.off+n]
		c.off += n
		if check {
			if err := CheckMatchBody(r.Body); err != nil {
				return fmt.Errorf("wire: matches frame record %d of %d: %w", i+1, m.Count, err)
			}
		}
		if visit != nil {
			visit(r)
		}
	}
	if c.off != len(m.Recs) {
		c.fail("matches frame has %d trailing bytes", len(m.Recs)-c.off)
	}
	return c.err
}

// AppendMatchBody appends a match's body to dst: the positions, then the
// Kleene sets, every event with absolute timestamp and sequence number (a
// match is position-ordered, so deltas would not pay). Nothing of m is
// retained — safe on a resolver's scratch match.
func AppendMatchBody(dst []byte, m *match.Match) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Events)))
	for _, ev := range m.Events {
		if ev == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = appendEvent(dst, ev)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Kleene)))
	for _, set := range m.Kleene {
		if set == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(set)))
		for _, ev := range set {
			dst = appendEvent(dst, ev)
		}
	}
	return dst
}

func appendEvent(dst []byte, ev *event.Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(ev.Type))
	dst = binary.AppendVarint(dst, int64(ev.TS))
	dst = binary.AppendUvarint(dst, ev.Seq)
	return appendAttrs(dst, ev.Attrs)
}

// CheckMatchBody reports whether b is a match body — exactly what
// DecodeMatchBody accepts — without allocating: corrupt bytes then fail
// the session that brought them, never the emission boundary.
func CheckMatchBody(b []byte) error {
	_, err := DecodeMatchBody(b, nil)
	return err
}

// DecodeMatchBody decodes a match body into k in one walk, where a
// consumer is about to see the match. It shares k's copy of an event only
// if Seq, type, timestamp and attribute bits are all equal, so the match
// re-encodes to b. With k nil it only checks, as strictly: nothing
// trailing, every count bounded by the bytes present — an event by its 4
// bytes at least, an attribute value by its 8, a position by its presence
// byte.
func DecodeMatchBody(b []byte, k *match.Keeper) (*match.Match, error) {
	c := codec{b: b}
	next := func() *event.Event { // one event
		typ, ts, seq := int(c.uvarint()), event.Time(c.varint()), c.uvarint()
		n := c.count(0, maxAttrs, 8, "attribute")
		if k == nil || c.err != nil {
			c.off += 8 * n
			return nil
		}
		if ev := k.Kept(seq); ev != nil && ev.Type == typ && ev.TS == ts && sameBits(ev.Attrs, c.b[c.off:c.off+8*n]) {
			c.off += 8 * n
			return ev
		}
		ev := k.Alloc(typ, ts, seq, n)
		for i := range ev.Attrs {
			ev.Attrs[i] = c.float()
		}
		return ev
	}
	var m *match.Match
	np := c.count(0, maxPositions, 1, "match position")
	if k != nil {
		m = k.Match(np, len(b)/4, len(b)/8, np+len(b)/4)
	}
	for i := 0; i < np && c.err == nil; i++ {
		if c.present(false) {
			if ev := next(); m != nil {
				m.Events[i] = ev
			}
		}
	}
	ns := c.count(0, maxPositions, 1, "kleene position")
	if m != nil && ns > 0 {
		m.Kleene = k.Table(ns)
	}
	for p := 0; p < ns && c.err == nil; p++ {
		if !c.present(false) {
			continue
		}
		n := c.count(0, maxKleene, 4, "kleene event")
		var set []*event.Event
		if m != nil {
			set = k.Set(n)
			m.Kleene[p] = set
		}
		for i := 0; i < n && c.err == nil; i++ {
			if ev := next(); set != nil {
				set[i] = ev
			}
		}
	}
	if c.err == nil && c.off != len(b) {
		c.fail("match body has %d trailing bytes", len(b)-c.off)
	}
	if c.err != nil {
		return nil, c.err
	}
	return m, nil
}

// sameBits reports whether b holds exactly the attribute values' bits.
func sameBits(attrs []float64, b []byte) bool {
	for i, v := range attrs {
		if 8*i+8 > len(b) || math.Float64bits(v) != binary.LittleEndian.Uint64(b[8*i:]) {
			return false
		}
	}
	return 8*len(attrs) == len(b)
}

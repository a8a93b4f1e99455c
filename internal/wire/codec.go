package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/pattern"
	"acep/internal/stats"
)

// ErrShort reports that the buffer ends before one whole frame; stream
// readers treat it as "need more data", not corruption.
var ErrShort = errors.New("wire: short buffer")

// codec is one direction of a layout. An encoder (enc) appends to b; a
// decoder walks b from off and latches the first error, after which it
// reads garbage within bounds and zero counts. The primitives take
// pointers: an encoder only reads through them (a frame's tables may be
// shared), a decoder stores what it read. A frame's code method takes and
// returns the frame by value, so that decoding one is one expression.
type codec struct {
	b   []byte
	off int
	err error
	enc bool
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (c *codec) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	c.advance(n)
	return v
}

func (c *codec) varint() int64 {
	v, n := binary.Varint(c.b[c.off:])
	c.advance(n)
	return v
}

// advance moves past an n-byte varint, refusing one whose last byte adds
// nothing: a shorter one would have encoded the value.
func (c *codec) advance(n int) {
	switch {
	case n <= 0:
		c.fail("truncated or overlong varint at offset %d", c.off)
	case n > 1 && c.b[c.off+n-1] == 0:
		c.fail("varint at offset %d is not in its shortest form", c.off)
	default:
		c.off += n
	}
}

func (c *codec) u8() byte {
	if c.off >= len(c.b) {
		c.fail("truncated byte at offset %d", c.off)
		return 0
	}
	c.off++
	return c.b[c.off-1]
}

func (c *codec) float() float64 {
	if c.off+8 > len(c.b) {
		c.fail("truncated float at offset %d", c.off)
		return 0
	}
	c.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off-8:]))
}

// u64 codes unsigned varints.
func (c *codec) u64(vs ...*uint64) {
	for _, v := range vs {
		if c.enc {
			c.b = binary.AppendUvarint(c.b, *v)
		} else {
			*v = c.uvarint()
		}
	}
}

// u32 codes unsigned varints that must fit 32 bits.
func (c *codec) u32(vs ...*uint32) {
	for _, v := range vs {
		x := uint64(*v)
		if c.u64(&x); x > math.MaxUint32 {
			c.fail("value %d overflows 32 bits", x)
		} else if !c.enc {
			*v = uint32(x)
		}
	}
}

// i64 codes signed varints.
func (c *codec) i64(vs ...*int64) {
	for _, v := range vs {
		if c.enc {
			c.b = binary.AppendVarint(c.b, *v)
		} else {
			*v = c.varint()
		}
	}
}

// int codes an int as a signed varint.
func (c *codec) int(v *int) {
	x := int64(*v)
	if c.i64(&x); !c.enc {
		*v = int(x)
	}
}

// index codes an int in [0, limit) — a position, type or attribute index,
// or the tag of a small enumeration — as an unsigned varint.
func (c *codec) index(v *int, limit int, what string) {
	x := uint64(*v)
	if c.u64(&x); x >= uint64(limit) {
		c.fail("%s %d out of range [0, %d)", what, x, limit)
	} else if !c.enc {
		*v = int(x)
	}
}

// f64 codes floats as their little-endian IEEE-754 bits.
func (c *codec) f64(vs ...*float64) {
	for _, v := range vs {
		if c.enc {
			c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
		} else {
			*v = c.float()
		}
	}
}

// str codes a string of at most maxNameBytes bytes.
func (c *codec) str(v *string, what string) {
	n := c.count(len(*v), maxNameBytes, 1, what)
	if c.enc {
		c.b = append(c.b, *v...)
	} else if c.err == nil {
		*v = string(c.b[c.off : c.off+n])
		c.off += n
	}
}

// count codes a length, which a decoder checks against a cap and the
// bytes left (minSize per element): a corrupt count can force no
// allocation much larger than the frame that claims it.
func (c *codec) count(n int, limit uint64, minSize int, what string) int {
	if c.enc {
		c.b = binary.AppendUvarint(c.b, uint64(n))
		return n
	}
	switch v := c.uvarint(); {
	case c.err != nil:
	case v > limit:
		c.fail("%s count %d exceeds cap %d", what, v, limit)
	case v*uint64(minSize) > uint64(len(c.b)-c.off):
		c.fail("%s count %d exceeds remaining frame bytes", what, v)
	default:
		return int(v)
	}
	return 0
}

// flags codes booleans as the bits of one byte, bits[i] as bit i; a
// decoder refuses any other bit.
func (c *codec) flags(what string, bits ...*bool) {
	var f byte
	for i, b := range bits {
		if *b {
			f |= 1 << i
		}
	}
	if c.enc {
		c.b = append(c.b, f)
		return
	}
	if f = c.u8(); f>>len(bits) != 0 {
		c.fail("%s flags %#x unknown", what, f)
	}
	for i, b := range bits {
		*b = f>>i&1 != 0
	}
}

// present codes a presence byte, 0 or 1, and reports whether what it
// announces follows.
func (c *codec) present(p bool) bool { c.flags("presence", &p); return p && c.err == nil }

// table codes the length of *s; a decoder sizes *s to it (nil for none).
func table[T any](c *codec, s *[]T, limit uint64, minSize int, what string) {
	if n := c.count(len(*s), limit, minSize, what); !c.enc && n > 0 {
		*s = make([]T, n)
	}
}

// owners codes a shard → slot owner table.
func (c *codec) owners(s *[]uint32) {
	table(c, s, maxShards, 1, "shard owner")
	for i := range *s {
		c.u32(&(*s)[i])
	}
}

func (c *codec) strs(s *[]string, limit uint64, what string) {
	table(c, s, limit, 1, what)
	for i := range *s {
		c.str(&(*s)[i], what)
	}
}

// topology codes the owner table and the worker addresses a ReplCut or
// HandoverState carries, each where its flag bit says so. A present table
// decodes non-nil even when empty, so that it re-encodes with its bit.
func (c *codec) topology(owner *[]uint32, addrs *[]string, hasOwner, hasAddrs bool) {
	if hasOwner {
		if c.owners(owner); *owner == nil {
			*owner = []uint32{}
		}
	}
	if hasAddrs {
		if c.strs(addrs, maxNodeAddrs, "node address"); *addrs == nil {
			*addrs = []string{}
		}
	}
}

// schema codes a type/attribute registry in registration order. A
// decoder registers the types through Schema.AddType, so a shipped schema
// passes the validation a local one does.
func (c *codec) schema(sp **event.Schema) {
	s := *sp
	if !c.present(s != nil) {
		return
	}
	if !c.enc {
		s = event.NewSchema()
		*sp = s
	}
	nt := c.count(s.NumTypes(), maxSchemaTypes, 2, "schema type")
	for t := 0; t < nt && c.err == nil; t++ {
		name, attrs := "", []string(nil)
		if c.enc {
			name, attrs = s.TypeName(t), s.Attrs(t)
		}
		c.str(&name, "type name")
		if c.strs(&attrs, maxSchemaAttrs, "attribute name"); !c.enc && c.err == nil {
			if _, err := s.AddType(name, attrs...); err != nil {
				c.fail("shipped schema: %v", err)
			}
		}
	}
}

// pattern codes a compiled pattern: a tag (0 none, 1 one sub-pattern, 2
// an OR of a list of them), then the sub-patterns. A decoder rebuilds them
// through pattern.Builder and pattern.NewOr, so a shipped pattern passes
// the validation a local one does (against s where one was shipped).
func (c *codec) pattern(pp **pattern.Pattern, s *event.Schema) {
	p, tag := *pp, 0
	if p != nil {
		tag = 1
		if p.Op == pattern.Or {
			tag = 2
		}
	}
	if c.index(&tag, 3, "pattern tag"); tag != 2 {
		if tag == 1 {
			c.subPattern(pp, s)
		}
		return
	}
	var subs []*pattern.Pattern
	if c.enc {
		subs = p.Subs
	}
	table(c, &subs, maxSubPatterns, 4, "sub-pattern")
	for i := 0; i < len(subs) && c.err == nil; i++ {
		c.subPattern(&subs[i], s)
	}
	if !c.enc && c.err == nil {
		var err error
		if *pp, err = pattern.NewOr(subs...); err != nil {
			c.fail("shipped pattern: %v", err)
		}
	}
}

// subPattern codes one SEQ or AND pattern: operator, window, positions
// (event type and a Neg|Kleene flag byte each), then predicates.
func (c *codec) subPattern(pp **pattern.Pattern, s *event.Schema) {
	var p pattern.Pattern // an encoder's pattern; a decoder's builder input
	if c.enc {
		p = **pp
	}
	// A compiled pattern's dispatch table is as long as its largest type,
	// so the schema, or the cap on any schema, bounds types.
	types := maxSchemaTypes
	if s != nil {
		types = s.NumTypes()
	}
	c.index((*int)(&p.Op), int(pattern.And)+1, "pattern operator")
	c.i64((*int64)(&p.Window))
	table(c, &p.Positions, maxPatPositions, 2, "pattern position")
	for i := range p.Positions {
		c.index(&p.Positions[i].Type, types, "event type")
		c.flags("pattern position", &p.Positions[i].Neg, &p.Positions[i].Kleene)
	}
	table(c, &p.Preds, maxPatPreds, 13, "pattern predicate")
	for i := range p.Preds {
		pr := &p.Preds[i]
		c.index(&pr.L, maxPatPositions, "predicate position")
		c.int(&pr.R) // pattern.Unary is -1
		c.index(&pr.AttrL, maxAttrs, "predicate attribute")
		c.index(&pr.AttrR, maxAttrs, "predicate attribute")
		c.index((*int)(&pr.Op), int(pattern.AbsDiffLT)+1, "predicate operator")
		c.f64(&pr.C)
	}
	if c.enc || c.err != nil {
		return
	}
	b := pattern.NewBuilder(s, p.Op, p.Window)
	for _, pos := range p.Positions {
		i := b.Event(pos.Type)
		if pos.Neg {
			b.Negate(i)
		}
		if pos.Kleene {
			b.Kleene(i)
		}
	}
	for _, pr := range p.Preds {
		b.WherePred(pr)
	}
	var err error
	if *pp, err = b.Build(); err != nil {
		c.fail("shipped pattern: %v", err)
	}
}

// metrics codes an engine's counters and its two latency estimators.
func (c *codec) metrics(m *engine.Metrics) {
	c.u64(&m.Events, &m.Matches, &m.LateDropped, &m.EventsArrived, &m.EventsShed,
		&m.QueueDropped, &m.DecisionCalls, &m.PlanGenerations, &m.Reoptimizations,
		&m.DrainEvents, &m.Suppressed, &m.PMCreated, &m.PredEvals)
	c.i64((*int64)(&m.DecisionTime), (*int64)(&m.PlanTime), (*int64)(&m.StatTime),
		(*int64)(&m.MigrateTime))
	c.int(&m.PeakPMs)
	c.quantile(&m.QueueWait)
	c.quantile(&m.DetectTime)
}

// quantile codes an estimator as its count and retained samples; a
// decoder restores it through stats.RestoreQuantile, which refuses a
// reservoir larger than an estimator keeps.
func (c *codec) quantile(q *stats.Quantile) {
	count, samples := q.Count(), q.Samples()
	c.u64(&count)
	table(c, &samples, MaxFrame, 8, "quantile sample")
	for i := range samples {
		c.f64(&samples[i])
	}
	if c.enc || c.err != nil {
		return
	}
	var err error
	if *q, err = stats.RestoreQuantile(count, samples); err != nil {
		c.fail("%v", err)
	}
}

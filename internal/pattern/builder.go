package pattern

import (
	"fmt"

	"acep/internal/event"
)

// Builder assembles a Pattern incrementally. Methods record errors and
// return the builder for chaining; Build reports the first error.
//
//	b := pattern.NewBuilder(schema, pattern.Seq, 10*event.Minute)
//	a := b.Event(typeA)
//	c := b.Event(typeC)
//	b.WhereEq(a, "person_id", c, "person_id")
//	p, err := b.Build()
type Builder struct {
	schema *event.Schema
	op     Op
	window event.Time
	pos    []Position
	preds  []Pred
	err    error
}

// NewBuilder starts a pattern with the given root operator (Seq or And)
// and window. Use NewOr to combine built patterns disjunctively.
func NewBuilder(s *event.Schema, op Op, window event.Time) *Builder {
	b := &Builder{schema: s, op: op, window: window}
	if op == Or {
		b.fail(fmt.Errorf("pattern: use NewOr for disjunctions"))
	}
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Event appends a primitive event position of the given type and returns
// its position index. A type the schema does not hold (any negative one
// when there is no schema) fails the build: the compiled pattern has a
// dispatch table as long as its largest type.
func (b *Builder) Event(typeID int) int {
	if typeID < 0 || (b.schema != nil && typeID >= b.schema.NumTypes()) {
		b.fail(fmt.Errorf("pattern: unknown event type %d", typeID))
		typeID = 0
	}
	b.pos = append(b.pos, Position{Type: typeID})
	return len(b.pos) - 1
}

// EventName appends a position of the named type.
func (b *Builder) EventName(name string) int {
	id, ok := b.schema.TypeByName(name)
	if !ok {
		b.fail(fmt.Errorf("pattern: unknown event type %q", name))
		return b.Event(0)
	}
	return b.Event(id)
}

// Negate marks position i as negated.
func (b *Builder) Negate(i int) *Builder {
	if i < 0 || i >= len(b.pos) {
		b.fail(fmt.Errorf("pattern: Negate(%d) out of range", i))
		return b
	}
	b.pos[i].Neg = true
	return b
}

// Kleene marks position i as a Kleene-closure position.
func (b *Builder) Kleene(i int) *Builder {
	if i < 0 || i >= len(b.pos) {
		b.fail(fmt.Errorf("pattern: Kleene(%d) out of range", i))
		return b
	}
	b.pos[i].Kleene = true
	return b
}

func (b *Builder) attr(pos int, name string) int {
	if pos < 0 || pos >= len(b.pos) {
		b.fail(fmt.Errorf("pattern: position %d out of range", pos))
		return 0
	}
	idx, ok := b.schema.AttrIndex(b.pos[pos].Type, name)
	if !ok {
		b.fail(fmt.Errorf("pattern: type %q has no attribute %q",
			b.schema.TypeName(b.pos[pos].Type), name))
		return 0
	}
	return idx
}

// Where adds a binary predicate: pos l attribute la  op  pos r attribute
// ra + c.
func (b *Builder) Where(l int, la string, op CmpOp, r int, ra string, c float64) *Builder {
	b.preds = append(b.preds, Pred{
		L: l, AttrL: b.attr(l, la),
		R: r, AttrR: b.attr(r, ra),
		Op: op, C: c,
	})
	return b
}

// WhereEq adds an exact equality predicate between two attributes.
func (b *Builder) WhereEq(l int, la string, r int, ra string) *Builder {
	return b.Where(l, la, EQ, r, ra, 0)
}

// WhereConst adds a unary predicate: pos l attribute la  op  c.
func (b *Builder) WhereConst(l int, la string, op CmpOp, c float64) *Builder {
	b.preds = append(b.preds, Pred{
		L: l, AttrL: b.attr(l, la),
		R: Unary, Op: op, C: c,
	})
	return b
}

// WherePred appends a fully specified predicate (attribute indices rather
// than names). Useful for generated patterns.
func (b *Builder) WherePred(p Pred) *Builder {
	b.preds = append(b.preds, p)
	return b
}

// Build compiles and validates the pattern.
func (b *Builder) Build() (*Pattern, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := &Pattern{
		Op:        b.op,
		Positions: append([]Position(nil), b.pos...),
		Preds:     append([]Pred(nil), b.preds...),
		Window:    b.window,
	}
	if err := p.finalize(b.schema); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for tests and examples.
func (b *Builder) MustBuild() *Pattern {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

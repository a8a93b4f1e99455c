package pattern

import (
	"strings"
	"testing"

	"acep/internal/event"
)

func testSchema(t testing.TB) *event.Schema {
	t.Helper()
	s := event.NewSchema()
	s.MustAddType("A", "x", "y")
	s.MustAddType("B", "x", "y")
	s.MustAddType("C", "x", "y")
	s.MustAddType("D", "x", "y")
	return s
}

func TestBuilderSeq(t *testing.T) {
	s := testSchema(t)
	b := NewBuilder(s, Seq, 10*event.Minute)
	a := b.EventName("A")
	bb := b.EventName("B")
	c := b.EventName("C")
	b.WhereEq(a, "x", bb, "x")
	b.Where(bb, "y", LT, c, "y", 0)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.Op != Seq || p.NumPositions() != 3 || p.Size() != 3 {
		t.Fatalf("bad pattern %v", p)
	}
	if got := len(p.Core()); got != 3 {
		t.Fatalf("core size = %d; want 3", got)
	}
	if got := p.PredsBetween(a, bb); len(got) != 1 {
		t.Fatalf("PredsBetween(a,b) = %v", got)
	}
	if got := p.PredsBetween(bb, a); len(got) != 1 {
		t.Fatal("PredsBetween must be order-insensitive")
	}
	if got := p.PredsBetween(a, c); len(got) != 0 {
		t.Fatalf("PredsBetween(a,c) = %v; want empty", got)
	}
}

func TestBuilderNegKleene(t *testing.T) {
	s := testSchema(t)
	b := NewBuilder(s, Seq, event.Minute)
	a := b.EventName("A")
	n := b.EventName("B")
	k := b.EventName("C")
	b.Negate(n)
	b.Kleene(k)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.Size() != 2 { // A + Kleene C; negated B excluded
		t.Fatalf("Size = %d; want 2", p.Size())
	}
	core := p.Core()
	if len(core) != 1 || core[0] != a {
		t.Fatalf("Core = %v; want [%d]", core, a)
	}
	if !p.Positions[n].Neg || !p.Positions[k].Kleene {
		t.Fatal("modifiers not recorded")
	}
}

func TestBuilderErrors(t *testing.T) {
	s := testSchema(t)
	cases := []struct {
		name  string
		build func() (*Pattern, error)
	}{
		{"zero window", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, 0)
			b.EventName("A")
			return b.Build()
		}},
		{"no positions", func() (*Pattern, error) {
			return NewBuilder(s, Seq, event.Minute).Build()
		}},
		{"unknown type name", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, event.Minute)
			b.EventName("Nope")
			return b.Build()
		}},
		{"type outside the schema", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, event.Minute)
			b.Event(s.NumTypes())
			return b.Build()
		}},
		// Without a schema nothing bounds a type from above (the wire
		// decoder applies its own cap), but a negative one would index the
		// compiled dispatch table from the wrong end.
		{"negative type, no schema", func() (*Pattern, error) {
			b := NewBuilder(nil, Seq, event.Minute)
			b.Event(-1)
			return b.Build()
		}},
		{"unknown attr", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, event.Minute)
			a := b.EventName("A")
			b.WhereConst(a, "nope", LT, 1)
			return b.Build()
		}},
		{"neg+kleene", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, event.Minute)
			a := b.EventName("A")
			b.EventName("B")
			b.Negate(a).Kleene(a)
			return b.Build()
		}},
		{"all residual", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, event.Minute)
			a := b.EventName("A")
			b.Negate(a)
			return b.Build()
		}},
		{"negate out of range", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, event.Minute)
			b.EventName("A")
			b.Negate(5)
			return b.Build()
		}},
		{"kleene out of range", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, event.Minute)
			b.EventName("A")
			b.Kleene(-1)
			return b.Build()
		}},
		{"or via builder", func() (*Pattern, error) {
			b := NewBuilder(s, Or, event.Minute)
			b.EventName("A")
			return b.Build()
		}},
		{"bad pred position", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, event.Minute)
			b.EventName("A")
			b.WherePred(Pred{L: 0, R: 7, Op: LT})
			return b.Build()
		}},
		{"self pred", func() (*Pattern, error) {
			b := NewBuilder(s, Seq, event.Minute)
			b.EventName("A")
			b.WherePred(Pred{L: 0, R: 0, Op: LT})
			return b.Build()
		}},
	}
	for _, tc := range cases {
		if _, err := tc.build(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestPredEval(t *testing.T) {
	el := &event.Event{Attrs: []float64{5, 2}}
	er := &event.Event{Attrs: []float64{3, 7}}
	cases := []struct {
		p    Pred
		want bool
	}{
		{Pred{L: 0, AttrL: 0, R: 1, AttrR: 0, Op: GT}, true},        // 5 > 3
		{Pred{L: 0, AttrL: 0, R: 1, AttrR: 0, Op: LT}, false},       // 5 < 3
		{Pred{L: 0, AttrL: 0, R: 1, AttrR: 0, Op: LT, C: 3}, true},  // 5 < 3+3
		{Pred{L: 0, AttrL: 1, R: 1, AttrR: 1, Op: LE, C: -5}, true}, // 2 <= 7-5
		{Pred{L: 0, AttrL: 0, R: 1, AttrR: 0, Op: EQ, C: 2}, true},  // 5 == 3+2
		{Pred{L: 0, AttrL: 0, R: 1, AttrR: 0, Op: NE}, true},
		{Pred{L: 0, AttrL: 0, R: 1, AttrR: 0, Op: GE, C: 2}, true},        // 5 >= 5
		{Pred{L: 0, AttrL: 0, R: 1, AttrR: 0, Op: AbsDiffLT, C: 3}, true}, // |5-3|<3
		{Pred{L: 0, AttrL: 0, R: 1, AttrR: 0, Op: AbsDiffLT, C: 2}, false},
		{Pred{L: 0, AttrL: 0, R: Unary, Op: GT, C: 4}, true},  // 5 > 4
		{Pred{L: 0, AttrL: 1, R: Unary, Op: EQ, C: 2}, true},  // 2 == 2
		{Pred{L: 0, AttrL: 1, R: Unary, Op: LT, C: 1}, false}, // 2 < 1
		{Pred{L: 0, AttrL: 0, R: 1, AttrR: 0, Op: CmpOp(99)}, false},
	}
	for i, tc := range cases {
		if got := tc.p.Eval(el, er); got != tc.want {
			t.Errorf("case %d (%s): got %v want %v", i, tc.p, got, tc.want)
		}
	}
}

func TestPredIsUnary(t *testing.T) {
	if (Pred{R: Unary}).IsUnary() != true {
		t.Error("unary not detected")
	}
	if (Pred{R: 2}).IsUnary() != false {
		t.Error("binary misdetected")
	}
}

func TestNewOr(t *testing.T) {
	s := testSchema(t)
	mk := func(w event.Time, types ...string) *Pattern {
		b := NewBuilder(s, Seq, w)
		for _, n := range types {
			b.EventName(n)
		}
		return b.MustBuild()
	}
	p, err := NewOr(mk(event.Minute, "A", "B"), mk(2*event.Minute, "C", "D", "A"))
	if err != nil {
		t.Fatalf("NewOr: %v", err)
	}
	if p.Op != Or || len(p.Subs) != 2 {
		t.Fatalf("bad OR pattern: %v", p)
	}
	if p.Window != 2*event.Minute {
		t.Fatalf("OR window = %d; want max of subs", p.Window)
	}
	if p.Size() != 3 {
		t.Fatalf("OR size = %d; want 3 (max sub)", p.Size())
	}

	if _, err := NewOr(mk(event.Minute, "A")); err == nil {
		t.Error("single-sub OR accepted")
	}
	if _, err := NewOr(mk(event.Minute, "A"), nil); err == nil {
		t.Error("nil sub accepted")
	}
	nested, _ := NewOr(mk(event.Minute, "A"), mk(event.Minute, "B"))
	if _, err := NewOr(nested, mk(event.Minute, "C")); err == nil {
		t.Error("nested OR accepted")
	}
}

func TestPatternString(t *testing.T) {
	s := testSchema(t)
	b := NewBuilder(s, Seq, event.Minute)
	a := b.EventName("A")
	n := b.EventName("B")
	k := b.EventName("C")
	b.Negate(n).Kleene(k)
	b.WhereConst(a, "x", GT, 3)
	p := b.MustBuild()
	str := p.String()
	for _, want := range []string{"SEQ(", "~T1", "T2*", "WHERE", "WITHIN"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q; missing %q", str, want)
		}
	}
	or, _ := NewOr(p, p)
	if !strings.Contains(or.String(), "OR(") {
		t.Errorf("OR String() = %q", or.String())
	}
}

func TestPredsAtAndTouching(t *testing.T) {
	s := testSchema(t)
	b := NewBuilder(s, And, event.Minute)
	a := b.EventName("A")
	bb := b.EventName("B")
	b.WhereConst(a, "x", GT, 0)
	b.WhereEq(a, "x", bb, "x")
	p := b.MustBuild()
	if got := p.PredsAt(a); len(got) != 1 || !p.Preds[got[0]].IsUnary() {
		t.Fatalf("PredsAt(a) = %v", got)
	}
	if got := p.PredsAt(bb); len(got) != 0 {
		t.Fatalf("PredsAt(b) = %v; want empty", got)
	}
	if got := p.PredsTouching(a); len(got) != 2 {
		t.Fatalf("PredsTouching(a) = %v; want 2 preds", got)
	}
	if got := p.PredsTouching(bb); len(got) != 1 {
		t.Fatalf("PredsTouching(b) = %v; want 1 pred", got)
	}
}

func TestOpAndCmpOpString(t *testing.T) {
	if Seq.String() != "SEQ" || And.String() != "AND" || Or.String() != "OR" {
		t.Error("Op strings wrong")
	}
	if !strings.Contains(Op(42).String(), "42") {
		t.Error("unknown Op string")
	}
	ops := map[CmpOp]string{LT: "<", LE: "<=", GT: ">", GE: ">=", EQ: "==", NE: "!=", AbsDiffLT: "|-|<"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("CmpOp %d string = %q want %q", op, op.String(), want)
		}
	}
	if !strings.Contains(CmpOp(42).String(), "42") {
		t.Error("unknown CmpOp string")
	}
}

func TestBuilderFirstErrorWins(t *testing.T) {
	s := testSchema(t)
	b := NewBuilder(s, Seq, event.Minute)
	b.EventName("Nope")  // first error
	b.EventName("Nope2") // second error
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "Nope") || strings.Contains(err.Error(), "Nope2") {
		t.Fatalf("err = %v; want first error only", err)
	}
}

package sase

import (
	"testing"

	"acep/internal/event"
	"acep/internal/pattern"
)

func testSchema() *event.Schema {
	s := event.NewSchema()
	s.MustAddType("A", "person_id", "x")
	s.MustAddType("B", "person_id", "x")
	s.MustAddType("C", "person_id", "x")
	return s
}

// mustParse is Parse that fails the test on error.
func mustParse(t *testing.T, s *event.Schema, src string) *pattern.Pattern {
	t.Helper()
	p, err := Parse(s, src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParsePaperExample(t *testing.T) {
	s := testSchema()
	p, err := Parse(s, `
		PATTERN SEQ(A a, B b, C c)
		WHERE a.person_id = b.person_id AND b.person_id = c.person_id
		WITHIN 10 minutes`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != pattern.Seq || p.NumPositions() != 3 {
		t.Fatalf("shape: %v", p)
	}
	if p.Window != 10*event.Minute {
		t.Fatalf("window = %d", p.Window)
	}
	if len(p.Preds) != 2 {
		t.Fatalf("preds = %d", len(p.Preds))
	}
	pr := p.Preds[0]
	if pr.L != 0 || pr.R != 1 || pr.Op != pattern.EQ {
		t.Fatalf("pred0 = %v", pr)
	}
}

func TestParseModifiers(t *testing.T) {
	s := testSchema()
	p := mustParse(t, s, `PATTERN SEQ(A a, ~B b, C+ c) WHERE b.x = a.x WITHIN 5 s`)
	if !p.Positions[1].Neg {
		t.Fatal("negation not parsed")
	}
	if !p.Positions[2].Kleene {
		t.Fatal("kleene not parsed")
	}
	if p.Size() != 2 {
		t.Fatalf("size = %d", p.Size())
	}
}

func TestParseAndOperator(t *testing.T) {
	s := testSchema()
	p := mustParse(t, s, `PATTERN AND(A a, B b) WITHIN 100 ms`)
	if p.Op != pattern.And || p.Window != 100 {
		t.Fatalf("%v", p)
	}
}

func TestParseConditionForms(t *testing.T) {
	s := testSchema()
	p := mustParse(t, s, `
		PATTERN SEQ(A a, B b)
		WHERE a.x < b.x + 3 AND a.x >= 10 AND |a.x - b.x| < 5 AND a.x != b.x - 2.5
		WITHIN 1 minute`)
	if len(p.Preds) != 4 {
		t.Fatalf("preds = %d", len(p.Preds))
	}
	if p.Preds[0].Op != pattern.LT || p.Preds[0].C != 3 {
		t.Fatalf("pred0 = %v", p.Preds[0])
	}
	if !p.Preds[1].IsUnary() || p.Preds[1].Op != pattern.GE || p.Preds[1].C != 10 {
		t.Fatalf("pred1 = %v", p.Preds[1])
	}
	if p.Preds[2].Op != pattern.AbsDiffLT || p.Preds[2].C != 5 {
		t.Fatalf("pred2 = %v", p.Preds[2])
	}
	if p.Preds[3].Op != pattern.NE || p.Preds[3].C != -2.5 {
		t.Fatalf("pred3 = %v", p.Preds[3])
	}
	// Evaluate one to be sure wiring is right: a.x < b.x + 3.
	ea := &event.Event{Attrs: []float64{0, 4}}
	eb := &event.Event{Attrs: []float64{0, 2}}
	if !p.Preds[0].Eval(ea, eb) { // 4 < 2+3
		t.Fatal("pred0 evaluation wrong")
	}
}

func TestParseNegativeConstant(t *testing.T) {
	s := testSchema()
	p := mustParse(t, s, `PATTERN SEQ(A a) WHERE a.x > -4 WITHIN 1 s`)
	if p.Preds[0].C != -4 {
		t.Fatalf("C = %g", p.Preds[0].C)
	}
}

func TestParseDurationUnits(t *testing.T) {
	s := testSchema()
	cases := map[string]event.Time{
		"250 ms":      250,
		"2 s":         2000,
		"1.5 seconds": 1500,
		"3 min":       3 * event.Minute,
	}
	for src, want := range cases {
		p := mustParse(t, s, "PATTERN SEQ(A a, B b) WITHIN "+src)
		if p.Window != want {
			t.Errorf("%q: window = %d; want %d", src, p.Window, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	s := testSchema()
	cases := []string{
		"",
		"SEQ(A a) WITHIN 1 s",                                    // missing PATTERN
		"PATTERN OR(A a, B b) WITHIN 1 s",                        // unsupported op
		"PATTERN SEQ(Z z) WITHIN 1 s",                            // unknown type
		"PATTERN SEQ(A a, A a) WITHIN 1 s",                       // duplicate alias
		"PATTERN SEQ(A a, B b WITHIN 1 s",                        // missing paren
		"PATTERN SEQ(A a) WHERE q.x = a.x WITHIN 1 s",            // unknown alias
		"PATTERN SEQ(A a) WHERE a.nope = 3 WITHIN 1 s",           // unknown attr
		"PATTERN SEQ(A a, B b) WHERE a.x ~ b.x WITHIN 1 s",       // bad operator
		"PATTERN SEQ(A a) WITHIN 1 fortnight",                    // bad unit
		"PATTERN SEQ(A a) WITHIN -1 s",                           // nonpositive window
		"PATTERN SEQ(A a) WITHIN 1 s trailing",                   // trailing input
		"PATTERN SEQ(A a, B b) WHERE |a.x + b.x| < 5 WITHIN 1 s", // bad abs form
		"PATTERN SEQ(~A+ a) WITHIN 1 s",                          // neg+kleene rejected by builder
		"PATTERN SEQ(A a) WHERE a.x < WITHIN 1 s",                // missing operand
	}
	for _, src := range cases {
		if _, err := Parse(s, src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s := testSchema()
	p := mustParse(t, s, `pattern seq(A a, B b) where a.x = b.x within 1 minute`)
	if p.Op != pattern.Seq || len(p.Preds) != 1 {
		t.Fatalf("%v", p)
	}
}

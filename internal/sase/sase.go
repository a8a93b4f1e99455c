// Package sase parses the SASE-style textual pattern syntax the paper
// uses in its examples (§2.1):
//
//	PATTERN SEQ(A a, B b, C c)
//	WHERE a.person_id = b.person_id AND b.person_id = c.person_id
//	WITHIN 10 minutes
//
// Supported grammar (case-insensitive keywords):
//
//	pattern  := "PATTERN" op "(" events ")" [ "WHERE" conds ] "WITHIN" dur
//	op       := "SEQ" | "AND"
//	events   := event { "," event }
//	event    := [ "~" ] TypeName [ "+" ] alias        (~ negation, + Kleene)
//	conds    := cond { "AND" cond }
//	cond     := operand cmp operand
//	          | "|" ref "-" ref "|" "<" number        (absolute difference)
//	operand  := ref [ ("+"|"-") number ] | number
//	ref      := alias "." attribute
//	cmp      := "=" | "!=" | "<" | "<=" | ">" | ">="
//	dur      := number unit ; unit := "ms" | "s" | "sec" | "seconds"
//	          | "m" | "min" | "minute" | "minutes"
//
// One side of a condition must be an event reference. Disjunctions are
// composed programmatically with pattern.NewOr over parsed sub-patterns.
package sase

import (
	"fmt"
	"strconv"
	"strings"

	"acep/internal/event"
	"acep/internal/pattern"
)

// Parse compiles a SASE-style pattern specification against the schema.
func Parse(schema *event.Schema, src string) (*pattern.Pattern, error) {
	p := &parser{toks: lex(src), schema: schema}
	pat, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("sase: %w", err)
	}
	return pat, nil
}

// token kinds
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tPunct // single punctuation rune or two-rune comparison
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) []token {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9' || c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i + 1
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			toks = append(toks, token{tNumber, src[i:j], i})
			i = j
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i + 1
			for j < len(src) && (src[j] == '_' || src[j] >= 'a' && src[j] <= 'z' ||
				src[j] >= 'A' && src[j] <= 'Z' || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, token{tIdent, src[i:j], i})
			i = j
		case (c == '<' || c == '>' || c == '!') && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, token{tPunct, src[i : i+2], i})
			i += 2
		default:
			toks = append(toks, token{tPunct, string(c), i})
			i++
		}
	}
	toks = append(toks, token{tEOF, "", len(src)})
	return toks
}

type parser struct {
	toks   []token
	i      int
	schema *event.Schema
	// alias -> position index
	aliases map[string]int
	// declTypes[pos] is the event type declared at each position.
	declTypes []int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("at offset %d: "+format, append([]interface{}{p.cur().pos}, args...)...)
}

// expectIdent consumes an identifier, optionally requiring a specific
// (case-insensitive) keyword.
func (p *parser) expectIdent(keyword string) (string, error) {
	t := p.cur()
	if t.kind != tIdent {
		return "", p.errf("expected %s, got %q", orWord(keyword, "identifier"), t.text)
	}
	if keyword != "" && !strings.EqualFold(t.text, keyword) {
		return "", p.errf("expected %q, got %q", keyword, t.text)
	}
	p.i++
	return t.text, nil
}

func orWord(kw, fallback string) string {
	if kw != "" {
		return fmt.Sprintf("%q", kw)
	}
	return fallback
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tPunct || t.text != s {
		return p.errf("expected %q, got %q", s, t.text)
	}
	p.i++
	return nil
}

func (p *parser) parse() (*pattern.Pattern, error) {
	if _, err := p.expectIdent("PATTERN"); err != nil {
		return nil, err
	}
	opName, err := p.expectIdent("")
	if err != nil {
		return nil, err
	}
	var op pattern.Op
	switch strings.ToUpper(opName) {
	case "SEQ":
		op = pattern.Seq
	case "AND":
		op = pattern.And
	default:
		return nil, p.errf("unsupported operator %q (want SEQ or AND)", opName)
	}

	// The window is parsed last but the builder needs it up front; use a
	// placeholder and patch afterwards by rebuilding. Simpler: collect
	// declarations first, then build once WITHIN is known.
	type eventDecl struct {
		typeID      int
		alias       string
		neg, kleene bool
	}
	var decls []eventDecl
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	p.aliases = make(map[string]int)
	for {
		var d eventDecl
		if p.cur().kind == tPunct && p.cur().text == "~" {
			d.neg = true
			p.i++
		}
		typeName, err := p.expectIdent("")
		if err != nil {
			return nil, err
		}
		id, ok := p.schema.TypeByName(typeName)
		if !ok {
			return nil, p.errf("unknown event type %q", typeName)
		}
		d.typeID = id
		if p.cur().kind == tPunct && p.cur().text == "+" {
			d.kleene = true
			p.i++
		}
		alias, err := p.expectIdent("")
		if err != nil {
			return nil, err
		}
		if _, dup := p.aliases[alias]; dup {
			return nil, p.errf("duplicate alias %q", alias)
		}
		p.aliases[alias] = len(decls)
		p.declTypes = append(p.declTypes, d.typeID)
		decls = append(decls, d)
		if p.cur().kind == tPunct && p.cur().text == "," {
			p.i++
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}

	// Conditions are parsed into closures applied after the builder
	// exists (the window comes last in the grammar).
	var conds []func(b *pattern.Builder) error
	if p.cur().kind == tIdent && strings.EqualFold(p.cur().text, "WHERE") {
		p.i++
		for {
			cond, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			conds = append(conds, cond)
			if p.cur().kind == tIdent && strings.EqualFold(p.cur().text, "AND") {
				p.i++
				continue
			}
			break
		}
	}

	if _, err := p.expectIdent("WITHIN"); err != nil {
		return nil, err
	}
	window, err := p.parseDuration()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tEOF {
		return nil, p.errf("trailing input %q", p.cur().text)
	}

	b := pattern.NewBuilder(p.schema, op, window)
	for _, d := range decls {
		pos := b.Event(d.typeID)
		if d.neg {
			b.Negate(pos)
		}
		if d.kleene {
			b.Kleene(pos)
		}
	}
	for _, apply := range conds {
		if err := apply(b); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// parseDuration reads "number unit" into a logical-millisecond window.
func (p *parser) parseDuration() (event.Time, error) {
	v, err := p.parseNumber()
	if err != nil {
		return 0, err
	}
	unitName, err := p.expectIdent("")
	if err != nil {
		return 0, err
	}
	var unit event.Time
	switch strings.ToLower(unitName) {
	case "ms", "millis", "milliseconds":
		unit = event.Millisecond
	case "s", "sec", "second", "seconds":
		unit = event.Second
	case "m", "min", "minute", "minutes":
		unit = event.Minute
	default:
		return 0, p.errf("unknown time unit %q", unitName)
	}
	w := event.Time(v * float64(unit))
	if w <= 0 {
		return 0, p.errf("window must be positive")
	}
	return w, nil
}

// ref is a parsed alias.attribute reference.
type ref struct {
	pos  int
	attr string
}

func (p *parser) parseRef() (ref, error) {
	alias, err := p.expectIdent("")
	if err != nil {
		return ref{}, err
	}
	pos, ok := p.aliases[alias]
	if !ok {
		return ref{}, p.errf("unknown alias %q", alias)
	}
	if err := p.expectPunct("."); err != nil {
		return ref{}, err
	}
	attr, err := p.expectIdent("")
	if err != nil {
		return ref{}, err
	}
	return ref{pos: pos, attr: attr}, nil
}

func (p *parser) parseNumber() (float64, error) {
	neg := false
	if p.cur().kind == tPunct && p.cur().text == "-" {
		neg = true
		p.i++
	}
	t := p.cur()
	if t.kind != tNumber {
		return 0, p.errf("expected number, got %q", t.text)
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errf("bad number %q", t.text)
	}
	p.i++
	if neg {
		v = -v
	}
	return v, nil
}

func cmpFromText(s string) (pattern.CmpOp, bool) {
	switch s {
	case "=":
		return pattern.EQ, true
	case "!=":
		return pattern.NE, true
	case "<":
		return pattern.LT, true
	case "<=":
		return pattern.LE, true
	case ">":
		return pattern.GT, true
	case ">=":
		return pattern.GE, true
	}
	return 0, false
}

// parseCond parses one comparison and returns a closure that adds the
// predicate to a builder.
func (p *parser) parseCond() (func(b *pattern.Builder) error, error) {
	// Absolute-difference form: | a.x - b.y | < c
	if p.cur().kind == tPunct && p.cur().text == "|" {
		p.i++
		l, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("-"); err != nil {
			return nil, err
		}
		r, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("|"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("<"); err != nil {
			return nil, err
		}
		c, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return func(b *pattern.Builder) error {
			b.WherePred(pattern.Pred{
				L: l.pos, AttrL: p.attrIndex(l),
				R: r.pos, AttrR: p.attrIndex(r),
				Op: pattern.AbsDiffLT, C: c,
			})
			return nil
		}, nil
	}

	left, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	op, ok := cmpFromText(t.text)
	if t.kind != tPunct || !ok {
		return nil, p.errf("expected comparison operator, got %q", t.text)
	}
	p.i++

	// Right side: number, or ref [± number].
	if p.cur().kind == tNumber || p.cur().kind == tPunct && p.cur().text == "-" {
		c, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return func(b *pattern.Builder) error {
			b.WherePred(pattern.Pred{
				L: left.pos, AttrL: p.attrIndex(left),
				R: pattern.Unary, Op: op, C: c,
			})
			return nil
		}, nil
	}
	right, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	c := 0.0
	if p.cur().kind == tPunct && (p.cur().text == "+" || p.cur().text == "-") {
		sign := 1.0
		if p.cur().text == "-" {
			sign = -1
		}
		p.i++
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		c = sign * v
	}
	return func(b *pattern.Builder) error {
		b.WherePred(pattern.Pred{
			L: left.pos, AttrL: p.attrIndex(left),
			R: right.pos, AttrR: p.attrIndex(right),
			Op: op, C: c,
		})
		return nil
	}, nil
}

// attrIndex resolves an attribute name against the referenced position's
// declared type; an unknown name maps to -1, which the builder's
// validation rejects with a position-specific error.
func (p *parser) attrIndex(r ref) int {
	idx, ok := p.schema.AttrIndex(p.declTypes[r.pos], r.attr)
	if !ok {
		return -1
	}
	return idx
}

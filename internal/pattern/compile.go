package pattern

import (
	"math"

	"acep/internal/event"
)

// This file is the pattern's compiled hot-path surface: flat lookup
// tables derived once in finalize so the engines' per-event inner loops
// run without map lookups, operand-orientation branches, or scans over
// positions that cannot match.
//
//   - PositionsOfType: event type -> positions accepting it, so Process
//     dispatches straight to candidate positions instead of scanning all
//     of them;
//   - Unary: per-position fused unary predicate list (CUnary), evaluated
//     without indirecting through Preds indices;
//   - Pair: per ordered (new, old) position pair, the temporal relation
//     the pattern operator imposes plus the connecting predicates with
//     operand orientation baked in (CPair), so extension checks never
//     branch on which side of a predicate the arriving event is.

// CUnary is a compiled unary predicate: Attr Op C over one event.
type CUnary struct {
	Attr int
	Op   CmpOp
	C    float64
}

// Ok evaluates the compiled unary predicate.
func (c *CUnary) Ok(e *event.Event) bool {
	v := e.Attrs[c.Attr]
	switch c.Op {
	case LT:
		return v < c.C
	case LE:
		return v <= c.C
	case GT:
		return v > c.C
	case GE:
		return v >= c.C
	case EQ:
		return v == c.C
	case NE:
		return v != c.C
	case AbsDiffLT:
		return math.Abs(v) < c.C
	default:
		return false
	}
}

// CPair is a compiled binary predicate oriented for one ordered position
// pair: the "new" event (the one being offered to a partial match) is
// always the left operand. Predicates whose declared left side is the
// other position are stored side-swapped — comparison operator mirrored
// and constant negated — so evaluation needs no orientation branch.
type CPair struct {
	AttrN, AttrO int // attribute on the new / other event
	Op           CmpOp
	C            float64
}

// Ok evaluates the compiled pair predicate with n as the new event.
func (c *CPair) Ok(n, o *event.Event) bool {
	nv := n.Attrs[c.AttrN]
	ov := o.Attrs[c.AttrO]
	switch c.Op {
	case LT:
		return nv < ov+c.C
	case LE:
		return nv <= ov+c.C
	case GT:
		return nv > ov+c.C
	case GE:
		return nv >= ov+c.C
	case EQ:
		return nv == ov+c.C
	case NE:
		return nv != ov+c.C
	case AbsDiffLT:
		return math.Abs(nv-ov) < c.C
	default:
		return false
	}
}

// Temporal relation the pattern operator imposes on an ordered position
// pair (new position vs. an already-assigned one).
const (
	// RelBefore: the new event must be strictly earlier (SEQ, new
	// position declared before the old one).
	RelBefore int8 = -1
	// RelNone: no order constraint (AND); the pair must still be two
	// distinct events.
	RelNone int8 = 0
	// RelAfter: the new event must be strictly later.
	RelAfter int8 = 1
)

// PairCheck is everything the engines evaluate when offering a new event
// at one position against an event already assigned at another: the
// temporal relation and the connecting predicates, pre-oriented.
type PairCheck struct {
	Rel   int8
	Preds []CPair
}

// Ok applies the check: temporal relation (which for strict relations
// also guarantees the two events are distinct; an unordered pair is told
// apart by identity, as a stream may leave every Seq at 0) and all
// predicates, with n the new event and o the already-assigned one. The
// window constraint is NOT applied here — engines check it once per
// partial match against the match's timestamp span instead of once per
// pair. npreds counts predicate evaluations performed.
func (pc *PairCheck) Ok(n, o *event.Event, npreds *uint64) bool {
	switch pc.Rel {
	case RelBefore:
		if n.TS >= o.TS {
			return false
		}
	case RelAfter:
		if n.TS <= o.TS {
			return false
		}
	default:
		if n == o {
			return false
		}
	}
	for i := range pc.Preds {
		*npreds++
		if !pc.Preds[i].Ok(n, o) {
			return false
		}
	}
	return true
}

// PositionsOfType returns the positions (core and residual, in
// declaration order) that accept events of the given type. The slice is
// shared; callers must not modify it.
func (p *Pattern) PositionsOfType(t int) []int {
	if t < 0 || t >= len(p.byType) {
		return nil
	}
	return p.byType[t]
}

// Unary returns position i's compiled unary predicates. The slice is
// shared; callers must not modify it.
func (p *Pattern) Unary(i int) []CUnary { return p.unaryC[i] }

// UnaryOk evaluates position i's unary predicates against ev, counting
// evaluations in npreds.
func (p *Pattern) UnaryOk(i int, ev *event.Event, npreds *uint64) bool {
	for k := range p.unaryC[i] {
		*npreds++
		if !p.unaryC[i][k].Ok(ev) {
			return false
		}
	}
	return true
}

// Unary position masks: a caller that has already evaluated an event's
// unary predicates (the pattern-set evaluator composes them from its
// shared verdict table) hands the engines one bit per position instead
// of having them call UnaryOk again. Bit p (0 ≤ p ≤ 30) is set iff
// position p's unary predicates all pass; MaskValid (bit 31) marks the
// mask as populated, so a zero mask means "not precomputed" and engines
// fall back to per-event UnaryOk.
const MaskValid uint32 = 1 << 31

// MaskScannable reports whether the pattern's positions fit a 32-bit
// unary mask (bit 31 is reserved for MaskValid).
func (p *Pattern) MaskScannable() bool { return len(p.Positions) < 32 }

// MaskOk reports whether position p's unary predicates passed in the
// populated mask m. Meaningful only when m&MaskValid != 0.
func MaskOk(m uint32, p int) bool { return m&(1<<uint(p)) != 0 }

// Pair returns the compiled check for offering a new event at position
// newPos against an event already assigned at position oldPos. The
// result is shared and immutable.
func (p *Pattern) Pair(newPos, oldPos int) *PairCheck {
	return &p.pairC[newPos*len(p.Positions)+oldPos]
}

// mirror returns the swapped-side form of a comparison: l Op r + C is
// equivalent to r Op' l + C' with the operands exchanged.
func mirror(op CmpOp, c float64) (CmpOp, float64) {
	switch op {
	case LT:
		return GT, -c
	case LE:
		return GE, -c
	case GT:
		return LT, -c
	case GE:
		return LE, -c
	case EQ:
		return EQ, -c
	case NE:
		return NE, -c
	default: // AbsDiffLT is symmetric
		return op, c
	}
}

// compile builds the flat dispatch and pair tables. Called from finalize
// after the derived index structures exist.
func (p *Pattern) compile() {
	n := len(p.Positions)
	maxType := 0
	for _, pos := range p.Positions {
		if pos.Type > maxType {
			maxType = pos.Type
		}
	}
	p.byType = make([][]int, maxType+1)
	for i, pos := range p.Positions {
		p.byType[pos.Type] = append(p.byType[pos.Type], i)
	}
	p.unaryC = make([][]CUnary, n)
	for i := range p.Positions {
		for _, k := range p.unaryAt[i] {
			pr := &p.Preds[k]
			p.unaryC[i] = append(p.unaryC[i], CUnary{Attr: pr.AttrL, Op: pr.Op, C: pr.C})
		}
	}
	p.pairC = make([]PairCheck, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			pc := &p.pairC[a*n+b]
			if a == b {
				continue
			}
			if p.Op == Seq {
				if a < b {
					pc.Rel = RelBefore
				} else {
					pc.Rel = RelAfter
				}
			}
			for _, k := range p.PredsBetween(a, b) {
				pr := &p.Preds[k]
				cp := CPair{AttrN: pr.AttrL, AttrO: pr.AttrR, Op: pr.Op, C: pr.C}
				if pr.L != a {
					// Declared with the other position on the left:
					// store the mirrored form so the new event is left.
					cp = CPair{AttrN: pr.AttrR, AttrO: pr.AttrL}
					cp.Op, cp.C = mirror(pr.Op, pr.C)
				}
				pc.Preds = append(pc.Preds, cp)
			}
		}
	}
}

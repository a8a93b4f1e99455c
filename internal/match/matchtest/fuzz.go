package matchtest

import (
	"math"
	"testing"

	"acep/internal/event"
	"acep/internal/oracle"
	"acep/internal/pattern"
)

// fuzzInput deals out the fuzzer's bytes one decision at a time; past the
// end every decision is 0, so any byte string is a valid input.
type fuzzInput struct {
	data []byte
}

// pick returns a value in [0, n).
func (in *fuzzInput) pick(n int) int {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return int(b) % n
}

// Attribute values and predicate constants are small dyadic rationals and
// the IEEE specials, so l == r + c and its mirrored form r == l - c (what
// the engines compile for the opposite orientation) agree exactly and the
// oracle, which evaluates predicates as declared, is a fair arbiter.
var (
	fuzzValues = []float64{0, 1, 2, 3, 0.5, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	fuzzConsts = []float64{0, 0, 1, -1, 0.5, 2}
	fuzzOps    = []pattern.CmpOp{pattern.EQ, pattern.EQ, pattern.LT, pattern.LE, pattern.GT, pattern.GE, pattern.NE, pattern.AbsDiffLT}
)

// fuzzCase decodes a SEQ or AND pattern over 2-4 positions (types may
// repeat) with up to six predicates — equalities twice as likely as any
// other operator, unary ones included — and a stream of up to 16 events
// (the oracle enumerates every assignment).
func fuzzCase(in *fuzzInput) (*pattern.Pattern, []event.Event) {
	npos := 2 + in.pick(3)
	s := Schema(npos)
	op := pattern.Seq
	if in.pick(2) == 1 {
		op = pattern.And
	}
	b := pattern.NewBuilder(s, op, event.Time(1+in.pick(24)))
	for i := 0; i < npos; i++ {
		b.Event(in.pick(npos))
	}
	for n := in.pick(7); n > 0; n-- {
		p := pattern.Pred{
			L: in.pick(npos), R: in.pick(npos),
			AttrL: in.pick(2), AttrR: in.pick(2),
			Op: fuzzOps[in.pick(len(fuzzOps))], C: fuzzConsts[in.pick(len(fuzzConsts))],
		}
		if p.L == p.R {
			p.R = pattern.Unary
		}
		b.WherePred(p)
	}
	evs := make([]event.Event, in.pick(17))
	var ts event.Time
	for i := range evs {
		ts += event.Time(in.pick(4))
		evs[i] = s.MustNew(in.pick(npos), ts, fuzzValues[in.pick(len(fuzzValues))], float64(in.pick(3)))
		evs[i].Seq = uint64(i + 1)
	}
	return b.MustBuild(), evs
}

// Fuzz holds every model to the brute-force oracle through the check the
// table's oracle cases make (requirePlan), under a plan the input picks
// (an order, then a shape over it): the model's single-bucket reference
// finds the oracle's matches, and its indexed configuration the same
// ones, with the same partial matches and no more predicate evaluations
// (a model without Indexed runs once, against the oracle alone). Case 0 decodes a generated pattern and
// stream (fuzzCase); case i > 0 takes the table's Cases()[i-1] — negation
// and Kleene included — and a window of up to 16 of its events. Every
// case of the table is a seed.
func Fuzz(f *testing.F, models ...Model) {
	f.Add(byte(0), []byte{})
	f.Add(byte(0), []byte{1, 0, 9, 0, 1, 2, 2, 0, 1, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 3, 1, 30, 0, 1, 1, 0, 1, 1, 1, 1, 2, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 2, 1, 1})
	f.Add(byte(0), []byte{2, 1, 20, 0, 0, 1, 2, 3, 0, 1, 0, 0, 1, 5, 1, 2, 1, 1, 0, 6, 2, 3, 0, 0, 2, 4, 5, 7, 2, 40, 1, 0, 6, 1, 1, 1, 7, 2, 2, 0, 8, 0, 3, 1, 5, 1})
	cases := Cases()
	for i := range cases {
		f.Add(byte(i+1), []byte{})
	}
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		in := &fuzzInput{data}
		var pat *pattern.Pattern
		var evs []event.Event
		if pick == 0 {
			pat, evs = fuzzCase(in)
		} else {
			c := cases[(int(pick)-1)%len(cases)]
			from := in.pick(256) * len(c.Events) / 256
			pat, evs = c.Pat, c.Events[from:min(from+16-in.pick(16), len(c.Events))]
		}
		want := Keys(oracle.Matches(pat, evs))
		orders := Permutations(pat.Core())
		for _, m := range models {
			shapes := m.Shapes(orders[in.pick(len(orders))])
			m.requirePlan(t, pat, shapes[in.pick(len(shapes))], evs, want, false)
		}
	})
}

package tree

import (
	"math"
	"reflect"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/nfa"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
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
// other operator, unary ones included — an order plan, a tree plan and a
// stream of up to 16 events (the oracle enumerates every assignment).
func fuzzCase(data []byte) (*pattern.Pattern, *plan.OrderPlan, *plan.TreePlan, []event.Event) {
	in := &fuzzInput{data}
	npos := 2 + in.pick(3)
	s := matchtest.Schema(npos)
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
	pat := b.MustBuild()

	perms := matchtest.Permutations(pat.Core())
	order := perms[in.pick(len(perms))]
	trees := shapes(perms[in.pick(len(perms))])
	root := trees[in.pick(len(trees))]

	evs := make([]event.Event, in.pick(17))
	var ts event.Time
	for i := range evs {
		ts += event.Time(in.pick(4))
		evs[i] = s.MustNew(in.pick(npos), ts, fuzzValues[in.pick(len(fuzzValues))], float64(in.pick(3)))
		evs[i].Seq = uint64(i + 1)
	}
	return pat, plan.NewOrderPlan(order), plan.NewTreePlan(root), evs
}

// FuzzEnginesVsOracle holds both engine models to the brute-force oracle
// on generated patterns, plans and streams: the match multisets must be
// equal, and the tree's single-bucket configuration must have created the
// same tuples as its indexed one with no fewer predicate evaluations.
func FuzzEnginesVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 9, 0, 1, 2, 2, 0, 1, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 3, 1, 30, 0, 1, 1, 0, 1, 1, 1, 1, 2, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 2, 1, 1})
	f.Add([]byte{2, 1, 20, 0, 0, 1, 2, 3, 0, 1, 0, 0, 1, 5, 1, 2, 1, 1, 0, 6, 2, 3, 0, 0, 2, 4, 5, 7, 2, 40, 1, 0, 6, 1, 1, 1, 7, 2, 2, 0, 8, 0, 3, 1, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pat, op, tp, evs := fuzzCase(data)
		want := matchtest.Keys(oracle.Matches(pat, evs))

		var nfaOut []*match.Match
		ng := nfa.New(pat, op, func(m *match.Match) { nfaOut = append(nfaOut, m) })
		for i := range evs {
			ng.Process(&evs[i])
		}
		ng.Finish()
		if got := matchtest.Keys(nfaOut); !reflect.DeepEqual(got, want) {
			t.Fatalf("nfa %v on %v: %d matches %v, oracle %d %v", op, pat, len(got), got, len(want), want)
		}

		ref := runKeyed(pat, tp.Root, evs, false, nil)
		got := runKeyed(pat, tp.Root, evs, true, nil)
		if !reflect.DeepEqual(got.Keys, want) {
			t.Fatalf("tree %v on %v: %d matches %v, oracle %d %v", tp, pat, len(got.Keys), got.Keys, len(want), want)
		}
		if !reflect.DeepEqual(ref.Keys, want) || ref.PMCreated != got.PMCreated || got.PredEvals > ref.PredEvals {
			t.Fatalf("tree %v on %v: indexed %+v, single-bucket %+v", tp, pat, got, ref)
		}
	})
}

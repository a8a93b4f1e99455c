package stats

import (
	"math"

	"acep/internal/pattern"
)

// Selectivities are counted over columns: for every pattern position, one
// []float64 per attribute some predicate reads there. columns is that
// layout, shared by the Estimator's sample rings and by Exact.
type columns struct {
	attrs [][]int // attrs[pos]: the attribute indices gathered at pos
	l, r  []int   // per predicate: its column within attrs[L] / attrs[R]
}

func layoutColumns(pat *pattern.Pattern) columns {
	c := columns{
		attrs: make([][]int, pat.NumPositions()),
		l:     make([]int, len(pat.Preds)),
		r:     make([]int, len(pat.Preds)),
	}
	column := func(pos, attr int) int {
		for i, a := range c.attrs[pos] {
			if a == attr {
				return i
			}
		}
		c.attrs[pos] = append(c.attrs[pos], attr)
		return len(c.attrs[pos]) - 1
	}
	for k := range pat.Preds {
		pr := &pat.Preds[k]
		c.l[k] = column(pr.L, pr.AttrL)
		if !pr.IsUnary() {
			c.r[k] = column(pr.R, pr.AttrR)
		}
	}
	return c
}

// countPred counts predicate pr over every (left, right) value pair — or
// every left value when pr is unary, where r is ignored — and returns how
// many pass out of how many were tried.
func countPred(pr *pattern.Pred, l, r []float64) (pass, total int) {
	if pr.IsUnary() {
		return countUnary(pr.Op, l, pr.C), len(l)
	}
	return countPairs(pr.Op, l, r, pr.C), len(l) * len(r)
}

// unaryRight is the right-hand column of a unary predicate: pattern.Pred's
// Eval compares a unary left value against 0+C.
var unaryRight = []float64{0}

func countUnary(op pattern.CmpOp, l []float64, c float64) int {
	return countPairs(op, l, unaryRight, c)
}

// countPairs returns the number of pairs (lv, rv) drawn from l × r that
// satisfy lv op rv+c (|lv-rv| < c for AbsDiffLT). It is the one place the
// package evaluates a predicate, and it computes exactly the floating-
// point expression pattern.Pred's Eval does — rv+c is hoisted out of the
// inner loop but never rearranged — so NaN, ±Inf and rounding at the
// boundary count the way the engines' own evaluation decides them.
func countPairs(op pattern.CmpOp, l, r []float64, c float64) int {
	n := 0
	switch op {
	case pattern.LT:
		for _, rv := range r {
			t := rv + c
			for _, lv := range l {
				if lv < t {
					n++
				}
			}
		}
	case pattern.LE:
		for _, rv := range r {
			t := rv + c
			for _, lv := range l {
				if lv <= t {
					n++
				}
			}
		}
	case pattern.GT:
		for _, rv := range r {
			t := rv + c
			for _, lv := range l {
				if lv > t {
					n++
				}
			}
		}
	case pattern.GE:
		for _, rv := range r {
			t := rv + c
			for _, lv := range l {
				if lv >= t {
					n++
				}
			}
		}
	case pattern.EQ:
		for _, rv := range r {
			t := rv + c
			for _, lv := range l {
				if lv == t {
					n++
				}
			}
		}
	case pattern.NE:
		for _, rv := range r {
			t := rv + c
			for _, lv := range l {
				if lv != t {
					n++
				}
			}
		}
	case pattern.AbsDiffLT:
		for _, rv := range r {
			for _, lv := range l {
				if math.Abs(lv-rv) < c {
					n++
				}
			}
		}
	}
	return n
}

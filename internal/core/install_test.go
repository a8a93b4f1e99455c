package core

import (
	"math/rand"
	"sort"
	"testing"

	"acep/internal/stats"
)

// stableSelect is the selection a stable sort by score makes: the k
// lowest-scoring conditions, ties in DCS order (k <= 0 meaning 1).
func stableSelect(dcs DCS, k int, score func(Condition) float64) []Condition {
	if k <= 0 {
		k = 1
	}
	idx := make([]int, len(dcs.Conds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return score(dcs.Conds[idx[a]]) < score(dcs.Conds[idx[b]]) })
	var out []Condition
	for _, i := range idx[:min(k, len(idx))] {
		out = append(out, dcs.Conds[i])
	}
	return out
}

// randomDCS draws m conditions between rate expressions over a snapshot
// whose rates take three values, so that many gaps tie. Each condition
// has terms of its own: &c.LHS.Terms[0] tells them apart.
func randomDCS(r *rand.Rand, m int) (DCS, *stats.Snapshot) {
	s := stats.NewSnapshot(6)
	for i := range s.Rates {
		s.Rates[i] = float64(1 + r.Intn(3))
	}
	var dcs DCS
	for c := 0; c < m; c++ {
		dcs.Conds = append(dcs.Conds, Condition{LHS: rateExpr(r.Intn(6)), RHS: rateExpr(r.Intn(6))})
	}
	return dcs, s
}

// TestSelectorsMatchStableSort: the selectors pick what a stable sort by
// their score picks — at K = 1 the first of tied minima — and append it
// behind what dst already holds.
func TestSelectorsMatchStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ties := 0
	for trial := 0; trial < 400; trial++ {
		dcs, s := randomDCS(r, r.Intn(12))
		gap := func(c Condition) float64 { return c.Gap(s) }
		for k := 0; k <= 5; k++ {
			want := stableSelect(dcs, k, gap)
			prefix := []Condition{{}}
			got := TightestGap(prefix, dcs, s, k)
			if len(got) != 1+len(want) || got[0].LHS.Terms != nil {
				t.Fatalf("trial %d, k=%d: %d conditions after a one-condition prefix, want %d", trial, k, len(got), 1+len(want))
			}
			for i := range want {
				if &got[1+i].LHS.Terms[0] != &want[i].LHS.Terms[0] {
					t.Fatalf("trial %d, k=%d: pick %d is %s, want %s (the stable sort's)", trial, k, i, got[1+i], want[i])
				}
			}
		}
		for i := 1; i < len(dcs.Conds); i++ {
			if gap(dcs.Conds[i]) == gap(dcs.Conds[0]) {
				ties++
				break
			}
		}
	}
	if ties < 50 {
		t.Fatalf("only %d trials had a tie", ties)
	}
}

// TestInstallOwnsItsInvariants: the invariant list shares no storage
// with the trace it was built from — a generator refills that storage at
// its next run — so scribbling over the trace changes no invariant.
func TestInstallOwnsItsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, p := range []*Invariant{{}, {K: 2}, {Select: All}} {
		var tr Trace
		var s *stats.Snapshot
		for b := 0; b < 4; b++ {
			var dcs DCS
			dcs, s = randomDCS(r, 1+r.Intn(5))
			tr.Blocks = append(tr.Blocks, dcs)
		}
		p.Install(&tr, s)
		var before []string
		for _, c := range p.invariants {
			before = append(before, c.String())
		}
		for _, b := range tr.Blocks {
			for _, c := range b.Conds {
				for _, e := range []Expr{c.LHS, c.RHS} {
					for i := range e.Terms {
						e.Terms[i].Coef = -1
						for j := range e.Terms[i].Rates {
							e.Terms[i].Rates[j] = 0
						}
					}
				}
			}
		}
		for i, c := range p.invariants {
			if c.String() != before[i] {
				t.Fatalf("%s: invariant %d reads %s after the trace was overwritten, was %s", p.Name(), i, c, before[i])
			}
		}
	}
}

// TestInstallAllocs: installing a trace of the shape the last one had,
// and checking the invariants, allocate nothing.
func TestInstallAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var tr Trace
	var s *stats.Snapshot
	for b := 0; b < 5; b++ {
		var dcs DCS
		dcs, s = randomDCS(r, 5-b)
		tr.Blocks = append(tr.Blocks, dcs)
	}
	for _, p := range []*Invariant{{}, {K: 3}, {AutoDistance: true}} {
		p.Install(&tr, s)
		if got := testing.AllocsPerRun(100, func() { p.Install(&tr, s) }); got != 0 {
			t.Errorf("%s: Install allocated %v times, want 0", p.Name(), got)
		}
		if got := testing.AllocsPerRun(100, func() { p.ShouldReoptimize(s) }); got != 0 {
			t.Errorf("%s: ShouldReoptimize allocated %v times, want 0", p.Name(), got)
		}
	}
}

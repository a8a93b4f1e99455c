package tree

import (
	"reflect"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// runKeyed drives one engine configuration over the stream. setup, when
// set, configures the engine before the first event.
func runKeyed(pat *pattern.Pattern, root *plan.TreeNode, evs []event.Event, indexed bool, setup func(*Engine)) matchtest.Run {
	var out []*match.Match
	g := newEngine(pat, plan.NewTreePlan(root), func(m *match.Match) { out = append(out, m) }, indexed)
	if setup != nil {
		setup(g)
	}
	for i := range evs {
		g.Process(&evs[i])
	}
	g.Finish()
	st := g.Stats()
	r := matchtest.Run{
		Keys: matchtest.Keys(out), PMCreated: st.PMCreated, PredEvals: st.PredEvals,
		Emitted: st.Emitted, Dropped: st.Dropped, Suppressed: st.Suppressed,
	}
	var count func(n *node) // nodes whose store is keyed on an equality
	count = func(n *node) {
		if n == nil {
			return
		}
		if indexed && n != g.root && match.EqKeyOf(n.sibling.joins).Indexed {
			r.Indexed++
		}
		count(n.left)
		count(n.right)
	}
	count(g.root)
	return r
}

// shapes enumerates every binary tree whose leaves, read left to right,
// are ps.
func shapes(ps []int) []*plan.TreeNode {
	if len(ps) == 1 {
		return []*plan.TreeNode{plan.Leaf(ps[0])}
	}
	var out []*plan.TreeNode
	for cut := 1; cut < len(ps); cut++ {
		for _, l := range shapes(ps[:cut]) {
			for _, r := range shapes(ps[cut:]) {
				out = append(out, plan.Join(l, r))
			}
		}
	}
	return out
}

// TestKeyedIndexDifferential runs every shared keyed case under every
// tree shape over every leaf order through the indexed engine, the flat
// reference and the oracle, plain and under the migration emit filter.
func TestKeyedIndexDifferential(t *testing.T) {
	emitBefore := func(g *Engine) { g.SetEmitOnlyBefore(150) }
	for _, c := range matchtest.KeyedCases() {
		want := matchtest.Keys(oracle.Matches(c.Pat, c.Events))
		if len(want) == 0 {
			t.Fatalf("%s: oracle found no matches; the case is vacuous", c.Name)
		}
		engaged := false
		for _, order := range matchtest.Permutations(c.Pat.Core()) {
			for _, root := range shapes(order) {
				ref := runKeyed(c.Pat, root, c.Events, false, nil)
				got := runKeyed(c.Pat, root, c.Events, true, nil)
				if !reflect.DeepEqual(ref.Keys, want) {
					t.Fatalf("%s %v: flat engine found %d matches, oracle %d", c.Name, plan.NewTreePlan(root), len(ref.Keys), len(want))
				}
				matchtest.RequireSameWork(t, c.Name, got, ref)
				engaged = engaged || got.Indexed > 0
			}
		}
		if !engaged {
			t.Fatalf("%s: no tree plan engaged the index", c.Name)
		}
		root := shapes(c.Pat.Core())[0]
		ref := runKeyed(c.Pat, root, c.Events, false, emitBefore)
		if ref.Suppressed == 0 {
			t.Fatalf("%s: emit filter suppressed nothing", c.Name)
		}
		matchtest.RequireSameWork(t, c.Name+"/emit-before", runKeyed(c.Pat, root, c.Events, true, emitBefore), ref)
	}
}

// TestKeyedIndexNeedsCrossEquality: a node is indexed only when an
// equality connects its leaf set to its sibling's. In ((A C) B) over
// a.k=b.k, b.k=c.k the leaves A and C join on no predicate at all and
// stay flat; the (A C) node and the B leaf are keyed.
func TestKeyedIndexNeedsCrossEquality(t *testing.T) {
	c := matchtest.KeyedCases()[0]
	root := plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(2)), plan.Leaf(1))
	if r := runKeyed(c.Pat, root, c.Events, true, nil); r.Indexed != 2 {
		t.Fatalf("%d indexed nodes, want 2 (the inner join and the B leaf)", r.Indexed)
	}
}

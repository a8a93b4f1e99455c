package tree

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/nfa"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// model is the tree-based engine as the shared table
// (internal/match/matchtest) drives it: every binary tree over every
// ordering of the core positions is a plan, and a non-root node is a
// place.
var model = matchtest.Model{
	Tests: map[string][]string{
		"TestTreePaperExample":             {"paper-example"},
		"TestTreeAllShapesAgreeWithOracle": {"chain3"},
		"TestTreeBushyFourLeaves":          {"chain4"},
		"TestTreeMatchesNFA":               {"and3", "negation", "kleene", "identity"},
		"TestTreeShapeAffectsWork":         {"work"},
		"TestTreeEmitFilter":               {"emit-filter"},
		"TestTreeExpiryPrunes":             {"expiry", "window"},
		"TestTreeSingleLeafRoot":           {"single-position"},
		"TestIntrospection":                {"introspection"},
		"TestIntrospectionStaleBound":      {"stale-bound"},
		"TestKeyedIndexDifferential":       {"keyed"},
		"TestKeyedIndexNeedsCrossEquality": {"index-needs-equality"},
		"TestProcessZeroAllocsNoMatch":     {"allocs/no-match"},
		"TestProcessBoundedAllocsMatching": {"allocs/matching"},
		"TestProcessBoundedAllocsKleene":   {"allocs/kleene"},
		"TestProcessZeroAllocsKeyChurn":    {"allocs/key-churn"},
	},
	New: func(pat *pattern.Pattern, p plan.Plan, emit func(*match.Match), indexed bool) matchtest.Engine {
		if indexed {
			return New(pat, p.(*plan.TreePlan), emit)
		}
		return newEngine(pat, p.(*plan.TreePlan), emit, false)
	},
	Shapes: func(order []int) []plan.Plan {
		var out []plan.Plan
		for _, root := range shapes(order) {
			out = append(out, plan.NewTreePlan(root))
		}
		return out
	},
	Chain: func(order []int) plan.Plan {
		root := plan.Leaf(order[0])
		for _, p := range order[1:] {
			root = plan.Join(root, plan.Leaf(p))
		}
		return plan.NewTreePlan(root)
	},
	Indexed: func(e matchtest.Engine) []bool {
		g := e.(*Engine)
		var on []bool
		var walk func(n *node) // pre-order below the root
		walk = func(n *node) {
			if n == nil {
				return
			}
			if n != g.root {
				on = append(on, match.EqKeyOf(n.sibling.joins).Indexed)
			}
			walk(n.left)
			walk(n.right)
		}
		walk(g.root)
		return on
	},
	// A leaf's store holds no more buckets than there are keys with a
	// tuple inside the window.
	Churn: func(t testing.TB, e matchtest.Engine, order []int, window event.Time) {
		g := e.(*Engine)
		g.Store.Prune(g.Watermark())
		liveKeys := int(window)/3 + 2
		for _, n := range g.leafByPos {
			if got := n.store.Buckets(); got == 0 || got > liveKeys {
				t.Fatalf("order %v: leaf %d holds %d buckets after prune; want 1..%d", order, n.pos, got, liveKeys)
			}
		}
	},
	Expect: matchtest.Expect{
		// A stored A-tuple makes B hot (its sibling leaf holds a joinable
		// tuple); once A+B reaches the inner node C is hot too, and A
		// joins stored B-tuples. Hot keys come from joined tuples only.
		Intro: [3]matchtest.Look{
			{},
			{Live: 1, Hot: []int{1}},
			{Live: 3, Hot: []int{0, 1, 2}, Keys: []uint64{7}},
		},
		ExpiredLive: 1,                                // the late B's leaf tuple
		Indexed:     []bool{true, false, false, true}, // ((A C) B): (A C) and B join on b.k; A and C on nothing
	},
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

// Each test runs the table groups model.Tests names for it.
func TestTreePaperExample(t *testing.T)             { model.Run(t) }
func TestTreeAllShapesAgreeWithOracle(t *testing.T) { model.Run(t) }
func TestTreeBushyFourLeaves(t *testing.T)          { model.Run(t) }
func TestTreeMatchesNFA(t *testing.T)               { model.Run(t) }
func TestTreeShapeAffectsWork(t *testing.T)         { model.Run(t) }
func TestTreeEmitFilter(t *testing.T)               { model.Run(t) }
func TestTreeExpiryPrunes(t *testing.T)             { model.Run(t) }
func TestTreeSingleLeafRoot(t *testing.T)           { model.Run(t) }
func TestIntrospection(t *testing.T)                { model.Run(t) }
func TestIntrospectionStaleBound(t *testing.T)      { model.Run(t) }
func TestKeyedIndexDifferential(t *testing.T)       { model.Run(t) }
func TestKeyedIndexNeedsCrossEquality(t *testing.T) { model.Run(t) }
func TestProcessZeroAllocsNoMatch(t *testing.T)     { model.Run(t) }
func TestProcessBoundedAllocsMatching(t *testing.T) { model.Run(t) }
func TestProcessBoundedAllocsKleene(t *testing.T)   { model.Run(t) }
func TestProcessZeroAllocsKeyChurn(t *testing.T)    { model.Run(t) }

func BenchmarkProcess(b *testing.B) { model.BenchProcess(b) }
func BenchmarkKeyed(b *testing.B)   { model.BenchKeyed(b) }

// FuzzEnginesVsOracle holds both models to the oracle (matchtest.Fuzz).
// The NFA's single-bucket reference is unexported, so its model here has
// no Indexed: nfa.New runs once, against the oracle alone, and package
// nfa's table holds it to the reference.
func FuzzEnginesVsOracle(f *testing.F) {
	matchtest.Fuzz(f, model, matchtest.Model{
		New: func(pat *pattern.Pattern, p plan.Plan, emit func(*match.Match), _ bool) matchtest.Engine {
			return nfa.New(pat, p.(*plan.OrderPlan), emit)
		},
		Shapes: func(order []int) []plan.Plan { return []plan.Plan{plan.NewOrderPlan(order)} },
	})
}

// joinAll clears every node's doomed marks: the engine that joins on every
// insert, the reference of the offer rule.
func joinAll(n *node) {
	if n == nil {
		return
	}
	clear(n.doomed)
	joinAll(n.left)
	joinAll(n.right)
}

// TestDoomedProbeDifferential runs every plan of the table's chain,
// negation, Kleene and keyed cases with the offer rule and against its
// reference, joinAll, once over one bucket per node and once indexed:
// matches in delivery order and every counter but PredEvals must be
// identical — the doomed probe still parks and sweeps, so LivePMs and
// PeakPMs too — and PredEvals no higher.
func TestDoomedProbeDifferential(t *testing.T) {
	type delivery struct {
		keys  []string
		stats match.Stats
	}
	run := func(pat *pattern.Pattern, p plan.Plan, evs []event.Event, indexed, all bool) delivery {
		var out delivery
		g := newEngine(pat, p.(*plan.TreePlan), func(m *match.Match) {
			out.keys = append(out.keys, matchtest.Keys([]*match.Match{m})[0])
		}, indexed)
		if all {
			joinAll(g.root)
		}
		for i := range evs {
			g.Process(&evs[i])
		}
		g.Finish()
		out.stats = g.Stats()
		return out
	}
	runs, fewer := 0, 0
	for _, c := range matchtest.Cases() {
		if !slices.ContainsFunc([]string{"chain3/", "chain4/", "negation/", "kleene/", "keyed/"}, func(g string) bool { return strings.HasPrefix(c.Name, g) }) {
			continue
		}
		for _, order := range matchtest.Permutations(c.Pat.Core()) {
			for _, p := range model.Shapes(order) {
				for _, indexed := range []bool{false, true} {
					got, ref := run(c.Pat, p, c.Events, indexed, false), run(c.Pat, p, c.Events, indexed, true)
					evals := got.stats.PredEvals
					got.stats.PredEvals = ref.stats.PredEvals
					if !reflect.DeepEqual(got, ref) || evals > ref.stats.PredEvals {
						t.Fatalf("%s %v indexed %v: with the offer rule %d matches, %+v, %d predicate evaluations; joining on every insert %d, %+v",
							c.Name, p, indexed, len(got.keys), got.stats, evals, len(ref.keys), ref.stats)
					}
					runs++
					if evals < ref.stats.PredEvals {
						fewer++
					}
				}
			}
		}
	}
	if fewer == 0 {
		t.Fatalf("none of %d runs evaluated fewer predicates than its reference; the offer rule was not exercised", runs)
	}
}

package nfa

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// prefixOf builds the standalone pattern of the first k positions of the
// x-equality sequence chain (the shape a shared prefix runner detects).
func prefixOf(s *event.Schema, k int, window event.Time) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, window)
	for i := 0; i < k; i++ {
		b.Event(i)
	}
	for i := 0; i+1 < k; i++ {
		b.WherePred(pattern.Pred{L: i, R: i + 1, AttrL: 0, AttrR: 0, Op: pattern.EQ})
	}
	return b.MustBuild()
}

// matchKey renders a match as its constituent sequence numbers, the
// plan-independent identity the comparisons sort by.
func matchKey(m *match.Match) string {
	key := ""
	for _, ev := range m.Events {
		if ev != nil {
			key += fmt.Sprintf("%d,", ev.Seq)
		} else {
			key += "_,"
		}
	}
	for _, set := range m.Kleene {
		key += "["
		for _, ev := range set {
			key += fmt.Sprintf("%d,", ev.Seq)
		}
		key += "]"
	}
	return key
}

func sortedKeys(ms []*match.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = matchKey(m)
	}
	sort.Strings(keys)
	return keys
}

// TestSeededPrefixEquivalence drives the seeding contract directly: a
// runner engine over the 2-position prefix pattern feeds Seed on a
// subscriber whose first two order positions are disabled, and the
// subscriber's match set must equal a plain engine's on every stream.
func TestSeededPrefixEquivalence(t *testing.T) {
	const k = 2
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(300 + trial)))
		s := mkSchema(4)
		window := event.Time(40 + 30*(trial%3))
		pat := seqChainPattern(s, 4, window)
		evs := genStream(r, s, []int{3, 2, 2, 3}, 600, 3, 4)

		want, _ := runEngine(pat, plan.NewOrderPlan(pat.Core()), evs)

		// Runner window is deliberately wider than the subscriber's:
		// Seed must filter over-span assignments itself.
		runnerPat := prefixOf(s, k, 2*window)
		var got []*match.Match
		sub := New(pat, plan.NewOrderPlan(pat.Core()), func(m *match.Match) {
			got = append(got, &match.Match{
				Events: append([]*event.Event(nil), m.Events...),
			})
		})
		if err := sub.SetSharedPrefix(k); err != nil {
			t.Fatal(err)
		}
		runner := New(runnerPat, plan.NewOrderPlan(runnerPat.Core()), func(m *match.Match) {
			sub.Seed(m.Events)
		})
		runner.SetOwnedEmit(true)
		for i := range evs {
			runner.Process(&evs[i])
			sub.Process(&evs[i])
		}
		runner.Finish()
		sub.Finish()

		if wk, gk := sortedKeys(want), sortedKeys(got); !equalStrings(wk, gk) {
			t.Fatalf("trial %d: seeded subscriber diverged: want %d matches, got %d\nwant: %v\ngot:  %v",
				trial, len(wk), len(gk), wk, gk)
		}
	}
}

// TestSeededPrefixRejectsBadK pins the SetSharedPrefix bounds.
func TestSeededPrefixRejectsBadK(t *testing.T) {
	s := mkSchema(3)
	pat := seqChainPattern(s, 3, 100)
	g := New(pat, plan.NewOrderPlan(pat.Core()), nil)
	for _, k := range []int{0, -1, 3, 4} {
		if err := g.SetSharedPrefix(k); err == nil {
			t.Fatalf("SetSharedPrefix(%d) accepted", k)
		}
	}
	if err := g.SetSharedPrefix(2); err != nil {
		t.Fatalf("SetSharedPrefix(2): %v", err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

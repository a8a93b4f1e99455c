package nfa

import (
	"hash/fnv"
	"testing"

	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/plan"
)

// TestEmissionOrderPinned pins the order in which the engine delivers its
// matches, not just their multiset, for three plan orders of a keyed and
// an unkeyed SEQ-of-4: the lazy scan, the forks and the emissions happen
// in an order a host sees. The digest is FNV-64a over the matches' keys
// in delivery order; partial matches created are pinned alongside.
func TestEmissionOrderPinned(t *testing.T) {
	type row struct {
		order     []int
		matches   int
		digest    uint64
		pmCreated uint64
	}
	cases := []struct {
		name   string
		keys   int
		window event.Time
		rows   []row
	}{
		{name: "unkeyed", window: 200, rows: []row{
			{order: []int{0, 1, 2, 3}, matches: 184, digest: 0xff12d7f02e47d54c, pmCreated: 38287},
			{order: []int{3, 2, 1, 0}, matches: 184, digest: 0x68bc61e930d92e12, pmCreated: 16942},
			{order: []int{1, 3, 0, 2}, matches: 184, digest: 0xd89872eaaf8509be, pmCreated: 13000},
		}},
		{name: "keyed", keys: 4, window: 800, rows: []row{
			{order: []int{0, 1, 2, 3}, matches: 164, digest: 0xe5e04740502d6fbc, pmCreated: 38157},
			{order: []int{3, 2, 1, 0}, matches: 164, digest: 0x75c2f275071abf2, pmCreated: 16570},
			{order: []int{1, 3, 0, 2}, matches: 164, digest: 0x7a51ef7b4a4058c4, pmCreated: 39529},
		}},
	}
	for _, c := range cases {
		w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 20000, Seed: 5, Shifts: 1, Keys: c.keys})
		pat, err := w.Pattern(gen.Sequence, 4, c.window)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.rows {
			h := fnv.New64a()
			n := 0
			g := New(pat, plan.NewOrderPlan(r.order), func(m *match.Match) {
				n++
				h.Write([]byte(m.Key()))
				h.Write([]byte{';'})
			})
			for i := range w.Events {
				g.Process(&w.Events[i])
			}
			g.Finish()
			got := row{order: r.order, matches: n, digest: h.Sum64(), pmCreated: g.Stats().PMCreated}
			if n == 0 {
				t.Fatalf("%s order %v: no matches; the case is vacuous", c.name, r.order)
			}
			if got.matches != r.matches || got.digest != r.digest || got.pmCreated != r.pmCreated {
				t.Errorf("%s order %v: %d matches, digest %#x, %d PMs created; recorded %d, %#x, %d",
					c.name, r.order, got.matches, got.digest, got.pmCreated, r.matches, r.digest, r.pmCreated)
			}
		}
	}
}

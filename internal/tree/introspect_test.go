package tree

import (
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/plan"
)

// TestIntrospection drives SEQ(A, B, C) through the ((A,B),C) tree and
// checks the shedding hooks: a stored A-tuple makes B hot (its sibling
// leaf holds a joinable tuple); once A+B reaches the inner node, C
// becomes hot.
func TestIntrospection(t *testing.T) {
	s := mkSchema(3)
	pat := seqChainPattern(s, 3, 100)
	tp := plan.NewTreePlan(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)))
	g := New(pat, tp, func(*match.Match) {})

	key := func(ev *event.Event) uint64 { return uint64(ev.Attrs[0]) }
	hot := func() []bool {
		mark := make([]bool, 3)
		g.HotTypes(mark)
		return mark
	}

	if g.LivePMs() != 0 {
		t.Fatalf("LivePMs = %d before any event", g.LivePMs())
	}
	if m := hot(); m[0] || m[1] || m[2] {
		t.Fatalf("hot types %v before any event", m)
	}

	a := s.MustNew(0, 10, 7)
	a.Seq = 1
	g.Process(&a)
	if g.LivePMs() != 1 {
		t.Fatalf("LivePMs = %d after A", g.LivePMs())
	}
	if m := hot(); !m[1] || m[0] || m[2] {
		t.Fatalf("hot types after A = %v, want only B", m)
	}

	b := s.MustNew(1, 20, 7) // same key: joins the A-tuple
	b.Seq = 2
	g.Process(&b)
	// Stores now hold A, B and the joined A+B at the inner node.
	if g.LivePMs() != 3 {
		t.Fatalf("LivePMs = %d after B", g.LivePMs())
	}
	if m := hot(); !m[0] || !m[1] || !m[2] {
		t.Fatalf("hot types after B = %v, want all (A joins B-tuples, C joins A+B)", m)
	}

	// Hot keys come from internal-node (joined) tuples only: the A+B
	// join reports key 7; the lone leaf tuples do not count.
	keys := map[uint64]bool{}
	g.HotKeys(key, func(k uint64) { keys[k] = true })
	if !keys[7] || len(keys) != 1 {
		t.Fatalf("hot keys = %v, want {7}", keys)
	}
}

// TestIntrospectionStaleBound pins what LivePMs may report on an indexed
// node: a tuple that expired in a bucket no later insert probes is still
// counted, but only until the next prune — never more than half a window
// past its expiry.
func TestIntrospectionStaleBound(t *testing.T) {
	s := mkSchema(3)
	const window = 100
	pat := seqChainPattern(s, 3, window)
	tp := plan.NewTreePlan(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)))
	g := New(pat, tp, func(*match.Match) {})

	// One leaf tuple per event, every one under a key of its own: no
	// bucket is ever probed, so nothing but prune reclaims them. With one
	// event per tick, the tuples alive at ts are those of the last
	// window+1 ticks.
	sawStale := false
	for ts := event.Time(1); ts <= 1000; ts++ {
		e := s.MustNew(int(ts%2), ts, float64(ts))
		e.Seq = uint64(ts)
		g.Process(&e)
		alive := int(min(ts, window+1))
		stale := g.LivePMs() - alive
		if stale < 0 || stale > window/2 {
			t.Fatalf("at ts %d LivePMs = %d with %d tuples in the window: %d stale, want 0..%d", ts, g.LivePMs(), alive, stale, window/2)
		}
		sawStale = sawStale || stale > 0
	}
	if !sawStale {
		t.Fatal("no expired tuple was ever counted; the bound was not exercised")
	}
}

package nfa

import (
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/plan"
)

// TestIntrospection drives SEQ(A, B, C) in declaration order and checks
// the shedding hooks: after an A arrives, the next position's type (B) is
// hot and the PM's key value is reported; after B extends it, C becomes
// hot as well (the original PM still waits at state 1).
func TestIntrospection(t *testing.T) {
	s := mkSchema(3)
	pat := seqChainPattern(s, 3, 100)
	g := New(pat, plan.NewOrderPlan([]int{0, 1, 2}), func(*match.Match) {})

	key := func(ev *event.Event) uint64 { return uint64(ev.Attrs[0]) }
	hot := func() []bool {
		mark := make([]bool, 3)
		g.HotTypes(mark)
		return mark
	}
	keys := func() map[uint64]bool {
		out := map[uint64]bool{}
		g.HotKeys(key, func(k uint64) { out[k] = true })
		return out
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
	if k := keys(); !k[7] || len(k) != 1 {
		t.Fatalf("hot keys after A = %v, want {7}", k)
	}

	b := s.MustNew(1, 20, 7) // same key: extends the A-PM
	b.Seq = 2
	g.Process(&b)
	// The A-PM still waits at state 1 and its A+B fork waits at state 2.
	if g.LivePMs() != 2 {
		t.Fatalf("LivePMs = %d after B", g.LivePMs())
	}
	if m := hot(); !m[1] || !m[2] {
		t.Fatalf("hot types after B = %v, want B and C", m)
	}
	if k := keys(); !k[7] {
		t.Fatalf("hot keys after B = %v, want 7 present", k)
	}
}

// TestIntrospectionStaleBound pins what LivePMs and HotKeys may report on
// an indexed state: a PM that expired in a bucket no later event probes
// is still counted, but only until the next prune — never more than half
// a window past its expiry.
func TestIntrospectionStaleBound(t *testing.T) {
	s := mkSchema(3)
	const window = 100
	pat := seqChainPattern(s, 3, window)
	g := New(pat, plan.NewOrderPlan([]int{0, 1, 2}), func(*match.Match) {})
	firstTS := func(ev *event.Event) uint64 { return uint64(ev.TS) }

	// Every A carries its own key, and every B a key no A has: no bucket
	// holding a PM is ever probed, so nothing but prune reclaims them.
	sawStale := false
	for ts := event.Time(1); ts <= 1000; ts++ {
		e := s.MustNew(int(ts%2), ts, float64(ts)*float64(1-2*(ts%2)))
		e.Seq = uint64(ts)
		g.Process(&e)
		reported := 0
		g.HotKeys(firstTS, func(created uint64) {
			reported++
			age := ts - event.Time(created)
			if age > window {
				sawStale = true
			}
			if age > window+window/2 {
				t.Fatalf("at ts %d a PM created at %d is still reported: %d past its expiry, want <= %d", ts, created, age-window, window/2)
			}
		})
		if reported != g.LivePMs() {
			t.Fatalf("at ts %d HotKeys reported %d PMs, LivePMs %d", ts, reported, g.LivePMs())
		}
	}
	if !sawStale {
		t.Fatal("no expired PM was ever counted; the bound was not exercised")
	}
}

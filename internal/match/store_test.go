package match

import (
	"math"
	"testing"

	"acep/internal/event"
	"acep/internal/pattern"
)

// eqPlace builds a store with one place for SEQ(A,B) partials holding an
// A, indexed on b.x == a.x + c.
func eqPlace(t *testing.T, c float64) (*event.Schema, *Store, *Place) {
	t.Helper()
	s := mkSchema()
	b := pattern.NewBuilder(s, pattern.Seq, 10)
	b.Event(0)
	b.Event(1)
	b.WherePred(pattern.Pred{L: 1, R: 0, Op: pattern.EQ, C: c})
	pat := b.MustBuild()
	key := EqKeyOf([]Check{{PosN: 1, PosO: 0, PC: pat.Pair(1, 0)}})
	if !key.Indexed || key.C != c {
		t.Fatalf("EqKeyOf = %+v, want an indexed key with C=%v", key, c)
	}
	st := NewStore(2, pat.Window)
	return s, st, st.NewPlace(key)
}

// parkA parks a partial holding one A event with the given key value.
func parkA(s *event.Schema, st *Store, pl *Place, ts event.Time, x float64) *Partial {
	m := st.Get()
	m.Evs[0] = ev(s, 0, ts, x)
	m.MinTS, m.MaxTS = ts, ts
	pl.Park(m)
	return m
}

func TestEqKeyOfTakesFirstEqualityOnly(t *testing.T) {
	s := mkSchema()
	b := pattern.NewBuilder(s, pattern.Seq, 10)
	b.Event(0)
	b.Event(1)
	b.Event(2)
	b.WherePred(pattern.Pred{L: 0, R: 2, Op: pattern.LT})
	b.WherePred(pattern.Pred{L: 1, R: 2, Op: pattern.EQ, C: 2}) // b.x == c.x + 2
	pat := b.MustBuild()
	checks := []Check{{PosN: 2, PosO: 0, PC: pat.Pair(2, 0)}, {PosN: 2, PosO: 1, PC: pat.Pair(2, 1)}}
	// Offering C to a partial holding A and B: the equality is stored
	// mirrored, c.x == b.x - 2.
	want := EqKey{Indexed: true, PosO: 1, AttrO: 0, C: -2, PosN: 2, AttrN: 0}
	if got := EqKeyOf(checks); got != want {
		t.Fatalf("EqKeyOf = %+v, want %+v", got, want)
	}
	if got := EqKeyOf(checks[:1]); got.Indexed {
		t.Fatalf("a check list without an equality is indexed: %+v", got)
	}
}

func TestPlaceProbeSelectsByKey(t *testing.T) {
	s, st, pl := eqPlace(t, 1)
	parkA(s, st, pl, 1, 4)  // filed under 5
	parkA(s, st, pl, 2, 4)  // filed under 5
	parkA(s, st, pl, 3, -1) // filed under +0
	negZero := math.Copysign(0, -1)
	parkA(s, st, pl, 4, negZero-1) // -1 again: same bucket
	if got := pl.Probe(ev(s, 1, 5, 5), 5); len(got) != 2 {
		t.Fatalf("probe 5 met %d partials, want 2", len(got))
	}
	for _, zero := range []float64{0, negZero} {
		if got := pl.Probe(ev(s, 1, 5, zero), 5); len(got) != 2 {
			t.Fatalf("probe %v met %d partials, want the 2 filed under zero", zero, len(got))
		}
	}
	if got := pl.Probe(ev(s, 1, 5, 4), 5); len(got) != 0 {
		t.Fatalf("probe 4 met %d partials, want none", len(got))
	}
	if pl.Buckets() != 2 || pl.Len() != 4 || st.Live() != 4 {
		t.Fatalf("buckets %d len %d live %d, want 2 4 4", pl.Buckets(), pl.Len(), st.Live())
	}
}

// TestPlaceNaNParkedButNeverProbed: a partial whose key is NaN can join
// nothing, so no probe reaches it — but it is counted while it lives and
// Prune expires it like any other.
func TestPlaceNaNParkedButNeverProbed(t *testing.T) {
	s, st, pl := eqPlace(t, 0)
	parkA(s, st, pl, 1, math.NaN())
	parkA(s, st, pl, 1, math.Inf(1))
	if got := pl.Probe(ev(s, 1, 2, math.NaN()), 2); len(got) != 0 {
		t.Fatalf("a NaN probe met %d partials", len(got))
	}
	if got := pl.Offer(ev(s, 1, 2, math.NaN()), 2); len(got) != 0 {
		t.Fatalf("a NaN offer met %d partials", len(got))
	}
	if got := pl.Probe(ev(s, 1, 2, math.Inf(1)), 2); len(got) != 1 {
		t.Fatalf("a +Inf probe met %d partials, want 1", len(got))
	}
	if st.Live() != 2 || pl.Buckets() != 1 {
		t.Fatalf("live %d buckets %d, want 2 and 1 (NaN parks outside the table)", st.Live(), pl.Buckets())
	}
	st.Prune(100)
	if st.Live() != 0 || pl.Len() != 0 || pl.Buckets() != 0 {
		t.Fatalf("after prune: live %d len %d buckets %d, want all 0", st.Live(), pl.Len(), pl.Buckets())
	}
}

// TestPlaceExpiryAndReclaim: a probe sweeps only its own bucket; the rest
// wait for Prune, which also returns emptied buckets for reuse.
func TestPlaceExpiryAndReclaim(t *testing.T) {
	s, st, pl := eqPlace(t, 0)
	old := parkA(s, st, pl, 1, 7)
	parkA(s, st, pl, 1, 8)
	parkA(s, st, pl, 20, 7)
	// Window is 10: at watermark 25 the two partials from ts 1 are dead.
	got := pl.Probe(ev(s, 1, 25, 7), 25)
	if len(got) != 1 || got[0].MinTS != 20 {
		t.Fatalf("probe of bucket 7 returned %d partials, want the live one", len(got))
	}
	if st.Live() != 2 || st.Peak() != 3 {
		t.Fatalf("live %d peak %d, want 2 (bucket 8 unswept) and 3", st.Live(), st.Peak())
	}
	if m := st.Get(); m != old || m.Evs[0] != nil {
		t.Fatal("the swept partial was not recycled clean")
	}
	st.Prune(25)
	if st.Live() != 1 || pl.Buckets() != 1 || len(pl.free) != 1 {
		t.Fatalf("after prune: live %d buckets %d free %d, want 1 1 1", st.Live(), pl.Buckets(), len(pl.free))
	}
	parkA(s, st, pl, 26, 9)
	if len(pl.free) != 0 || pl.Buckets() != 2 {
		t.Fatal("a new key did not reuse the reclaimed bucket")
	}
}

// TestPlaceOfferRecordsHistory: events offered to a place are what a
// partial parked later under the same key gets back, in arrival order,
// until they age past two windows.
func TestPlaceOfferRecordsHistory(t *testing.T) {
	s, st, pl := eqPlace(t, 0)
	pl.Offer(ev(s, 1, 1, 7), 1)
	pl.Offer(ev(s, 1, 2, 8), 2)
	pl.Offer(ev(s, 1, 3, 7), 3)
	m := st.Get()
	m.Evs[0] = ev(s, 0, 4, 7)
	m.MinTS, m.MaxTS = 4, 4
	var seen []event.Time
	pl.Park(m).All(func(e *event.Event) bool {
		seen = append(seen, e.TS)
		return true
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Fatalf("history under key 7 = %v, want [1 3]", seen)
	}
	st.Prune(23) // drops events before ts 3 and the partial from ts 4
	if pl.Buckets() != 1 {
		t.Fatalf("%d buckets after prune, want only key 7 (one event left)", pl.Buckets())
	}
	st.Prune(24)
	if pl.Buckets() != 0 {
		t.Fatalf("%d buckets after the last event aged out", pl.Buckets())
	}
}

// TestPlaceUnindexedIsOneBucket: the zero key files everything together
// and never reads an attribute.
func TestPlaceUnindexedIsOneBucket(t *testing.T) {
	s := mkSchema()
	st := NewStore(2, 10)
	pl := st.NewPlace(EqKey{})
	parkA(s, st, pl, 1, 1)
	parkA(s, st, pl, 1, math.NaN())
	bare := &event.Event{Type: 1, TS: 2} // no attributes at all
	if got := pl.Offer(bare, 2); len(got) != 2 {
		t.Fatalf("offer met %d partials, want both", len(got))
	}
	if pl.Buckets() != 0 {
		t.Fatalf("an unindexed place grew %d key buckets", pl.Buckets())
	}
}

package match

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"acep/internal/event"
	"acep/internal/pattern"
)

// eqPlace builds a store with one place for SEQ(A,B) partials holding an
// A, indexed on b.x == a.x + c.
func eqPlace(t testing.TB, c float64, history bool) (*event.Schema, *Store, *Place) {
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
	return s, st, st.NewPlace(key, history)
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
	s, st, pl := eqPlace(t, 1, true)
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
	s, st, pl := eqPlace(t, 0, true)
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
	s, st, pl := eqPlace(t, 0, true)
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
	s, st, pl := eqPlace(t, 0, true)
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
	pl := st.NewPlace(EqKey{}, true)
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

// requireOldest checks the sweep guard's invariant: a bucket holding
// partials knows the least MinTS among them.
func requireOldest(t *testing.T, pl *Place, at string) {
	t.Helper()
	for _, b := range append([]*bucket{&pl.flat}, pl.live...) {
		if len(b.ms) == 0 {
			continue
		}
		least := b.ms[0].MinTS
		for _, m := range b.ms {
			least = min(least, m.MinTS)
		}
		if b.oldest != least {
			t.Fatalf("%s: bucket %d holds oldest %d, its partials' least MinTS is %d", at, b.key, b.oldest, least)
		}
	}
}

// TestPlaceSweepGuard holds a place whose buckets skip the sweep while
// nothing in them has expired against a model that sweeps the probed
// bucket on every probe: after every probe, offer and prune the partials
// a probe meets and Live are the model's. Partials park with MinTS up to
// a window old, as forks of a lazy scan do, so the oldest is not always
// the first.
func TestPlaceSweepGuard(t *testing.T) {
	for _, history := range []bool{false, true} {
		s, st, pl := eqPlace(t, 0, history)
		r := rand.New(rand.NewSource(7))
		model := map[float64][]event.Time{} // key -> MinTS of the partials the model holds
		sweep := func(k float64, now event.Time) {
			model[k] = slices.DeleteFunc(model[k], func(ts event.Time) bool { return now-ts > st.window })
		}
		live := func() (n int) {
			for _, ms := range model {
				n += len(ms)
			}
			return n
		}
		swept := 0
		var now event.Time
		for op := 0; op < 20000; op++ {
			now += event.Time(r.Intn(2))
			k := float64(r.Intn(5))
			switch x := r.Intn(10); {
			case x < 5:
				ts := now - event.Time(r.Intn(int(st.window)))
				m := st.Get()
				m.Evs[0] = ev(s, 0, ts, k)
				m.MinTS, m.MaxTS = ts, now
				pl.Park(m)
				model[k] = append(model[k], ts)
			case x < 9:
				before := len(model[k])
				sweep(k, now)
				swept += before - len(model[k])
				probe := pl.Probe
				if x == 8 {
					probe = pl.Offer
				}
				if got := probe(ev(s, 1, now, k), now); len(got) != len(model[k]) {
					t.Fatalf("history %v op %d: a probe of key %v met %d partials, want %d", history, op, k, len(got), len(model[k]))
				}
			default:
				st.Prune(now)
				for k := range model {
					sweep(k, now)
				}
			}
			if st.Live() != live() || pl.Len() != live() {
				t.Fatalf("history %v op %d: live %d len %d, a sweep on every probe leaves %d", history, op, st.Live(), pl.Len(), live())
			}
			requireOldest(t, pl, fmt.Sprintf("history %v op %d", history, op))
		}
		if swept == 0 {
			t.Fatalf("history %v: no probe found an expired partial; the guard was not exercised", history)
		}
	}
}

// requireLiveList checks that a place's live list and key map hold the
// same buckets, each once and at its recorded slot.
func requireLiveList(t *testing.T, pl *Place, at string) {
	t.Helper()
	if len(pl.live) != len(pl.idx) {
		t.Fatalf("%s: %d buckets listed, %d in the map", at, len(pl.live), len(pl.idx))
	}
	for i, b := range pl.live {
		if b.at != i || pl.idx[b.key] != b {
			t.Fatalf("%s: live[%d] records slot %d, key %d maps to %p, want %p", at, i, b.at, b.key, pl.idx[b.key], b)
		}
	}
}

// TestPlacePruneKeyChurn: keys churn through a place — each lives for a
// few events and never returns — and after every prune the live list and
// the map agree (no bucket lost, none listed twice), HotKeys visits every
// parked partial once, and without history a bucket is left exactly for
// each key with a partial parked.
func TestPlacePruneKeyChurn(t *testing.T) {
	for _, history := range []bool{false, true} {
		s, st, pl := eqPlace(t, 0, history)
		r := rand.New(rand.NewSource(3))
		prunes := 0
		for ts := event.Time(1); ts < 3000; ts++ {
			k := float64(int(ts)/3 + r.Intn(4)) // a key lives for about a dozen events
			if r.Intn(2) == 0 {
				parkA(s, st, pl, ts, k)
			} else {
				pl.Offer(ev(s, 1, ts, k), ts)
			}
			if ts%5 != 0 {
				continue
			}
			st.Prune(ts)
			prunes++
			at := fmt.Sprintf("history %v prune at %d", history, ts)
			requireLiveList(t, pl, at)
			visited, keys := 0, map[uint64]bool{}
			pl.HotKeys(func(e *event.Event) uint64 { return uint64(e.Attrs[0]) }, func(k uint64) { visited++; keys[k] = true })
			if visited != pl.Len() {
				t.Fatalf("%s: HotKeys visited %d partials, %d parked", at, visited, pl.Len())
			}
			if !history && len(keys) != pl.Buckets() {
				t.Fatalf("%s: %d buckets for %d keys with a partial", at, pl.Buckets(), len(keys))
			}
		}
		if len(pl.free) == 0 || prunes == 0 {
			t.Fatalf("history %v: no bucket was ever dropped; the churn was not exercised", history)
		}
	}
}

// TestStoreReset: a store reset for its next plan starts empty — every
// place it hands out again without a partial, a bucket or a recorded
// event, whatever it held before under whatever key — and re-keyed: the
// place that was indexed parks unindexed and the unindexed one indexed,
// with the arrays and partials the store grew still in hand: no history
// array regrows, no place or key table is made again, and every partial
// the store made comes back from Get, its assignment clear, before a
// fresh one is made.
func TestStoreReset(t *testing.T) {
	s, st, keyed := eqPlace(t, 0, true)
	flat := st.NewPlace(EqKey{}, true)
	made := make(map[*Partial]bool)
	for ts := event.Time(1); ts <= 40; ts++ {
		x := float64(ts % 4)
		made[parkA(s, st, keyed, ts, x)] = true
		made[parkA(s, st, flat, ts, x)] = true
		keyed.Offer(ev(s, 1, ts, x), ts)
		flat.Offer(ev(s, 1, ts, x), ts)
	}
	st.Prune(40) // some partials expire into the pool, the rest stay parked
	if st.Live() == 0 || len(st.free) == 0 {
		t.Fatalf("%d parked and %d pooled partials: the test needs both", st.Live(), len(st.free))
	}
	histCap := cap(flat.flat.hist.evs)
	key := keyed.key

	var again [2]*Place
	if n := testing.AllocsPerRun(1, func() {
		st.Reset()
		again[0], again[1] = st.NewPlace(EqKey{}, true), st.NewPlace(key, true)
	}); n != 0 {
		t.Fatalf("Reset and the next plan's places allocated %v times", n)
	}
	flat2, keyed2 := again[0], again[1]
	if flat2 != keyed || keyed2 != flat || len(st.places) != 2 {
		t.Fatalf("the reset store made new places (%d in all)", len(st.places))
	}
	if st.Live() != 0 || st.Peak() != 0 || keyed2.Len() != 0 || keyed2.Buckets() != 0 || flat2.Len() != 0 || flat2.Buckets() != 0 {
		t.Fatalf("reset store: %d live, peak %d, %d/%d partials, %d/%d buckets; want none", st.Live(), st.Peak(), keyed2.Len(), flat2.Len(), keyed2.Buckets(), flat2.Buckets())
	}
	for i, pl := range st.places {
		for _, b := range append([]*bucket{&pl.flat}, pl.free...) {
			if len(b.ms) != 0 || b.hist.Len() != 0 {
				t.Fatalf("place %d keeps a bucket with %d partials and %d recorded events", i, len(b.ms), b.hist.Len())
			}
		}
	}
	if got := cap(keyed2.flat.hist.evs); got != histCap {
		t.Fatalf("the re-keyed place's history capacity %d, it had %d", got, histCap)
	}
	if got := len(flat2.free); got == 0 {
		t.Fatal("the place that was indexed kept no bucket")
	}
	// Every partial made before comes back, clear, without allocating.
	var got []*Partial
	if n := testing.AllocsPerRun(1, func() {
		for _, m := range got {
			st.Put(m)
		}
		got = got[:0]
		for range made {
			got = append(got, st.Get())
		}
	}); n != 0 {
		t.Fatalf("Get allocated %v times taking back %d pooled partials", n, len(made))
	}
	for _, m := range got {
		if !made[m] || slices.ContainsFunc(m.Evs, func(e *event.Event) bool { return e != nil }) {
			t.Fatalf("Get returned %p: fresh %v, assignment %v", m, !made[m], m.Evs)
		}
	}
	// Nothing recorded before the reset is seen again, and each place
	// files under its new key: one bucket per key where it is indexed.
	for _, pl := range []*Place{keyed2, flat2} {
		for x := 0.0; x < 4; x++ {
			m := got[0]
			got = got[1:]
			m.Evs[0], m.MinTS, m.MaxTS = ev(s, 0, 41, x), 41, 41
			if h := pl.Park(m); h.Len() != 0 {
				t.Fatalf("a partial parked under %v after the reset finds %d recorded events", x, h.Len())
			}
		}
	}
	if keyed2.Buckets() != 4 || flat2.Buckets() != 0 || st.Peak() != 8 {
		t.Fatalf("after the reset: %d and %d buckets, peak %d; want 4, 0 and 8", keyed2.Buckets(), flat2.Buckets(), st.Peak())
	}
}

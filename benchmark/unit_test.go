package main

import (
	"math"
	"testing"

	"acep/internal/event"
	"acep/internal/match"
)

func TestQuantiles(t *testing.T) {
	odd := []float64{5, 1, 4, 2, 3}
	if got := median(odd); got != 3 {
		t.Errorf("median(odd) = %v, want 3", got)
	}
	if odd[0] != 5 {
		t.Errorf("median reordered its argument: %v", odd)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.99, 49.6}, {1, 50}} {
		if got := quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Quartiles 20 and 40 around a median of 30.
	if got := iqrShare(sorted); math.Abs(got-20.0/30) > 1e-9 {
		t.Errorf("iqrShare = %v, want %v", got, 20.0/30)
	}
	if got := iqrShare([]float64{0, 0, 0}); got != 0 {
		t.Errorf("iqrShare of zeros = %v, want 0", got)
	}
}

func matchOf(seqs ...uint64) *match.Match {
	m := &match.Match{}
	for _, s := range seqs {
		if s == 0 {
			m.Events = append(m.Events, nil) // a negated position
			continue
		}
		m.Events = append(m.Events, &event.Event{Seq: s})
	}
	return m
}

func TestKeyHashIsFNVOfKey(t *testing.T) {
	for _, m := range []*match.Match{matchOf(1, 2, 3), matchOf(17, 0, 400000), matchOf(9)} {
		for _, id := range []uint32{0, 7, 1 << 20} {
			want := fnvOffset
			for i := 0; i < 4; i++ {
				want = (want ^ uint64(byte(id>>(8*i)))) * fnvPrime
			}
			for _, c := range []byte(m.Key()) {
				want = (want ^ uint64(c)) * fnvPrime
			}
			if got := keyHash(id, m); got != want {
				t.Errorf("keyHash(%d, %s) = %x, want %x", id, m.Key(), got, want)
			}
		}
	}
	if keyHash(1, matchOf(1, 2)) == keyHash(2, matchOf(1, 2)) {
		t.Error("keyHash ignores the pattern id")
	}
}

func TestDigestOrder(t *testing.T) {
	hs := []uint64{keyHash(0, matchOf(1, 2)), keyHash(0, matchOf(3, 4)), keyHash(0, matchOf(5, 6))}
	var fwd, rev, short, dup digest
	for _, h := range hs {
		fwd.add(h)
	}
	for i := len(hs) - 1; i >= 0; i-- {
		rev.add(hs[i])
	}
	if !fwd.sameSet(rev) {
		t.Error("sameSet depends on delivery order")
	}
	if fwd == rev {
		t.Error("the ordered digest does not depend on delivery order")
	}
	short.add(hs[0])
	short.add(hs[1])
	if fwd.sameSet(short) {
		t.Error("sameSet misses a lost match")
	}
	dup.add(hs[0])
	dup.add(hs[1])
	dup.add(hs[1])
	if fwd.sameSet(dup) {
		t.Error("sameSet takes a duplicated match for the missing one")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, StartNS: 20, EndNS: 50},  // overlaps span 1: 10..50 is covered once
		{ID: 3, Parent: 0, StartNS: 90, EndNS: 120}, // runs past its parent: only 90..100 counts
		{ID: 4, Parent: 1, StartNS: 12, EndNS: 14},  // a grandchild is its parent's business
		{ID: 5, Parent: -1, StartNS: 0, EndNS: 100}, // another pass
	}
	if got := selfTime(spans, 0); got != 50 {
		t.Errorf("selfTime(pass) = %d, want 50", got)
	}
	if got := selfTime(spans, 1); got != 18 {
		t.Errorf("selfTime(child) = %d, want 18", got)
	}
	if got := selfTime(spans, 5); got != 100 {
		t.Errorf("selfTime(childless) = %d, want 100", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer began span %d", id)
	}
	if sp := tr.end(-1); sp != nil {
		t.Errorf("nil tracer ended a span: %+v", sp)
	}
}

func TestStreamFromSeed(t *testing.T) {
	sc := streamKeyed
	sc.events = 4000
	a, b, c := sc.generate(1), sc.generate(1), sc.generate(2)
	same, differ := true, false
	for i := range a.Events {
		x, y, z := a.Events[i], b.Events[i], c.Events[i]
		if x.Type != y.Type || x.TS != y.TS || x.Seq != y.Seq || x.Attrs[0] != y.Attrs[0] || x.Attrs[2] != y.Attrs[2] {
			same = false
		}
		if x.Type != z.Type || x.Attrs[0] != z.Attrs[0] {
			differ = true
		}
		if i > 0 && (x.TS <= a.Events[i-1].TS || x.Seq != a.Events[i-1].Seq+1) {
			t.Fatalf("event %d out of order: %v after %v", i, x, a.Events[i-1])
		}
	}
	if !same {
		t.Error("one seed gave two streams")
	}
	if !differ {
		t.Error("two seeds gave one stream")
	}
	// The regimes are the scenario's, not the seed's: per-type mean speed
	// in the first regime agrees across seeds to within sampling noise.
	mean := func(w []event.Event, typ int) float64 {
		sum, n := 0.0, 0
		for _, ev := range w[:1000] {
			if ev.Type == typ {
				sum += ev.Attrs[0]
				n++
			}
		}
		return sum / float64(n)
	}
	if d := math.Abs(mean(a.Events, 0) - mean(c.Events, 0)); d > 8 {
		t.Errorf("type 0 mean speed differs by %.1f between seeds: the seed moved the regime", d)
	}
}

func TestStallShare(t *testing.T) {
	// 8 cuts of 4 stamps each; cut 3 takes 100x the others.
	s := newSink(8*batch, 0)
	now := int64(0)
	for i := range s.stamps[:8*batch/stampBlock] {
		s.stamps[i].Store(now)
		if i/(batch/stampBlock) == 3 {
			now += 2500
		} else {
			now += 25
		}
	}
	got := stallShare(s.stamps[:8*batch/stampBlock], now)
	want := 10000.0 / float64(now)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("stallShare = %v, want %v", got, want)
	}
}

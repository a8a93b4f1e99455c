package shard

import (
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/wire"
)

// matchingFixture is ingestFixture's stream with something to find: types
// A, B, C in turn, three events to a key, keys from 0 up recurring further
// apart than the window — every third event completes exactly one match,
// some 85 to a cut, so a warmed engine does the same work every cut.
func matchingFixture(n int) ingestFixture {
	f := newIngestFixture(n, false)
	for i := range f.events {
		f.events[i].Type = i % 3
		f.events[i].Attrs[0] = float64(i / 3 % 64)
	}
	return f
}

// outboxes counts the outboxes the engine's workers ever made.
func (e *Engine) outboxes() int {
	n := 0
	for _, w := range e.workers {
		w.boxMu.Lock()
		n += w.made
		w.boxMu.Unlock()
	}
	return n
}

// TestOutboxAllocs pins the way out of a worker. Under EncodeMatch a cut's
// matches leave as bytes in an outbox that comes back once the collector
// has delivered them, so a warmed engine allocates nothing for a cut that
// emits — no tag slice, no slab, no match — and the outboxes in existence
// stay what the first cuts made. Without it a delivered match is the
// consumer's copy, in the worker's match.Keeper, whose slabs are all that
// is allocated: an object per 25 matches at most (2 a cut of 85 as
// measured). The feeder waits for each cut's completion watermark, so
// delivery — and with it the outbox's return — has happened before the
// next cut needs one.
func TestOutboxAllocs(t *testing.T) {
	const cuts = 32 + 100 + 200 + 8
	f := matchingFixture(cuts * ingestCut)
	for name, encode := range map[string]func([]byte, *match.Match) []byte{"encoded": wire.AppendMatchBody, "copied": nil} {
		t.Run(name, func(t *testing.T) {
			done := make(chan uint64, cuts+1)
			delivered, bytes := 0, 0
			eng, err := New(f.pat, engine.Config{CheckEvery: 1 << 30}, Options{
				Shards: 2, Batch: ingestCut, KeyAttr: "key", Schema: f.schema,
				EncodeMatch: encode,
				OnTagged: func(tg Tagged) {
					delivered++
					bytes += len(tg.Enc)
				},
				OnProgress: func(w uint64) { done <- w },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Finish()
			next := 0
			feed := func() {
				for i := next * ingestCut; i < (next+1)*ingestCut; i++ {
					eng.Process(&f.events[i])
				}
				next++
				for upTo := uint64(next * ingestCut); <-done < upTo; {
				}
			}
			for next < 32 {
				feed() // warm the engines' pools, the block pool and the outboxes
			}
			before := delivered
			avg := testing.AllocsPerRun(100, feed)
			perCut := float64(delivered-before) / 101 // AllocsPerRun feeds once more, to warm up
			if perCut < 80 {
				t.Fatalf("%.1f matches per cut: the stream no longer exercises the outbox", perCut)
			}
			want := 0.0
			if encode == nil {
				want = perCut / 25
			} else if bytes == 0 {
				t.Fatal("encoded matches arrived without bytes")
			}
			if avg > want {
				t.Errorf("a cut emitting %.1f matches allocated %.1f objects, want %.1f", perCut, avg, want)
			}
			made := eng.outboxes()
			for i := 0; i < 200; i++ {
				feed()
			}
			if now := eng.outboxes(); now != made || made > 2*4 {
				t.Errorf("%d outboxes in existence after 200 more cuts, %d before; want no more, and a handful per worker", now, made)
			}
		})
	}
}

// TestOutboxStartsAtWidestCut: a worker's new outbox has room for the tags
// and the encoded bytes of the widest cut it has posted, not of the last,
// so a cut that wide fills it without regrowing either.
func TestOutboxStartsAtWidestCut(t *testing.T) {
	w := &worker{id: 1}
	c := NewCollector(2, func(Tagged) {}, nil)
	defer c.Close()
	seq := uint64(0)
	post := func(n int) {
		w.out = w.box()
		for i := 0; i < n; i++ {
			seq++
			w.out.tags = append(w.out.tags, Tagged{Seq: seq, Src: 1, M: &match.Match{}})
			w.out.enc = append(w.out.enc, make([]byte, 100)...)
		}
		w.post(c, seq+1) // held: shard 0 has not moved
	}
	post(300)
	post(100)
	b := w.box()
	if w.made != 3 || cap(b.tags) < 300 || cap(b.enc) < 300*100 {
		t.Fatalf("new outbox %d of %d has room for %d tags and %d bytes, want the widest cut's 300 and 30,000", w.made, 3, cap(b.tags), cap(b.enc))
	}
}

// TestOutboxReturnsOnPurge: an outbox whose tags the collector purges
// (Migrate) or never takes (a stale poster) goes back to its worker like
// one whose tags were delivered.
func TestOutboxReturnsOnPurge(t *testing.T) {
	w := &worker{id: 1}
	fill := func(seqs ...uint64) *outbox {
		b := w.box()
		for _, s := range seqs {
			b.tags = append(b.tags, Tagged{Seq: s, Src: 1, M: &match.Match{Events: []*event.Event{nil}}})
		}
		return b
	}
	free := func() int {
		w.boxMu.Lock()
		defer w.boxMu.Unlock()
		return len(w.boxFree)
	}
	var got []uint64
	c := NewCollector(2, func(t Tagged) { got = append(got, t.Seq) }, nil)
	post := func(node int, watermark uint64, b *outbox) { c.PostRun(node, watermark, b.tags, b) }
	post(1, 4, fill(2, 3)) // held: shard 0 has not moved
	post(1, 8, fill(6))
	c.Migrate(1, 0) // purges shard 1's three tags
	if n := free(); n != 2 {
		t.Fatalf("%d outboxes back after the purge, want both", n)
	}
	post(1, 9, fill(9)) // stale: shard 1 is node 0's now
	c.Post(0, 10, nil)
	c.Close()
	if n := free(); n != 2 || w.made != 2 {
		t.Fatalf("%d outboxes waiting of %d made, want 2 of 2: the stale post's came back and was the one refilled", n, w.made)
	}
	if len(got) != 0 {
		t.Fatalf("delivered %v, want nothing: every tag was purged or stale", got)
	}
}

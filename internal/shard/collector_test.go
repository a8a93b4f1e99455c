package shard

import (
	"math"
	"sync"
	"testing"

	"acep/internal/match"
)

// seqRec records delivered seqs race-safely: deliver runs on the
// collector goroutine while the tests peek mid-stream.
type seqRec struct {
	mu  sync.Mutex
	got []uint64
}

func (r *seqRec) add(t Tagged) {
	r.mu.Lock()
	r.got = append(r.got, t.Seq)
	r.mu.Unlock()
}

func (r *seqRec) snapshot() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.got...)
}

func (r *seqRec) expect(t *testing.T, want ...uint64) {
	t.Helper()
	got := r.snapshot()
	ok := len(got) == len(want)
	if ok {
		for i := range want {
			if got[i] != want[i] {
				ok = false
				break
			}
		}
	}
	if !ok {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestCollectorMigrate pins the shard-handoff contract: Migrate purges
// the shard's undelivered matches and returns the release boundary,
// delivery of the shard freezes until Complete, and a destination
// replaying from an older horizon (suppressing at the boundary) merges
// back into one correctly ordered stream with no duplicate and no loss.
func TestCollectorMigrate(t *testing.T) {
	rec := &seqRec{}
	mk := func(seq uint64) Tagged { return Tagged{M: &match.Match{}, Seq: seq} }
	c := NewCollector(2, rec.add, nil)

	// Shard 0 (the survivor) posts 10, 30; shard 1 posts 20 and 25 but
	// only watermarks up to 20 — so 10 and 20 release, 25 and 30 buffer.
	c.Post(0, 30, []Tagged{mk(10), mk(30)})
	c.Post(1, 20, []Tagged{tag1(mk(20)), tag1(mk(25))})

	// Shard 1's node dies; a successor adopts the slot. Migrate purges
	// the buffered 25 and reports the release boundary 20. (Its reply
	// also proves the posts above were consumed.)
	if b := c.Migrate(1, 1); b != 20 {
		t.Fatalf("boundary = %d, want 20", b)
	}
	rec.expect(t, 10, 20)

	// The successor replays: it regenerates 20 (suppressed by the caller
	// via the boundary — so never posted) and 25. While the shard is
	// frozen its matches buffer and no watermark releases them.
	c.Post(1, 5, nil)
	c.Post(1, 28, []Tagged{tag1(mk(25))})
	if got := rec.snapshot(); len(got) > 2 {
		t.Fatalf("frozen shard released matches: delivered %v", got)
	}
	// Complete unfreezes at the acknowledged watermark and delivery
	// resumes in merged order.
	c.Complete(1, 1, 28)
	c.Post(1, math.MaxUint64, []Tagged{tag1(mk(40))})
	c.Post(0, math.MaxUint64, nil)
	c.Close()
	rec.expect(t, 10, 20, 25, 30, 40)
}

// TestCollectorMigrateOwnership: after a shard moves to a new owner,
// stale in-flight posts from the previous owner are dropped, and the
// new owner's watermarks advance every shard it owns.
func TestCollectorMigrateOwnership(t *testing.T) {
	rec := &seqRec{}
	mk := func(seq uint64) Tagged { return Tagged{M: &match.Match{}, Seq: seq} }
	c := NewCollector(2, rec.add, nil)

	c.Post(0, 30, []Tagged{mk(10), mk(30)})
	c.Post(1, 20, []Tagged{tag1(mk(20))})

	// Shard 1 migrates to node 0 (a live-rebalance shape: node 0 now
	// owns both shards).
	if b := c.Migrate(1, 0); b != 20 {
		t.Fatalf("boundary = %d, want 20", b)
	}
	// A stale post from the previous owner must be dropped, match and
	// watermark both.
	c.Post(1, 99, []Tagged{tag1(mk(21))})
	// The new owner regenerates 21 beyond the boundary and completes.
	c.Post(0, 30, []Tagged{tag1(mk(21))})
	c.Complete(0, 1, 28)
	c.Post(0, math.MaxUint64, nil)
	c.Post(1, math.MaxUint64, nil) // old slot's terminal (ignored: owns nothing)
	c.Close()
	rec.expect(t, 10, 20, 21, 30)
}

// TestCollectorAbandon: abandoning a node releases its shards' gate —
// already-buffered matches deliver and the merge never again waits on
// the abandoned shards.
func TestCollectorAbandon(t *testing.T) {
	rec := &seqRec{}
	mk := func(seq uint64) Tagged { return Tagged{M: &match.Match{}, Seq: seq} }
	c := NewCollector(2, rec.add, nil)

	c.Post(0, math.MaxUint64, []Tagged{mk(10)})
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("released %v while shard 1 still gates", got)
	}
	c.Abandon(1)
	c.Close()
	rec.expect(t, 10)
}

func tag1(t Tagged) Tagged { t.Src = 1; return t }

// releases counts a run's Release calls and records the delivered count
// at the first.
type releases struct {
	calls int
	at    int // len(rec.got) at the first call
	rec   *seqRec
}

func (r *releases) Release() {
	if r.calls++; r.calls == 1 {
		r.at = len(r.rec.snapshot())
	}
}

// TestCollectorRecyclesTagSlices: a run's slice stays the collector's —
// its tags merged from where they were posted, not copied out — until the
// last of them is delivered; then its Releaser gets it back, once. A run
// the collector takes nothing of comes back at once.
func TestCollectorRecyclesTagSlices(t *testing.T) {
	rec := &seqRec{}
	c := NewCollector(2, rec.add, nil)
	first := []Tagged{{M: &match.Match{}, Seq: 1}, {M: &match.Match{}, Seq: 3}}
	a, b, stale := &releases{rec: rec}, &releases{rec: rec}, &releases{rec: rec}
	c.PostRun(1, 0, []Tagged{{M: &match.Match{}, Seq: 2}}, stale) // shard 0 is node 0's
	c.PostRun(0, 3, first, a)
	c.PostRun(1, 2, []Tagged{tag1(Tagged{M: &match.Match{}, Seq: 2})}, b)
	c.Migrate(1, 1) // a barrier: everything above is taken
	rec.expect(t, 1, 2)
	if a.calls != 0 {
		t.Fatalf("run released with its Seq 3 still buffered")
	}
	if first[1].Idx != 1 || first[1].Seq != 3 {
		t.Fatalf("the buffered tag is not in the posted slice: %+v", first[1])
	}
	if b.calls != 1 || b.at != 2 || stale.calls != 1 || stale.at != 0 {
		t.Fatalf("releases: delivered run %d at %d, stale run %d at %d; want each once, after its last tag and at once", b.calls, b.at, stale.calls, stale.at)
	}
	c.Complete(1, 1, math.MaxUint64)
	c.Post(0, math.MaxUint64, nil)
	c.Close()
	rec.expect(t, 1, 2, 3)
	if a.calls != 1 || a.at != 3 {
		t.Fatalf("run released %d times, first after %d deliveries; want once, after 3", a.calls, a.at)
	}
}

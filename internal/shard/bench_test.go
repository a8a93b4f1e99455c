package shard

import (
	"fmt"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/pattern"
)

// ingestFixture is a feeder-only workload: a keyed SEQ(A, B, C) pattern
// and a stream made of a fourth type alone, so no evaluator takes an
// event and what is left is the hop above the engine — placement, cut
// buffers, the handoff, the worker's loop and the collector's watermark
// traffic. Adaptation checks are off: they tick on arrivals whatever the
// type and allocate a statistics snapshot each, which is the engine's
// cost, not the feeder's.
type ingestFixture struct {
	schema *event.Schema
	pat    *pattern.Pattern
	events []event.Event
}

func newIngestFixture(n int) ingestFixture {
	s := event.NewSchema()
	a, b, c := s.MustAddType("A", "key"), s.MustAddType("B", "key"), s.MustAddType("C", "key")
	d := s.MustAddType("D", "key")
	pb := pattern.NewBuilder(s, pattern.Seq, 100)
	p0, p1, p2 := pb.Event(a), pb.Event(b), pb.Event(c)
	pb.WhereEq(p0, "key", p1, "key")
	pb.WhereEq(p1, "key", p2, "key")
	f := ingestFixture{schema: s, pat: pb.MustBuild(), events: make([]event.Event, n)}
	for i := range f.events {
		f.events[i] = s.MustNew(d, event.Time(i), float64(i%64))
		f.events[i].Seq = uint64(i + 1)
	}
	return f
}

func (f ingestFixture) engine(tb testing.TB, shards int, onProgress func(uint64)) *Engine {
	eng, err := New(f.pat, engine.Config{CheckEvery: 1 << 30}, Options{
		Shards: shards, Batch: ingestCut, KeyAttr: "key", Schema: f.schema,
		OnProgress: onProgress,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// runs partitions the fixture's stream into cuts of ingestCut events and
// each cut into per-shard runs: what a cluster node is handed.
func (f ingestFixture) runs(tb testing.TB, shards int) [][][]*event.Event {
	key, err := ByAttrName(f.schema, "key")
	if err != nil {
		tb.Fatal(err)
	}
	var cuts [][][]*event.Event
	for lo := 0; lo < len(f.events); lo += ingestCut {
		cuts = append(cuts, byShard(key, f.events[lo:min(lo+ingestCut, len(f.events))], shards))
	}
	return cuts
}

// byShard splits one cut's events into per-shard runs of stable pointers,
// placing each event where Process would.
func byShard(key KeyFunc, cut []event.Event, shards int) [][]*event.Event {
	runs := make([][]*event.Event, shards)
	for i := range cut {
		g := GlobalIndex(key(&cut[i]), shards)
		runs[g] = append(runs[g], &cut[i])
	}
	return runs
}

const ingestCut = 256

// BenchmarkIngest is the hot-path guard of the hop above the engine: one
// engine lifetime per iteration over a stream no pattern position takes,
// through Process at 1 and 2 shards and through ProcessStable + Flush by
// pre-partitioned run. ns/event is the per-event cost of ingesting; CI
// runs this as a smoke (benchtime=10x), not a measurement.
func BenchmarkIngest(b *testing.B) {
	f := newIngestFixture(1 << 15)
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(f.events)), "ns/event")
	}
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("Process/x%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := f.engine(b, shards, nil)
				for j := range f.events {
					eng.Process(&f.events[j])
				}
				eng.Finish()
			}
			perEvent(b)
		})
	}
	b.Run("ProcessStable/x2", func(b *testing.B) {
		cuts := f.runs(b, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := f.engine(b, 2, nil)
			for c, cut := range cuts {
				for g, run := range cut {
					eng.ProcessStable(g, run)
				}
				eng.Flush(uint64(min((c+1)*ingestCut, len(f.events))))
			}
			eng.Finish()
		}
		perEvent(b)
	})
}

// TestIngestAllocs pins what one steady-state cut through ProcessStable +
// Flush allocates on either side of the handoff: nothing. The feeder
// waits for each cut's completion watermark before the next, so every
// seal finds a buffer recycled through free whatever the scheduler does
// (AllocsPerRun pins GOMAXPROCS to 1), the reservoirs are full after the
// warm-up, and a cut without matches posts a nil slice — the bound holds
// under the race detector too. (At the default CheckEvery the engines
// below add three snapshot allocations per 256-event cut.)
func TestIngestAllocs(t *testing.T) {
	f := newIngestFixture(256 * ingestCut)
	cuts := f.runs(t, 2)
	done := make(chan uint64, len(cuts)+1)
	eng := f.engine(t, 2, func(w uint64) { done <- w })
	defer eng.Finish()
	next := 0
	feed := func() {
		upTo := uint64((next + 1) * ingestCut)
		for g, run := range cuts[next] {
			eng.ProcessStable(g, run)
		}
		next++
		eng.Flush(upTo)
		for <-done < upTo {
		}
	}
	for next < 32 {
		feed() // warm the cut buffers, the free list and both reservoirs
	}
	if avg := testing.AllocsPerRun(100, feed); avg != 0 {
		t.Fatalf("steady-state ProcessStable+Flush allocated %.2f times per %d-event cut; want 0", avg, ingestCut)
	}
}

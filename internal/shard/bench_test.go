package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
)

// ingestFixture is a feeder-only workload: a keyed SEQ(A, B, C) pattern
// whose A must carry a key of at least 0, and a stream made of A alone
// with negative keys, so every event is routed to a shard and reaches the
// engine, yet none passes a predicate and no evaluator takes one. What is
// left is the hop above the engine — placement, cut buffers, the handoff,
// the worker's loop and the collector's watermark traffic. Adaptation
// checks are off: they tick on arrivals and allocate a statistics
// snapshot each, which is the engine's cost, not the feeder's. With
// elide set the stream is of a fourth type, D, which no position reads:
// the router offers those events to no shard.
type ingestFixture struct {
	schema *event.Schema
	pat    *pattern.Pattern
	typ    int // the stream's one type
	events []event.Event
}

func newIngestFixture(n int, elide bool) ingestFixture {
	s := event.NewSchema()
	a, b, c := s.MustAddType("A", "key"), s.MustAddType("B", "key"), s.MustAddType("C", "key")
	d := s.MustAddType("D", "key")
	pb := pattern.NewBuilder(s, pattern.Seq, 100)
	p0, p1, p2 := pb.Event(a), pb.Event(b), pb.Event(c)
	pb.WhereConst(p0, "key", pattern.GE, 0)
	pb.WhereEq(p0, "key", p1, "key")
	pb.WhereEq(p1, "key", p2, "key")
	f := ingestFixture{schema: s, pat: pb.MustBuild(), typ: a, events: make([]event.Event, n)}
	if elide {
		f.typ = d
	}
	for i := range f.events {
		f.events[i] = s.MustNew(f.typ, event.Time(i), -float64(i%64+1))
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

// stable copies a run into a block of the engine's pool, as the cluster
// node's decoder fills one: what ProcessStable is handed.
func stable(e *Engine, run []*event.Event) *match.Block {
	if len(run) == 0 {
		return nil
	}
	b := e.Pool().Get()
	for _, ev := range run {
		b.Intern(ev)
	}
	return b
}

// byShard splits one cut's events into per-shard runs, placing each event
// where Process would.
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
// engine lifetime per iteration over a stream no evaluator keeps, through
// Process at 1 and 2 shards and through ProcessStable + Flush by
// pre-partitioned run. ns/event is the per-event cost of ingesting; CI
// runs this as a smoke (benchtime=10x), not a measurement.
func BenchmarkIngest(b *testing.B) {
	f := newIngestFixture(1<<15, false)
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
					eng.ProcessStable(g, stable(eng, run))
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
// waits for each cut's completion watermark before the next, so the pool
// holds a returned block for every fill whatever the scheduler does
// (AllocsPerRun pins GOMAXPROCS to 1; a worker that returns its blocks a
// moment after the watermark costs one extra block in circulation, made
// during the warm-up), the reservoirs are full after the warm-up, and a
// cut without matches posts a nil slice — the bound holds under the race
// detector too. (At the default CheckEvery the engines below add three
// snapshot allocations per 256-event cut.)
func TestIngestAllocs(t *testing.T) {
	f := newIngestFixture(256*ingestCut, false)
	cuts := f.runs(t, 2)
	done := make(chan uint64, len(cuts)+1)
	eng := f.engine(t, 2, func(w uint64) { done <- w })
	defer eng.Finish()
	next := 0
	feed := func() {
		upTo := uint64((next + 1) * ingestCut)
		for g, run := range cuts[next] {
			eng.ProcessStable(g, stable(eng, run))
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

// TestProcessAllocs is TestIngestAllocs for the per-event entry: Process
// copies each event into its shard's open block, the 256th seals the cut,
// and a warmed engine allocates nothing for it — no block (the workers
// hand back the ones the engines have pruned past), no cut buffer, no
// outbox. An event of a type no pattern reads is not copied at all: its
// cut costs nothing either and puts no block in circulation, yet it seals
// at the 256th event like any other.
func TestProcessAllocs(t *testing.T) {
	for _, elide := range []bool{false, true} {
		f := newIngestFixture(256*ingestCut, elide)
		done := make(chan uint64, len(f.events)/ingestCut+1)
		eng := f.engine(t, 2, func(w uint64) { done <- w })
		next := 0
		feed := func() {
			for i := next * ingestCut; i < (next+1)*ingestCut; i++ {
				if eng.pending != i%ingestCut { // elided or not, every event counts toward the cut
					t.Fatalf("elide=%v: %d events into a cut, %d pending", elide, i%ingestCut, eng.pending)
				}
				eng.Process(&f.events[i])
			}
			next++
			for upTo := uint64(next * ingestCut); <-done < upTo; {
			}
		}
		for next < 32 {
			feed()
		}
		if avg := testing.AllocsPerRun(100, feed); avg != 0 {
			t.Errorf("elide=%v: steady-state Process allocated %.2f times per %d-event cut; want 0", elide, avg, ingestCut)
		}
		if live := eng.Pool().Live(); elide != (live == 0) {
			t.Errorf("elide=%v: %d blocks in existence", elide, live)
		}
		eng.Finish()
	}
}

// TestBlockPoolBounded feeds two million events, 95 % of them to one
// shard, and watches the number of blocks in existence — in a queue, held
// by a worker, or waiting in the pool. While 64 events share a timestamp,
// a cut spans four time units and a worker must hold two and a half
// windows of them: the count may reach that retention plus the queues and
// the waiting blocks, and no more. Then the clock runs a thousandfold
// faster, every worker's floor passes all it holds at once, and the
// surplus must go to the garbage collector: the count falls back to what
// queues and pool can hold.
func TestBlockPoolBounded(t *testing.T) {
	f := newIngestFixture(0, false)
	const shards, n, slow = 2, 2 << 20, 1 << 20
	eng := f.engine(t, shards, nil)
	defer eng.Finish()
	window := int(f.pat.Window)
	queued := shards * (eng.QueueCap()/ingestCut + 1) // per shard: its queue and the open block
	retained := shards * (5*window/2/(ingestCut/64) + 2)
	key, err := ByAttrName(f.schema, "key")
	if err != nil {
		t.Fatal(err)
	}
	ev := f.schema.MustNew(f.typ, 0, 0)
	shardOf := func(k float64) int {
		ev.Attrs[0] = k
		return GlobalIndex(key(&ev), shards)
	}
	const hot = -1.0 // the fixture's keys are negative
	cold := hot - 1  // a key value on another shard than hot's
	for shardOf(cold) == shardOf(hot) {
		cold--
	}
	peak := [2]int{}
	for i := 0; i < n; i++ {
		phase := i / slow
		if phase == 0 {
			ev.TS = event.Time(i / 64)
		} else {
			ev.TS += 16
		}
		ev.Seq = uint64(i + 1)
		ev.Attrs[0] = hot + (cold-hot)*float64(i%20/19) // one event in twenty cold
		eng.Process(&ev)
		if i%ingestCut == 0 && i > phase*slow+slow/2 {
			peak[phase] = max(peak[phase], eng.Pool().Live())
		}
	}
	t.Logf("blocks in existence: %d retaining, %d after", peak[0], peak[1])
	if limit := 2*queued + retained; peak[0] > limit || peak[0] < retained/2 {
		t.Errorf("%d blocks while a worker retains %d cuts; want no more than %d and at least half the retention", peak[0], retained/shards, limit)
	}
	if limit := 2*queued + 2*shards; peak[1] > limit {
		t.Errorf("%d blocks once nothing is retained; want the surplus dropped to at most %d", peak[1], limit)
	}
}

// backlogRuns is BenchmarkCollectorBacklog's supply of runs: a free list
// the collector hands runs back to, so the poster allocates only while the
// backlog grows and the benchmark's bytes are the collector's.
type backlogRuns struct {
	mu   sync.Mutex
	free []*backlogRun
}

type backlogRun struct {
	tags []Tagged
	home *backlogRuns
}

func (r *backlogRun) Release() {
	r.home.mu.Lock()
	r.home.free = append(r.home.free, r)
	r.home.mu.Unlock()
}

// get returns a run of n tags at seq from shard src.
func (p *backlogRuns) get(n int, seq uint64, src int, m *match.Match) *backlogRun {
	p.mu.Lock()
	var r *backlogRun
	if k := len(p.free); k > 0 {
		r, p.free = p.free[k-1], p.free[:k-1]
	} else {
		r = &backlogRun{home: p}
	}
	p.mu.Unlock()
	r.tags = r.tags[:0]
	for range n {
		r.tags = append(r.tags, Tagged{M: m, Seq: seq, Src: src})
	}
	return r
}

// BenchmarkCollectorBacklog is the merge under a lagging watermark, the
// shape a saturated cluster ingress is in: source 0 runs 1,250 sequence
// numbers ahead of source 1, eight matches a post, so about 10,000 of its
// matches wait in the collector while each post of source 1 releases one
// of its runs and its own. It reports what a delivered match costs in time
// and in bytes; the ladder's shard.collector_ns_per_match keeps one run
// buffered and cannot see a backlog.
func BenchmarkCollectorBacklog(b *testing.B) {
	const perRun, lag = 8, 1250
	delivered := 0
	c := NewCollector(2, func(Tagged) { delivered++ }, nil)
	runs := &backlogRuns{}
	m := &match.Match{}
	post := func(src int, seq uint64) {
		r := runs.get(perRun, seq, src, m)
		c.PostRun(src, seq, r.tags, r)
	}
	for seq := uint64(1); seq <= lag; seq++ {
		post(0, seq)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes0 := ms.TotalAlloc
	b.ResetTimer()
	seq := uint64(1)
	for ; int(seq)*2*perRun <= b.N; seq++ {
		post(0, seq+lag)
		post(1, seq)
	}
	c.Post(0, math.MaxUint64, nil)
	c.Post(1, math.MaxUint64, nil)
	c.Close()
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	n := float64(delivered - lag*perRun) // the backlog was posted before the timer
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/max(n, 1), "ns/match")
	b.ReportMetric(float64(ms.TotalAlloc-bytes0)/max(n, 1), "B/match")
}

package recovery

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/wire"
)

// j4 builds a 4-shard journal with window 100.
func j4(t *testing.T, maxBytes int64, slack int) *Journal {
	t.Helper()
	j, err := NewJournal(JournalConfig{
		Window: 100, Shards: 4, SlackWindows: slack, MaxBytes: maxBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// allCovered is CoveredShard over every shard of a j4 journal.
func allCovered(j *Journal) error {
	for g := range 4 {
		if err := j.CoveredShard(g); err != nil {
			return err
		}
	}
	return nil
}

// cutFor builds one per-shard cut: each event is (ts, seq, shard).
func cutFor(evs ...[3]int64) [][]event.Event {
	perShard := make([][]event.Event, 4)
	for _, e := range evs {
		g := int(e[2])
		perShard[g] = append(perShard[g], event.Event{
			TS: event.Time(e[0]), Seq: uint64(e[1]), Attrs: []float64{float64(e[2])},
		})
	}
	return perShard
}

// decodeRun is what a worker does with a replayed run.
func decodeRun(t *testing.T, r wire.ReplRun) []*event.Event {
	t.Helper()
	evs, err := wire.DecodeRun(&match.Arena{}, r.Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != r.Events {
		t.Fatalf("run of shard %d declares %d events, decodes to %d", r.Shard, r.Events, len(evs))
	}
	return evs
}

func TestJournalValidation(t *testing.T) {
	if _, err := NewJournal(JournalConfig{Shards: 1}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewJournal(JournalConfig{Window: 1}); err == nil {
		t.Error("zero shards accepted")
	}
}

// TestJournalTrim: a shard's released slices trim once that shard's own
// frontier has moved a full slack horizon past them; unreleased slices
// and slices inside the horizon stay, and a cut vanishes when its last
// slice does.
func TestJournalTrim(t *testing.T) {
	j := j4(t, 0, 2) // slack = 2*100+1 = 201
	j.Append(cutFor([3]int64{0, 1, 0}, [3]int64{5, 2, 2}), 2)
	j.Append(cutFor([3]int64{100, 3, 1}, [3]int64{110, 4, 3}), 4)
	j.Append(cutFor([3]int64{300, 5, 0}, [3]int64{310, 6, 2}), 6)
	j.Append(cutFor([3]int64{600, 7, 1}, [3]int64{610, 8, 3}), 8)
	if j.Cuts() != 4 || j.Events() != 8 {
		t.Fatalf("retained %d cuts / %d events, want 4/8", j.Cuts(), j.Events())
	}
	// A one-event run here is 13 encoded bytes, 14 once its timestamp
	// needs a second varint byte (six of the eight do).
	if j.Bytes() != 2*13+6*14 {
		t.Fatalf("accounted %d bytes, want the 110 the eight one-event runs encode to", j.Bytes())
	}

	// Releasing through seq 6 puts the frontiers at {300, 100, 310, 110}:
	// the first cut's slices (TS 0 on shard 0, TS 5 on shard 2) are both
	// past their own shards' horizons (99 and 109) and drop, taking the
	// cut with them; every other slice is inside its horizon.
	j.Advance(6)
	if j.Cuts() != 3 {
		t.Fatalf("trimmed to %d cuts, want 3 (first cut aged out per shard)", j.Cuts())
	}

	// Releasing everything moves shards 1 and 3 to {600, 610}: the second
	// cut's slices (TS 100 and 110) age out behind horizons 399 and 409.
	// Shards 0 and 2 did not move, so the third cut stays.
	j.Advance(8)
	if j.Cuts() != 2 {
		t.Fatalf("trimmed to %d cuts, want 2 (cut 2 aged out, cut 3 pinned)", j.Cuts())
	}
	j.Append(cutFor([3]int64{900, 9, 0}, [3]int64{900, 10, 1}, [3]int64{900, 11, 2}, [3]int64{900, 12, 3}), 12)
	j.Advance(12)
	// Frontier now 900 on every shard; horizon 699 drops everything older,
	// keeping only the 900 cut.
	if j.Cuts() != 1 {
		t.Fatalf("trimmed to %d cuts, want 1", j.Cuts())
	}
	if err := allCovered(j); err != nil {
		t.Fatalf("normal trim reported coverage loss: %v", err)
	}
}

// TestJournalTrimSkew is the retention-under-skew regression: a cold
// shard with one ancient slice must pin only that slice — the hot
// shard's history keeps trimming on its own frontier, so a byte bound
// that whole-cut retention would have blown (forcing coverage loss)
// is never even approached.
func TestJournalTrimSkew(t *testing.T) {
	j, err := NewJournal(JournalConfig{
		Window: 100, Shards: 2, SlackWindows: 1, MaxBytes: 700,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The cold shard's only traffic, released immediately: frontier 0.
	j.Append([][]event.Event{nil, {{TS: 0, Seq: 1, Attrs: []float64{1}}}}, 1)
	j.Advance(1)
	// 100 hot cuts on shard 0, each released as soon as sealed. Retaining
	// them all would cost 1.4 KiB encoded — past MaxBytes — so under
	// whole-cut retention the cold slice would have force-trimmed coverage
	// away.
	for i := int64(0); i < 100; i++ {
		j.Append([][]event.Event{{{TS: event.Time(i * 50), Seq: uint64(i + 2), Attrs: []float64{0}}}, nil}, uint64(i+2))
		j.Advance(uint64(i + 2))
	}
	// Horizon 101 behind a frontier stepping by 50: at most a few hot
	// slices live at any time, plus the pinned cold one.
	if j.Cuts() > 6 {
		t.Fatalf("retained %d cuts; hot shard not trimming on its own frontier", j.Cuts())
	}
	if err := j.CoveredShard(0); err != nil {
		t.Fatalf("hot shard lost coverage: %v", err)
	}
	if err := j.CoveredShard(1); err != nil {
		t.Fatalf("cold shard lost coverage: %v", err)
	}
	// The cold shard's slice itself must still be replayable.
	var cold int
	j.ReplayShard(1, func(r wire.ReplRun, _ uint64) error { //nolint:errcheck // fn never fails
		cold += r.Events
		return nil
	})
	if cold != 1 {
		t.Fatalf("cold shard replayed %d events, want its 1 pinned event", cold)
	}
}

// TestJournalReplay: per-shard replay yields exactly the retained cuts
// carrying that shard's events, oldest first, passing only that shard's
// slices.
func TestJournalReplay(t *testing.T) {
	j := j4(t, 0, 2)
	j.Append(cutFor([3]int64{0, 1, 0}), 1)
	j.Append(cutFor([3]int64{10, 2, 2}, [3]int64{11, 3, 3}), 3)
	j.Append(cutFor([3]int64{20, 4, 1}, [3]int64{21, 5, 2}), 5)

	var ups []uint64
	var n int
	err := j.ReplayShard(2, func(r wire.ReplRun, upTo uint64) error {
		ups = append(ups, upTo)
		n += r.Events
		for _, ev := range decodeRun(t, r) {
			if r.Shard != 2 || ev.Attrs[0] != 2 {
				t.Errorf("replay of shard 2 leaked an event of shard %v in a run of shard %d", ev.Attrs[0], r.Shard)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 || ups[0] != 3 || ups[1] != 5 || n != 2 {
		t.Fatalf("replayed cuts %v (%d events), want [3 5] with 2 events", ups, n)
	}
	if up := j.ReplayUpToShard(2); up != 5 {
		t.Fatalf("ReplayUpToShard(2) = %d, want 5", up)
	}
	if up := j.ReplayUpToShard(0); up != 1 {
		t.Fatalf("ReplayUpToShard(0) = %d, want 1", up)
	}
	if up := j.ReplayUpToShard(3); up != 3 {
		t.Fatalf("ReplayUpToShard(3) = %d, want 3", up)
	}
	if j.LastUpTo() != 5 {
		t.Fatalf("LastUpTo = %d, want 5", j.LastUpTo())
	}
}

// TestJournalForceTrim: the byte bound evicts history past the safe
// horizon and Covered then refuses the affected shards.
func TestJournalForceTrim(t *testing.T) {
	j := j4(t, 140, 2) // a few events' worth: ten 14-byte runs
	for i := int64(0); i < 32; i++ {
		j.Append(cutFor([3]int64{i * 10, i + 1, i % 4}), uint64(i+1))
	}
	if j.Bytes() > 140 {
		t.Fatalf("byte bound not enforced: %d", j.Bytes())
	}
	if j.Cuts() >= 32 {
		t.Fatal("nothing force-trimmed")
	}
	if err := allCovered(j); err == nil {
		t.Fatal("coverage loss not reported after force-trim of unreleased history")
	}
}

// TestJournalAbandon: an abandoned shard's frozen frontier stops pinning
// history — slices retained only for its sake trim away.
func TestJournalAbandon(t *testing.T) {
	j := j4(t, 0, 1) // slack = 101
	j.Append(cutFor([3]int64{0, 1, 2}), 1)
	j.Append(cutFor([3]int64{500, 2, 0}, [3]int64{500, 3, 1}), 3)
	j.Append(cutFor([3]int64{900, 4, 0}, [3]int64{900, 5, 1}), 5)
	j.Advance(5)
	// Shards 0 and 1 released through TS 900, so their TS-500 slices aged
	// out; shard 2's TS-0 slice pins the first cut (frontier 0).
	if j.Cuts() != 2 {
		t.Fatalf("retained %d cuts, want 2 (shard 2 pins its own cut)", j.Cuts())
	}
	j.AbandonShard(2)
	j.AbandonShard(3)
	if j.Cuts() != 1 {
		t.Fatalf("retained %d cuts after AbandonShard, want 1", j.Cuts())
	}
}

// TestJournalKeepsTheRunBytes: a journaled run is the caller's encoded
// body, retained — not copied, not re-encoded — and Bytes counts it
// exactly; all-empty cuts are skipped, a run outside the shard space
// refuses its whole cut, and the event-slice adapter stores the same
// bytes the ingress's encoder would have handed over.
func TestJournalKeepsTheRunBytes(t *testing.T) {
	j := j4(t, 0, 1)
	evs := []event.Event{{TS: 1, Seq: 1, Attrs: []float64{0}}, {TS: 2, Seq: 3, Attrs: []float64{0}}}
	var e wire.RunEncoder
	for i := range evs {
		e.Append(&evs[i])
	}
	run := e.Seal(0)
	if err := j.AppendRuns([]wire.ReplRun{run, {Shard: 1}}, 3); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRuns([]wire.ReplRun{{Shard: 2}}, 4); err != nil { // empty: skipped
		t.Fatal(err)
	}
	j.Append([][]event.Event{nil, nil, nil, nil}, 5) // empty: skipped
	if j.Cuts() != 1 || j.Events() != 2 || j.Bytes() != int64(len(run.Body)) {
		t.Fatalf("%d cuts / %d events / %d bytes, want 1 / 2 / %d (an empty cut journaled, or the run re-accounted)",
			j.Cuts(), j.Events(), j.Bytes(), len(run.Body))
	}
	if err := j.AppendRuns([]wire.ReplRun{run, {Shard: 4, Events: 1, Body: []byte{1, 0, 0, 0, 0}}}, 6); err == nil || j.Cuts() != 1 {
		t.Fatalf("a run of shard 4 in a 4-shard journal: err %v, %d cuts; want an error and nothing journaled", err, j.Cuts())
	}
	j.Append([][]event.Event{nil, evs}, 7)
	var got []wire.ReplRun
	j.EachCut(func(runs []wire.ReplRun, _ uint64) error { //nolint:errcheck // fn never fails
		got = append(got, runs...)
		return nil
	})
	if len(got) != 2 || &got[0].Body[0] != &run.Body[0] {
		t.Fatalf("retained %d runs, the first at %p; want 2 with the first aliasing the appended body at %p", len(got), got[0].Body, run.Body)
	}
	if got[1].Shard != 1 || got[1].Events != 2 || got[1].LastTS != 2 || !bytes.Equal(got[1].Body, run.Body) {
		t.Fatalf("the adapter stored %+v, want shard 1's copy of the encoder's run", got[1])
	}
}

// TestJournalAppendAllocs: journaling a cut costs one allocation — the
// record holding its run headers — whatever the runs carry, and trimming
// costs none: the bodies are kept, never copied.
func TestJournalAppendAllocs(t *testing.T) {
	j := j4(t, 0, 2)
	var e wire.RunEncoder
	runs := make([]wire.ReplRun, 4)
	for g := range runs {
		e.Reset(false)
		for i := 0; i < 64; i++ {
			e.Append(&event.Event{TS: event.Time(i), Seq: uint64(i + 1), Attrs: []float64{1, 2, 3}})
		}
		runs[g] = e.Seal(uint32(g))
	}
	var upTo uint64
	cut := func() {
		upTo += 256
		for g := range runs {
			runs[g].LastTS += 50 // the released frontier moves on, old cuts age out
		}
		if err := j.AppendRuns(runs, upTo); err != nil {
			t.Fatal(err)
		}
		j.Advance(upTo - 256)
	}
	for i := 0; i < 32; i++ {
		cut() // reach the retention horizon, size the cut list
	}
	if avg := testing.AllocsPerRun(200, cut); avg > 1 {
		t.Fatalf("journaling a cut allocated %.0f times, want 1 (its record)", avg)
	}
	if j.Cuts() > 12 {
		t.Fatalf("%d cuts retained; the steady state did not trim", j.Cuts())
	}
}

// TestJournalPinsItsBytes: an ingress's runs are carved one after another
// from its encoders' chunks (wire.RunEncoder), so a journaled run pins
// its whole chunk until the last run carved from it leaves. Trimming goes
// shard by shard from the front, so behind a saturated stream — 200 cuts
// in flight, runs of varying length — the heap holds the retained bytes
// (Bytes) plus, per shard, two chunks: the one trimming has reached into
// and the one its encoder still carves from. The journal's own records
// and the room each run keeps in front of it for its count are counted on
// top. The chunks in between lose less than one run's room at their ends,
// half a run's on average: at 13 chunks a shard that fits in the room the
// two end chunks leave (together they average one).
func TestJournalPinsItsBytes(t *testing.T) {
	const shards, lag, cuts = 4, 200, 2000
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	j, err := NewJournal(JournalConfig{Window: 100, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	encs := make([]wire.RunEncoder, shards)
	runs := make([]wire.ReplRun, 0, shards)
	rng := rand.New(rand.NewPCG(1, 2))
	ev := &event.Event{Attrs: make([]float64, 3)}
	maxRun, nruns := 0, 0
	for c := 1; c <= cuts; c++ {
		runs = runs[:0]
		for g := range encs {
			for n := 16 + rng.IntN(48); n > 0; n-- {
				ev.TS++
				ev.Seq++
				ev.Attrs[0] = rng.Float64()
				encs[g].Append(ev)
			}
			runs = append(runs, encs[g].Seal(uint32(g)))
			maxRun = max(maxRun, len(runs[g].Body))
		}
		if err := j.AppendRuns(runs, uint64(c)); err != nil {
			t.Fatal(err)
		}
		for g := range encs {
			encs[g].Reset(false)
		}
		if c > lag {
			j.Advance(uint64(c - lag))
		}
	}
	j.EachCut(func(rs []wire.ReplRun, _ uint64) error { //nolint:errcheck // fn never fails
		nruns += len(rs)
		return nil
	})
	runtime.GC()
	runtime.ReadMemStats(&ms)
	pinned := int64(ms.HeapAlloc) - int64(base)
	// A chunk is RunsPerChunk runs at its encoder's peak, the last with an
	// eighth to spare, rounded up by the allocator.
	chunk := int64(wire.RunsPerChunk*maxRun + maxRun/8 + 64 + 8<<10)
	records := int64(j.Cuts())*2*32 + int64(nruns)*48
	bound := j.Bytes() + shards*2*chunk + records + int64(nruns)*10 + 16<<10
	t.Logf("%d cuts, %d runs retained: %d bytes accounted, %d pinned, bound %d (%d a chunk)", j.Cuts(), nruns, j.Bytes(), pinned, bound, chunk)
	if j.Cuts() < lag {
		t.Fatalf("%d cuts retained, want the %d in flight", j.Cuts(), lag)
	}
	if pinned > bound {
		t.Fatalf("the journal pins %d bytes for %d accounted; want at most %d", pinned, j.Bytes(), bound)
	}
	runtime.KeepAlive(encs)
}

// laggingJournal is a journal in steady state with lag cuts in flight:
// step seals one more cut of four 64-event runs and releases the cut lag
// cuts behind it, whose runs then age out of their shards' horizons a few
// cuts later.
func laggingJournal(tb testing.TB, lag int) (j *Journal, step func()) {
	tb.Helper()
	j, err := NewJournal(JournalConfig{Window: 100, Shards: 4, SlackWindows: 2})
	if err != nil {
		tb.Fatal(err)
	}
	var e wire.RunEncoder
	runs := make([]wire.ReplRun, 4)
	for g := range runs {
		e.Reset(false)
		for i := 0; i < 64; i++ {
			e.Append(&event.Event{TS: event.Time(i), Seq: uint64(i + 1), Attrs: []float64{1, 2, 3}})
		}
		runs[g] = e.Seal(uint32(g))
	}
	var upTo uint64
	step = func() {
		upTo += 256
		for g := range runs {
			runs[g].LastTS += 50
		}
		if err := j.AppendRuns(runs, upTo); err != nil {
			tb.Fatal(err)
		}
		if rel := uint64(lag) * 256; upTo > rel {
			j.Advance(upTo - rel)
		}
	}
	for i := 0; i < 4*lag+32; i++ {
		step() // fill the backlog, reach the horizon, size the cut array
	}
	return j, step
}

// TestJournalAdvanceAllocs: with 1,024 cuts in flight the journal still
// seals a cut with one allocation, its record — the cuts that leave from
// the front neither copy the backlog nor make appends regrow the array.
// The count is exact over 4,096 cuts (a per-run average rounds down, and
// a regrowth every thousand cuts would hide in it).
func TestJournalAdvanceAllocs(t *testing.T) {
	const cuts = 4096
	j, step := laggingJournal(t, 1024)
	total := testing.AllocsPerRun(1, func() {
		for range cuts {
			step()
		}
	})
	if total > cuts {
		t.Fatalf("journaling %d cuts behind 1024 unreleased ones allocated %.0f times, want <= %d", cuts, total, cuts)
	}
	if n := j.Cuts(); n < 1024 || n > 1024+12 {
		t.Fatalf("%d cuts retained, want the 1024 in flight plus the released few", n)
	}
}

// BenchmarkJournalAdvance: one cut sealed and one released per op,
// behind 16 or 1,024 unreleased cuts. The cost is what is released and
// dropped, so both sizes should cost about the same.
func BenchmarkJournalAdvance(b *testing.B) {
	for _, lag := range []int{16, 1024} {
		b.Run(fmt.Sprintf("inflight=%d", lag), func(b *testing.B) {
			_, step := laggingJournal(b, lag)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
		})
	}
}

// TestDetector: a node expires only when it owes a beat — silent past
// the timeout after a send — so frames reset the clock, an idle source
// (no sends) never kills anyone, and a zero timeout disables expiry.
func TestDetector(t *testing.T) {
	d := NewDetector(3, 30*time.Millisecond)
	if d.Expired(0, false) || d.Expired(1, false) || d.Expired(2, false) {
		t.Fatal("fresh detector already expired")
	}
	d.Sent(0)
	d.Sent(1)
	deadline := time.Now().Add(5 * time.Second)
	for !d.Expired(1, false) {
		d.Heard(0)
		d.Sent(0)
		if time.Now().After(deadline) {
			t.Fatal("silent node never expired")
		}
		time.Sleep(time.Millisecond)
	}
	if d.Expired(0, false) {
		t.Fatal("heartbeating node expired")
	}
	// Node 2 was never sent anything: it owes no beat, however long the
	// ingress idles...
	if d.Expired(2, false) {
		t.Fatal("idle node (nothing sent) expired")
	}
	// ...unless the caller awaits its completion: then silence alone
	// expires (a draining node beats through its watermarks).
	if !d.Expired(2, true) {
		t.Fatal("awaited silent node did not expire")
	}

	off := NewDetector(1, 0)
	off.Sent(0)
	time.Sleep(2 * time.Millisecond)
	if off.Expired(0, false) {
		t.Fatal("disabled detector expired")
	}
	if NewDetector(1, time.Hour).Expired(5, true) {
		t.Fatal("out-of-range node expired")
	}
}

// TestDetectorGrow: slots added to a live detector start with a fresh
// clock and share the existing clocks with concurrent readers.
func TestDetectorGrow(t *testing.T) {
	d := NewDetector(1, time.Hour)
	if got := d.Grow(); got != 1 {
		t.Fatalf("Grow returned slot %d, want 1", got)
	}
	if d.Expired(1, false) {
		t.Fatal("freshly grown slot already expired")
	}
	d.Sent(1)
	d.Heard(1)
	if d.Expired(1, false) {
		t.Fatal("grown slot expired after a beat")
	}
}

// refJournal is the reference model for the bounded trim: the journal's
// retention rules with the trim every call used to run — a walk of every
// retained cut — and an eviction that shifts the whole cut list down.
type refJournal struct {
	slack    event.Time
	maxBytes int64
	cuts     []cutRecord
	bytes    int64
	events   int
	relSeq   uint64
	folded   int
	relTS    []event.Time
	relSeen  []bool
	excluded []bool
	forced   []bool
	forcedTS []event.Time
}

func newRefJournal(window event.Time, shards, slackWindows int, maxBytes int64) *refJournal {
	return &refJournal{
		slack: event.Time(slackWindows)*window + 1, maxBytes: maxBytes,
		relTS: make([]event.Time, shards), relSeen: make([]bool, shards),
		excluded: make([]bool, shards), forced: make([]bool, shards),
		forcedTS: make([]event.Time, shards),
	}
}

func (m *refJournal) droppable(r wire.ReplRun) bool {
	return m.excluded[r.Shard] || (m.relSeen[r.Shard] && r.LastTS < m.relTS[r.Shard]-m.slack)
}

func (m *refJournal) appendRuns(runs []wire.ReplRun, upTo uint64) {
	var rec cutRecord
	rec.upTo = upTo
	for _, r := range runs {
		if r.Events > 0 && !m.excluded[r.Shard] {
			rec.runs = append(rec.runs, r)
			m.bytes += int64(len(r.Body))
			m.events += r.Events
		}
	}
	if len(rec.runs) == 0 {
		return
	}
	m.cuts = append(m.cuts, rec)
	for m.bytes > m.maxBytes && len(m.cuts) > 1 {
		c := m.cuts[0]
		for _, r := range c.runs {
			if !m.droppable(r) || c.upTo > m.relSeq {
				m.forced[r.Shard] = true
				m.forcedTS[r.Shard] = max(m.forcedTS[r.Shard], r.LastTS)
			}
			m.bytes -= int64(len(r.Body))
			m.events -= r.Events
		}
		m.cuts = m.cuts[1:]
		if m.folded > 0 {
			m.folded--
		}
	}
}

func (m *refJournal) advance(relSeq uint64) {
	if relSeq > m.relSeq {
		m.relSeq = relSeq
		for m.folded < len(m.cuts) && m.cuts[m.folded].upTo <= relSeq {
			for _, r := range m.cuts[m.folded].runs {
				m.relTS[r.Shard] = r.LastTS
				m.relSeen[r.Shard] = true
			}
			m.folded++
		}
	}
	m.trim()
}

func (m *refJournal) abandon(g int) {
	m.excluded[g] = true
	m.trim()
}

// trim walks every retained cut: released cuts drop the runs past their
// shard's horizon, every cut drops abandoned shards' runs, and emptied
// cuts go wherever they are.
func (m *refJournal) trim() {
	var cuts []cutRecord
	folded := 0
	for k, c := range m.cuts {
		var kept []wire.ReplRun
		for _, r := range c.runs {
			if m.excluded[r.Shard] || (k < m.folded && m.droppable(r)) {
				m.bytes -= int64(len(r.Body))
				m.events -= r.Events
				continue
			}
			kept = append(kept, r)
		}
		if len(kept) > 0 {
			if k < m.folded {
				folded++
			}
			cuts = append(cuts, cutRecord{upTo: c.upTo, runs: kept})
		}
	}
	m.cuts, m.folded = cuts, folded
}

// covered is CoveredShard's verdict, as a bool.
func (m *refJournal) covered(g int) bool {
	return !m.forced[g] || (m.relSeen[g] && m.forcedTS[g] < m.relTS[g]-m.slack)
}

// replay lists what ReplayShard(g) would hand a migration, in order.
func (m *refJournal) replay(g int) []replayed {
	var out []replayed
	for _, c := range m.cuts {
		for _, r := range c.runs {
			if int(r.Shard) == g {
				out = append(out, replayed{r.Events, r.LastTS, len(r.Body), c.upTo})
			}
		}
	}
	return out
}

// replayed is one run a replay hands over, with its cut's watermark.
type replayed struct {
	events int
	lastTS event.Time
	bytes  int
	upTo   uint64
}

func replayOf(j *Journal, g int) []replayed {
	var out []replayed
	j.ReplayShard(g, func(r wire.ReplRun, upTo uint64) error { //nolint:errcheck // fn never fails
		out = append(out, replayed{r.Events, r.LastTS, len(r.Body), upTo})
		return nil
	})
	return out
}

// TestJournalTrimDifferential holds the bounded trim — Advance walks only
// released cuts, emptied cuts leave from the front — to the full-walk
// reference model over a seeded script on 4 shards: a hot, a warm, a cold
// and a bursty shard, releases that trail the feed by hundreds of cuts and
// now and then catch up, an AbandonShard of shards still holding unreleased
// runs, and (second row) a byte bound that force-trims. After every step
// the counters, each shard's replay and each shard's coverage verdict
// must agree.
func TestJournalTrimDifferential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBytes int64
		seed     uint64
	}{
		{"unbounded", 1 << 40, 1},
		{"force-trim", 12 << 10, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const shards, steps = 4, 3000
			rng := rand.New(rand.NewPCG(tc.seed, 45))
			j, err := NewJournal(JournalConfig{Window: 100, Shards: shards, SlackWindows: 2, MaxBytes: tc.maxBytes})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefJournal(100, shards, 2, tc.maxBytes)
			heat := [shards]float64{0.95, 0.6, 0.03, 0.3}
			var (
				ts                  event.Time
				seq, released       uint64
				ups                 []uint64
				abandonedUnreleased int
				maxUnreleased       int
			)
			lag := 300
			for step := 0; step < steps; step++ {
				var runs []wire.ReplRun
				for g := range shards {
					if rng.Float64() >= heat[g] || (g == 3 && step%400 >= 200) {
						continue // cold this cut; shard 3 sleeps half of every 400 cuts
					}
					n := 1 + rng.IntN(4)
					ts += event.Time(1 + rng.IntN(8))
					seq += uint64(n)
					runs = append(runs, wire.ReplRun{Shard: uint32(g), Events: n, LastTS: ts, Body: make([]byte, 5+9*n)})
				}
				seq++ // an elided event still moves the watermark
				if err := j.AppendRuns(runs, seq); err != nil {
					t.Fatal(err)
				}
				ref.appendRuns(runs, seq)
				ups = append(ups, seq)

				switch {
				case step == 1500:
					// AbandonShard the cold and the bursty shard while most of
					// their history is unreleased.
					for _, g := range []int{2, 3} {
						for _, r := range ref.replay(g) {
							if r.upTo > released {
								abandonedUnreleased++
							}
						}
					}
					for _, g := range []int{2, 3} {
						j.AbandonShard(g)
						ref.abandon(g)
					}
				case step >= 1200 && step < 1500:
					lag = 300 // AbandonShard must meet a backlog
				case rng.IntN(50) == 0:
					lag = rng.IntN(6) // catch up, then fall behind again
				case rng.IntN(20) == 0:
					lag = 100 + rng.IntN(400)
				}
				if k := len(ups) - 1 - lag; k >= 0 && ups[k] > released {
					released = ups[k]
				}
				j.Advance(released)
				ref.advance(released)
				maxUnreleased = max(maxUnreleased, len(ref.cuts)-ref.folded)
				if j.Cuts() != len(ref.cuts) || j.Events() != ref.events || j.Bytes() != ref.bytes {
					t.Fatalf("step %d: %d cuts / %d events / %d bytes, reference %d / %d / %d",
						step, j.Cuts(), j.Events(), j.Bytes(), len(ref.cuts), ref.events, ref.bytes)
				}
				for g := range shards {
					if got, want := replayOf(j, g), ref.replay(g); !slices.Equal(got, want) {
						t.Fatalf("step %d: shard %d replays %v, reference %v", step, g, got, want)
					}
					if got, want := j.CoveredShard(g) == nil, ref.covered(g); got != want {
						t.Fatalf("step %d: shard %d covered %v, reference %v", step, g, got, want)
					}
				}
			}
			if maxUnreleased < 100 {
				t.Fatalf("at most %d cuts were in flight; the script never lagged", maxUnreleased)
			}
			if abandonedUnreleased == 0 {
				t.Fatal("the abandoned shards held no unreleased run; AbandonShard was not exercised")
			}
			if forced := slices.Contains(ref.forced, true); forced != (tc.name == "force-trim") {
				t.Fatalf("force-trimmed into a horizon: %v, want %v", forced, !forced)
			}
			t.Logf("peak %d cuts in flight; AbandonShard met %d unreleased runs", maxUnreleased, abandonedUnreleased)
		})
	}
}

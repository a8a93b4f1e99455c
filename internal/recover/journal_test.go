package recovery

import (
	"bytes"
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
	if err := j.Covered(0, 4); err != nil {
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
	if err := j.Covered(0, 4); err == nil {
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
	j.Abandon(2, 2)
	if j.Cuts() != 1 {
		t.Fatalf("retained %d cuts after Abandon, want 1", j.Cuts())
	}
}

// TestJournalKeepsTheRunBytes: a journaled run is the caller's encoded
// body, retained — not copied, not re-encoded — which is what makes
// Bytes exact; all-empty cuts are skipped, a run outside the shard space
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

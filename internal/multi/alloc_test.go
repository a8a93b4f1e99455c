package multi

import (
	"testing"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
)

// TestEvaluatorProcessAllocs: a warmed evaluator over 32 patterns — shared
// prefix runners, seeded suffix automata and independent engines, on a
// stream that never matches, fed through one reused event — allocates
// nothing per 256 events, and makes no block: every event is copied once
// for the whole set, into a block that came back from behind Floor. That
// holds on the dispatch path too: an event skips the automata that do not
// consume its type, and a skipped automaton is advanced when its prune
// comes due.
func TestEvaluatorProcessAllocs(t *testing.T) {
	const types, window = 5, 400
	s := event.NewSchema()
	for i := 0; i < types; i++ {
		s.MustAddType(string(rune('A'+i)), "x", "y", "z")
	}
	// Ordered triples of distinct types, x rising along the chain — never,
	// on a stream whose x falls. The last two compare otherwise (and as
	// vainly), so they share no prefix and run as independent engines.
	var specs []Spec
	for a := 0; a < types && len(specs) < 32; a++ {
		for b := 0; b < types && len(specs) < 32; b++ {
			for c := 0; c < types && len(specs) < 32; c++ {
				if a == b || b == c || a == c {
					continue
				}
				pb := pattern.NewBuilder(s, pattern.Seq, window)
				pb.Event(a)
				pb.Event(b)
				pb.Event(c)
				op := pattern.LT
				switch len(specs) {
				case 30:
					op = pattern.LE
				case 31:
					op = pattern.EQ
				}
				pb.WherePred(pattern.Pred{L: 0, R: 1, AttrL: 0, AttrR: 0, Op: op})
				pb.WherePred(pattern.Pred{L: 1, R: 2, AttrL: 0, AttrR: 0, Op: op})
				specs = append(specs, Spec{
					ID: uint32(len(specs)), Pattern: pb.MustBuild(),
					// Adaptation checks never come due: a check's snapshot is
					// the loop's cost, not storage's.
					Config: engine.Config{CheckEvery: 1 << 30},
				})
			}
		}
	}
	set, err := Analyze(specs, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Groups) == 0 || set.Report().GroupedPatterns == len(specs) {
		t.Fatalf("%d prefix groups over %d of %d patterns; want shared and independent members both",
			len(set.Groups), set.Report().GroupedPatterns, len(specs))
	}
	v, err := NewEvaluator(set, Options{OnMatch: func(uint32, *match.Match) { t.Fatal("the falling stream matched") }})
	if err != nil {
		t.Fatal(err)
	}
	ev := event.Event{Attrs: make([]float64, 3)}
	var seq uint64
	run := func(events int) {
		for i := 0; i < events; i++ {
			seq++
			ev.Type = int(seq) % types
			ev.TS = event.Time(seq)
			ev.Seq = seq
			ev.Attrs[0] = -float64(seq)
			v.Process(&ev)
		}
	}
	run(20 * window)
	// Every type skips some engine, and the suffix automata are handed only
	// their last type: the measured events take the skip path, and the
	// prune schedule comes due on events the due engines do not consume.
	for typ, route := range v.route {
		if len(route) == len(v.targets) {
			t.Fatalf("type %d reaches all %d engines; want some skipped", typ, len(v.targets))
		}
	}
	if len(v.skippers) == 0 {
		t.Fatal("no engine is handed only its own types")
	}
	before, due := v.arena.Pool().Live(), v.due
	if avg := testing.AllocsPerRun(20, func() { run(256) }); avg != 0 {
		t.Fatalf("steady-state Process allocated %.2f times per 256 events; want 0", avg)
	}
	if after := v.arena.Pool().Live(); after != before || before < 3 {
		t.Fatalf("%d blocks in existence after warm-up, %d twenty blocks of events later", before, after)
	}
	if v.due < due+20*256 {
		t.Fatalf("the next prune moved from %d to %d over %d ticks; the measured events skipped the schedule", due, v.due, 21*256)
	}
}

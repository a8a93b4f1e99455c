package match

import (
	"fmt"
	"strings"

	"acep/internal/event"
	"acep/internal/pattern"
)

// Match is one complete detected occurrence of a pattern. Events is
// indexed by pattern position; entries at negated positions are always
// nil, and entries at Kleene positions are nil with the matched set in
// Kleene instead.
type Match struct {
	// Events holds the single event matched at each non-Kleene positive
	// position.
	Events []*event.Event
	// Kleene holds, per Kleene position, every event in the match's
	// temporal scope that satisfied the predicates (maximal-set
	// semantics; always non-empty at Kleene positions of an emitted
	// match).
	Kleene [][]*event.Event
}

// Key returns a canonical identity for the match: the sequence numbers of
// the core events in position order. Two engines detecting the same
// occurrence produce the same key regardless of evaluation order.
func (m *Match) Key() string {
	var b strings.Builder
	for _, ev := range m.Events {
		if ev == nil {
			b.WriteString("_,")
			continue
		}
		fmt.Fprintf(&b, "%d,", ev.Seq)
	}
	return b.String()
}

// Span returns the minimum and maximum timestamp over the match's core
// events.
func (m *Match) Span() (lo, hi event.Time) {
	first := true
	for _, ev := range m.Events {
		if ev == nil {
			continue
		}
		if first || ev.TS < lo {
			lo = ev.TS
		}
		if first || ev.TS > hi {
			hi = ev.TS
		}
		first = false
	}
	return lo, hi
}

// String renders the match for logs.
func (m *Match) String() string {
	var b strings.Builder
	b.WriteString("match{")
	for p, ev := range m.Events {
		if p > 0 {
			b.WriteByte(' ')
		}
		switch {
		case ev != nil:
			fmt.Fprintf(&b, "%d:#%d@%d", p, ev.Seq, ev.TS)
		case p < len(m.Kleene) && m.Kleene[p] != nil:
			fmt.Fprintf(&b, "%d:*%d", p, len(m.Kleene[p]))
		default:
			fmt.Fprintf(&b, "%d:_", p)
		}
	}
	b.WriteString("}")
	return b.String()
}

// PairOK checks whether events evA at position posA and evB at position
// posB can coexist in one match of pat with window w: the events must be
// distinct (compared by identity, since a stream may leave Seq at 0),
// within the window of each other, in timestamp order when the
// pattern is a sequence, and must satisfy every predicate connecting the
// two positions. It reports the number of predicate evaluations
// performed via npreds, letting engines meter their work.
func PairOK(pat *pattern.Pattern, w event.Time, posA int, evA *event.Event, posB int, evB *event.Event, npreds *uint64) bool {
	if evA == evB {
		return false
	}
	dt := evA.TS - evB.TS
	if dt < 0 {
		dt = -dt
	}
	if dt > w {
		return false
	}
	if pat.Op == pattern.Seq {
		if posA < posB {
			if evA.TS >= evB.TS {
				return false
			}
		} else if evB.TS >= evA.TS {
			return false
		}
	}
	for _, k := range pat.PredsBetween(posA, posB) {
		pr := &pat.Preds[k]
		*npreds++
		var l, r *event.Event
		if pr.L == posA {
			l, r = evA, evB
		} else {
			l, r = evB, evA
		}
		if !pr.Eval(l, r) {
			return false
		}
	}
	return true
}

// UnaryOK evaluates the unary predicates of position p against ev,
// counting evaluations in npreds.
func UnaryOK(pat *pattern.Pattern, p int, ev *event.Event, npreds *uint64) bool {
	for _, k := range pat.PredsAt(p) {
		*npreds++
		if !pat.Preds[k].Eval(ev, nil) {
			return false
		}
	}
	return true
}

package shed

import (
	"fmt"
	"sort"

	"acep/internal/event"
	"acep/internal/stats"
)

// PolicyFromString parses a shedding policy by name with the drop
// fraction it aims for while overloaded: none (a nil Policy, which
// disables shedding), random, rate-utility or pattern-aware.
func PolicyFromString(s string, target float64) (Policy, error) {
	switch s {
	case "none":
		return nil, nil
	case "random":
		return Random{P: target}, nil
	case "rate-utility":
		return RateUtility{Target: target}, nil
	case "pattern-aware":
		return PatternAware{Target: target}, nil
	}
	return nil, fmt.Errorf("shed: unknown shedding policy %q (want none, random, rate-utility or pattern-aware)", s)
}

// None is the disabled policy: it never drops an event. Configuring it
// (rather than leaving Config.Policy nil) still runs the load monitor, so
// metrics report utilization without any shedding taking place.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Refresh implements Policy.
func (None) Refresh(*View) {}

// Drop implements Policy: never.
func (None) Drop(ev *event.Event, v *View, rnd float64) bool { return false }

// Random drops every event with probability P while overloaded,
// regardless of type or live state — the classic uniform load shedder and
// the baseline the pattern-aware policies are measured against.
type Random struct {
	// P is the drop probability in [0,1].
	P float64
}

// Name implements Policy.
func (r Random) Name() string { return fmt.Sprintf("random(%.2g)", r.P) }

// Refresh implements Policy.
func (Random) Refresh(*View) {}

// Drop implements Policy.
func (r Random) Drop(ev *event.Event, v *View, rnd float64) bool { return rnd < r.P }

// RateUtility sheds the least useful arrival mass first: it orders event
// types by the predicate survival probability of their pattern positions
// (computed from the statistics snapshot the adaptation loop already
// maintains) and drops types of high arrival share and low survival until
// the target fraction of the stream is shed. Event types no pattern
// position references survive no predicate at all and are shed first —
// dropping them costs zero recall.
type RateUtility struct {
	// Target is the fraction of the stream to shed while overloaded.
	Target float64
}

// Name implements Policy.
func (r RateUtility) Name() string { return fmt.Sprintf("rate-utility(%.2g)", r.Target) }

// Refresh implements Policy: recompute per-type drop probabilities so
// that the lowest-utility types absorb the target drop mass. Benefits
// aggregate over every disjunct of an OR pattern (a type is only
// "unreferenced", and hence free to drop, if no disjunct uses it), each
// scored against its own disjunct's statistics.
func (r RateUtility) Refresh(v *View) {
	n := len(v.DropProb)
	benefit := make([]float64, n)
	for di, pat := range v.Patterns {
		var snap *stats.Snapshot
		if di < len(v.Snapshots) {
			snap = v.Snapshots[di]
		}
		for p, pos := range pat.Positions {
			if pos.Type >= n {
				continue
			}
			// Survival probability of an event at position p: the product
			// of the selectivities of every predicate it participates in.
			// Without statistics yet, protect the type fully.
			s := 1.0
			if snap != nil && p < snap.N() {
				for j := 0; j < snap.N(); j++ {
					s *= snap.Sel[p][j]
				}
			}
			if s > benefit[pos.Type] {
				benefit[pos.Type] = s
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		if benefit[ta] != benefit[tb] {
			return benefit[ta] < benefit[tb] // least useful first
		}
		if v.Shares[ta] != v.Shares[tb] {
			return v.Shares[ta] > v.Shares[tb] // heavier mass first
		}
		return ta < tb
	})
	remaining := r.Target
	for _, t := range order {
		v.DropProb[t] = 0
		if remaining <= 0 {
			continue
		}
		share := v.Shares[t]
		if share <= 0 {
			continue
		}
		take := share
		if take > remaining {
			take = remaining
		}
		v.DropProb[t] = take / share
		remaining -= take
	}
	v.DefaultProb = 0 // unseen types carry no mass
}

// Drop implements Policy.
func (r RateUtility) Drop(ev *event.Event, v *View, rnd float64) bool {
	p := v.DefaultProb
	if int(ev.Type) < len(v.DropProb) {
		p = v.DropProb[ev.Type]
	}
	return rnd < p
}

// PatternAware sheds around the live partial matches: an event whose type
// could extend a live partial match, or whose partition key occurs in
// one, is never dropped — it may be the event that completes a
// near-finished match. The drop probability of the remaining (cold)
// events is raised so the stream-wide drop fraction still meets Target:
// the policy tracks the protected fraction and compensates, making its
// recall directly comparable to Random's at the same achieved drop rate.
type PatternAware struct {
	// Target is the fraction of the stream to shed while overloaded.
	Target float64
}

// Name implements Policy.
func (p PatternAware) Name() string { return fmt.Sprintf("pattern-aware(%.2g)", p.Target) }

// Refresh implements Policy: decay the hot/total decision counts so the
// compensation factor tracks the current protected fraction.
func (PatternAware) Refresh(v *View) {
	v.SeenTotal *= 0.5
	v.SeenHot *= 0.5
}

// Drop implements Policy.
func (p PatternAware) Drop(ev *event.Event, v *View, rnd float64) bool {
	hot := v.Hot(ev)
	v.SeenTotal++
	if hot {
		v.SeenHot++
		return false
	}
	// Compensate: if a fraction h of events is protected, cold events
	// must drop at Target/(1-h) for the stream-wide rate to hit Target.
	adj := p.Target
	if v.SeenTotal > 0 {
		cold := 1 - v.SeenHot/v.SeenTotal
		if cold > 0 {
			adj = p.Target / cold
			if adj > 1 {
				adj = 1
			}
		}
	}
	return rnd < adj
}

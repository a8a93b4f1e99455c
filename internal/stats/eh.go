// Package stats maintains the data-stream statistics that drive plan
// generation and adaptation decisions: per-position event arrival rates
// and inter-event predicate selectivities, estimated over sliding windows.
//
// Arrival rates use the exponential-histogram algorithm of Datar, Gionis,
// Indyk and Motwani ("Maintaining stream statistics over sliding windows",
// SIAM J. Comput. 2002) — the paper's reference [27] — which counts the
// events of a type inside a sliding time window with bounded relative
// error in O(log^2 N) space. Selectivities are estimated by evaluating
// each pattern predicate over all pairs of values drawn from small per-
// position rings — one column of recent attribute values per attribute a
// predicate reads — smoothed with an exponential moving average.
//
// A Snapshot holds all estimates at one instant; it is the only
// statistics type the planner and decision layers see, and they only read
// it. An Estimator refills two of its own in turn.
package stats

import (
	"fmt"
	"math"

	"acep/internal/event"
)

// EH counts ones over a sliding time window with bounded relative error,
// per Datar et al. Buckets hold power-of-two counts with the timestamp of
// their most recent element; at most r buckets of each size are kept, and
// overflow merges the two oldest buckets of that size into one of twice
// the size. The count estimate drops half of the oldest (straddling)
// bucket, giving relative error at most 1/(2(r-1)).
type EH struct {
	window event.Time
	r      int // max buckets per size before merge
	// Buckets of one size are adjacent in age, the bigger the older, so
	// each size class is a queue of its own: a merge takes the two oldest
	// of class k and appends one to class k+1, and only the top class
	// expires. Class k (size 2^k) keeps its n[k] bucket timestamps oldest
	// first at the start of its r+1 slots, ts[k*(r+1):]; taking from the
	// front compacts that one class in place, so nothing beyond r words
	// ever moves and the buffer never creeps. A class below the top is
	// never empty (a merge leaves r-1 >= 1 behind).
	ts    []event.Time
	n     []int
	total uint64 // sum of bucket sizes
}

// NewEH builds a sliding-window counter with the given window width and
// target relative error eps (0 < eps <= 1).
func NewEH(window event.Time, eps float64) (*EH, error) {
	if window <= 0 {
		return nil, fmt.Errorf("stats: EH window must be positive, got %d", window)
	}
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("stats: EH eps must be in (0,1], got %g", eps)
	}
	r := int(math.Ceil(1/(2*eps))) + 1
	if r < 2 {
		r = 2
	}
	return &EH{window: window, r: r}, nil
}

// class returns the bucket timestamps of size class k, oldest first.
func (h *EH) class(k int) []event.Time {
	return h.ts[k*(h.r+1):][:h.n[k]]
}

// drop removes the d oldest buckets of class k.
func (h *EH) drop(k, d int) {
	c := h.class(k)
	h.n[k] = copy(c, c[d:])
}

// Add records one event at timestamp ts. Timestamps must be non-decreasing.
func (h *EH) Add(ts event.Time) {
	h.expire(ts)
	h.total++
	for k := 0; ; k++ {
		if k == len(h.n) {
			// A first bucket of this size: open its class. After expiry
			// shrank the histogram this reuses the old capacity.
			h.n = append(h.n, 0)
			h.ts = append(h.ts, make([]event.Time, h.r+1)...)
		}
		h.n[k]++
		c := h.class(k)
		c[len(c)-1] = ts
		if len(c) <= h.r {
			return
		}
		// Merge the two oldest buckets of this size; the merged bucket
		// keeps the newer timestamp and is the youngest of the next size.
		ts = c[1]
		h.drop(k, 2)
	}
}

// expire drops buckets that have fully left the window ending at now.
func (h *EH) expire(now event.Time) {
	for k := len(h.n) - 1; k >= 0; k-- {
		c := h.class(k)
		d := 0
		for d < len(c) && c[d] <= now-h.window {
			d++
		}
		if d == 0 {
			return
		}
		h.total -= uint64(d) << uint(k)
		if d < len(c) {
			h.drop(k, d)
			return
		}
		h.n = h.n[:k]
		h.ts = h.ts[:k*(h.r+1)]
	}
}

// Count estimates the number of events with timestamps in (now-window,
// now]. The estimate discounts half of the oldest bucket, which may
// straddle the window boundary.
func (h *EH) Count(now event.Time) float64 {
	h.expire(now)
	if len(h.n) == 0 {
		return 0
	}
	oldest := uint64(1) << uint(len(h.n)-1)
	return float64(h.total) - float64(oldest-1)/2
}

// Rate estimates the arrival rate in events per second over the window
// ending at now.
func (h *EH) Rate(now event.Time) float64 {
	secs := float64(h.window) / float64(event.Second)
	if secs <= 0 {
		return 0
	}
	return h.Count(now) / secs
}

// Buckets reports the current number of buckets (for tests and
// introspection of the space bound).
func (h *EH) Buckets() int {
	total := 0
	for _, n := range h.n {
		total += n
	}
	return total
}

// Window returns the window width the counter was built with.
func (h *EH) Window() event.Time { return h.window }

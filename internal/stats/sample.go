package stats

// sampleRing keeps, for one pattern position, the attribute values of the
// most recent events observed there: one column per attribute some
// predicate reads, all columns sharing one write cursor. Keeping the
// latest events (rather than a uniform reservoir) matches the sliding-
// window spirit of the other estimators and is deterministic, which the
// tests rely on. The values are copied in, so the ring never refers to
// the caller's event; and because selectivity counting is order-
// independent, readers take the columns as they lie — no oldest-first
// view, no modulus.
type sampleRing struct {
	attrs    []int       // attribute index feeding each column
	cols     [][]float64 // each of length capacity; the first min(adds, capacity) values are live
	capacity int
	next     int    // write cursor
	adds     uint64 // total add calls: tells a refresh whether the columns changed
}

func newSampleRing(attrs []int, capacity int) sampleRing {
	if capacity < 1 {
		capacity = 1
	}
	r := sampleRing{attrs: attrs, cols: make([][]float64, len(attrs)), capacity: capacity}
	for i := range r.cols {
		r.cols[i] = make([]float64, capacity)
	}
	return r
}

// add records one event's attribute values, overwriting the oldest.
func (r *sampleRing) add(values []float64) {
	for i, a := range r.attrs {
		r.cols[i][r.next] = values[a]
	}
	r.adds++
	if r.next++; r.next == r.capacity {
		r.next = 0
	}
}

// col returns the live values of column i, in no particular order.
func (r *sampleRing) col(i int) []float64 {
	return r.cols[i][:min(r.adds, uint64(r.capacity))]
}

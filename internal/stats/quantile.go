package stats

import (
	"fmt"
	"sort"
)

// quantileCap bounds the reservoir of a Quantile. 512 samples put the
// worst-case p99 rank error near 1/512 of the retained distribution,
// plenty for the observability use (latency p50/p99 in Metrics).
const quantileCap = 512

// Quantile is a bounded, deterministic streaming quantile estimator: it
// keeps the first quantileCap observations verbatim, then halves the
// reservoir and doubles a keep-stride every time it refills, so the
// retained samples are an evenly spaced systematic sample of the
// observation sequence. No randomness is involved — two identical
// observation sequences yield identical estimates — matching the
// library-wide determinism contract (see internal/shed).
//
// The zero value is an empty estimator ready for use. Quantile is not
// safe for concurrent use; each writer owns its own and folds them
// together with Merge (the shard layer merges per-worker estimators into
// the stream-wide Metrics view).
type Quantile struct {
	count   uint64    // observations offered
	stride  uint64    // keep every stride-th observation (power of two)
	ticker  uint64    // observations since the last kept one
	samples []float64 // systematic sample of the observations
}

// Add offers one observation.
func (q *Quantile) Add(v float64) {
	q.count++
	if q.stride == 0 {
		q.stride = 1
	}
	q.ticker++
	if q.ticker < q.stride {
		return
	}
	q.ticker = 0
	q.samples = append(q.samples, v)
	if len(q.samples) >= quantileCap {
		q.decimate()
	}
}

// decimate halves the reservoir (keeping every other sample) and doubles
// the stride, preserving the even spacing of retained observations.
func (q *Quantile) decimate() {
	half := q.samples[:0]
	for i := 1; i < len(q.samples); i += 2 {
		half = append(half, q.samples[i])
	}
	q.samples = half
	q.stride *= 2
}

// Count reports the number of observations offered (not retained).
func (q *Quantile) Count() uint64 { return q.count }

// Quantile estimates the p-quantile (p in [0,1]) of the observation
// distribution by nearest-rank over the retained sample. It returns 0
// when nothing has been observed.
func (q *Quantile) Quantile(p float64) float64 {
	n := len(q.samples)
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	i := int(p * float64(n-1))
	// The mid-run readers — a shard's load report, the shedder's latency
	// probe — all read the p99, which in a reservoir under quantileCap is
	// one of its eight largest samples: select it in one pass instead of
	// copying and sorting the reservoir. top[:m] holds the largest
	// samples seen so far in ascending order, so once all k = n-i are in,
	// top[0] is the k-th largest, i.e. sorted rank i.
	var top [8]float64
	if k := n - i; k <= len(top) {
		m := 0
		for _, v := range q.samples {
			j := m
			if m == k {
				if v <= top[0] {
					continue
				}
				for j = 0; j+1 < k && top[j+1] < v; j++ {
					top[j] = top[j+1]
				}
			} else {
				for ; j > 0 && top[j-1] > v; j-- {
					top[j] = top[j-1]
				}
				m++
			}
			top[j] = v
		}
		return top[0]
	}
	s := append([]float64(nil), q.samples...)
	sort.Float64s(s)
	return s[i]
}

// Merge folds another estimator's retained samples into q. The combined
// reservoir decimates back under the cap, so merging many estimators
// stays bounded; the merged estimate weights each source by its retained
// sample count (sources of similar volume merge faithfully).
func (q *Quantile) Merge(o *Quantile) {
	if o.count == 0 {
		return
	}
	q.count += o.count
	if q.stride == 0 {
		q.stride = 1
	}
	if o.stride > q.stride {
		q.stride = o.stride
	}
	q.samples = append(q.samples, o.samples...)
	for len(q.samples) >= quantileCap {
		q.decimate()
	}
}

// Samples exposes the retained reservoir (wire codec use; do not mutate).
func (q *Quantile) Samples() []float64 { return q.samples }

// RestoreQuantile rebuilds an estimator from a transported count and
// reservoir (the inverse of Count/Samples, used by the wire codec). A
// reservoir larger than an estimator keeps — fewer than quantileCap
// samples — is refused: no Quantile produced it, and restoring it would
// not give back what was sent. The restored estimator continues to accept
// observations.
func RestoreQuantile(count uint64, samples []float64) (Quantile, error) {
	if len(samples) >= quantileCap {
		return Quantile{}, fmt.Errorf("stats: a reservoir of %d samples exceeds the %d a quantile estimator keeps", len(samples), quantileCap-1)
	}
	return Quantile{count: count, stride: 1, samples: append([]float64(nil), samples...)}, nil
}

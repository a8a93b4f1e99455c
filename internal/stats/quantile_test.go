package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// TestQuantileSmall: with fewer observations than the cap, estimates are
// exact nearest-rank quantiles.
func TestQuantileSmall(t *testing.T) {
	var q Quantile
	for i := 100; i >= 1; i-- { // reversed, order must not matter
		q.Add(float64(i))
	}
	if q.Count() != 100 {
		t.Fatalf("count = %d, want 100", q.Count())
	}
	if got := q.Quantile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := q.Quantile(1); got != 100 {
		t.Errorf("p1 = %v, want 100", got)
	}
	if got := q.Quantile(0.5); math.Abs(got-50) > 1 {
		t.Errorf("p50 = %v, want ~50", got)
	}
}

// TestQuantileEmpty: the zero value reports zero everywhere.
func TestQuantileEmpty(t *testing.T) {
	var q Quantile
	if q.Quantile(0.5) != 0 || q.Count() != 0 {
		t.Fatal("empty estimator should report zeros")
	}
}

// TestQuantileDecimation: far more observations than the cap still yield
// accurate estimates on a uniform ramp, and the reservoir stays bounded.
func TestQuantileDecimation(t *testing.T) {
	var q Quantile
	const n = 100000
	for i := 0; i < n; i++ {
		q.Add(float64(i))
	}
	if len(q.Samples()) >= quantileCap {
		t.Fatalf("reservoir %d not bounded by %d", len(q.Samples()), quantileCap)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got := q.Quantile(p)
		want := p * n
		if math.Abs(got-want) > 0.02*n {
			t.Errorf("p%v = %v, want ~%v", p, got, want)
		}
	}
}

// TestQuantileDeterministic: identical observation sequences yield
// identical estimates (the determinism contract).
func TestQuantileDeterministic(t *testing.T) {
	var a, b Quantile
	for i := 0; i < 10000; i++ {
		v := float64((i * 2654435761) % 1000)
		a.Add(v)
		b.Add(v)
	}
	for _, p := range []float64{0.1, 0.5, 0.99} {
		if a.Quantile(p) != b.Quantile(p) {
			t.Fatalf("p%v diverged: %v vs %v", p, a.Quantile(p), b.Quantile(p))
		}
	}
}

// TestQuantileMerge: merging per-worker estimators approximates the
// pooled distribution.
func TestQuantileMerge(t *testing.T) {
	var lo, hi Quantile
	for i := 0; i < 5000; i++ {
		lo.Add(float64(i % 100))     // 0..99
		hi.Add(float64(100 + i%100)) // 100..199
	}
	var m Quantile
	m.Merge(&lo)
	m.Merge(&hi)
	if m.Count() != 10000 {
		t.Fatalf("merged count = %d, want 10000", m.Count())
	}
	if got := m.Quantile(0.5); math.Abs(got-100) > 15 {
		t.Errorf("merged p50 = %v, want ~100", got)
	}
	if got := m.Quantile(0.99); math.Abs(got-198) > 6 {
		t.Errorf("merged p99 = %v, want ~198", got)
	}
}

// TestQuantileRestore: Count/Samples round-trip through RestoreQuantile
// (the wire codec path) and the restored estimator keeps estimating.
func TestQuantileRestore(t *testing.T) {
	var q Quantile
	for i := 0; i < 1000; i++ {
		q.Add(float64(i))
	}
	r, err := RestoreQuantile(q.Count(), q.Samples())
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != q.Count() {
		t.Fatalf("restored count = %d, want %d", r.Count(), q.Count())
	}
	if r.Quantile(0.5) != q.Quantile(0.5) {
		t.Fatalf("restored p50 = %v, want %v", r.Quantile(0.5), q.Quantile(0.5))
	}
	r.Add(5) // must not panic; estimator stays live
	if _, err := RestoreQuantile(1, make([]float64, quantileCap)); err == nil {
		t.Fatal("a reservoir larger than an estimator keeps was restored")
	}
}

// TestQuantileSelectionMatchesSort: for every reservoir size under the
// cap and every p, the one-pass selection of a high quantile returns the
// order statistic a full sort would — ties, runs of one repeated value
// (a cut charges all its events the same wait) and reversed input
// included — and reading the p99 allocates nothing.
func TestQuantileSelectionMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for n := 1; n < quantileCap; n++ {
		var q Quantile
		for i := 0; i < n; i++ {
			switch n % 3 {
			case 0:
				q.Add(float64(r.IntN(8))) // heavy ties
			case 1:
				q.Add(float64(n - i)) // descending
			default:
				q.Add(r.Float64())
			}
		}
		sorted := append([]float64(nil), q.Samples()...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := q.Quantile(p), sorted[int(p*float64(n-1))]; got != want {
				t.Fatalf("n=%d p=%v: got %v, sort says %v", n, p, got, want)
			}
		}
	}
	var q Quantile
	for i := 0; i < 10*quantileCap; i++ {
		q.Add(r.Float64())
	}
	if avg := testing.AllocsPerRun(100, func() { q.Quantile(0.99) }); avg != 0 {
		t.Fatalf("p99 read allocated %.2f times; want 0", avg)
	}
}

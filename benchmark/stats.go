package main

import "sort"

// quantile returns the q-quantile (0 <= q <= 1) of sorted values by
// linear interpolation between the two nearest ranks. It returns 0 for
// an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns the values in ascending order without touching the
// argument.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the middle two for an even
// count).
func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

// iqrShare is the distance between the first and third quartile as a
// share of the median: how far the passes of one run disagree. A run hit
// by outside interference shows a share several times its usual size.
func iqrShare(vals []float64) float64 {
	s := sortedCopy(vals)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

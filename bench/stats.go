package main

import (
	"sort"
	"time"
)

// percentile is the nearest-rank q-th percentile of sorted, the rule
// cmd/humnetload uses: the smallest sample with at least q% of the samples
// at or below it.
func percentile(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*q + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// tailWindow is the fewest samples a window needs for its 99th percentile
// to have ten samples beyond it.
const tailWindow = 1000

// p99 is the median, over up to eight consecutive windows of at least
// tailWindow samples, of each window's 99th percentile; with fewer samples
// it is the plain 99th percentile (for under 100 samples, the slowest). A
// burst of outside interference moves one window, not the result.
func p99(lat []time.Duration) float64 {
	k := min(8, len(lat)/tailWindow)
	if k <= 1 {
		return percentile(sortedMS(lat), 99)
	}
	size := len(lat) / k
	ps := make([]float64, k)
	for w := range ps {
		end := (w + 1) * size
		if w == k-1 {
			end = len(lat)
		}
		ps[w] = percentile(sortedMS(lat[w*size:end]), 99)
	}
	return median(ps)
}

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method, extrapolating past the ends for tiny samples),
// which is the rule the benchmark's run-to-run spread is judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the middle of xs (the mean of the two middle values for an even
// count).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

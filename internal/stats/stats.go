// Package stats provides the descriptive and inferential statistics used by
// the humnet experiments: means, quantiles, correlation, inequality and fairness indices, and simple regression.
//
// All functions are pure and operate on float64 slices. Functions that
// require non-empty input document that requirement and return NaN (never
// panic) when it is violated, so that callers composing pipelines can
// propagate missing data explicitly.
package stats

import (
	"math"
	"sort"
)

// hasNaN reports whether xs contains a NaN.
func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the minimum of xs, or NaN if empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN if empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default). Returns NaN
// for empty input, q outside [0, 1], or any NaN in xs: sort.Float64s leaves
// NaNs in unspecified positions, so rather than interpolate over a corrupted
// order the missing data propagates explicitly.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || hasNaN(xs) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	v := s[lo]*(1-frac) + s[hi]*frac
	// The interpolation can round one ulp outside [s[lo], s[hi]] (e.g. both
	// products of a negative value round upward), which would let a low
	// quantile exceed a high one on near-constant samples. Clamp into the
	// bracketing order statistics so quantiles stay monotone across segments.
	if v < s[lo] {
		v = s[lo]
	} else if v > s[hi] {
		v = s[hi]
	}
	return v
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Pearson returns the Pearson correlation coefficient between xs and ys, or
// NaN if lengths differ, are < 2, or either side has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ranks returns mid-ranks (ties get the average rank), 1-based.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// Spearman returns the Spearman rank correlation between xs and ys.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	return Pearson(ranks(xs), ranks(ys))
}

// Gini returns the Gini coefficient of xs (0 = perfect equality, →1 =
// concentration). Values must be non-negative; returns NaN for empty input or
// an all-zero vector.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var cum, total float64
	for i, x := range s {
		cum += x * float64(i+1)
		total += x
	}
	if total == 0 {
		return math.NaN()
	}
	nf := float64(n)
	return (2*cum)/(nf*total) - (nf+1)/nf
}

// Jain returns Jain's fairness index of xs: (sum x)^2 / (n * sum x^2).
// 1 means perfectly fair; 1/n means maximally unfair. Returns NaN for empty
// or all-zero input.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s, sq float64
	for _, x := range xs {
		s += x
		sq += x * x
	}
	if sq == 0 {
		return math.NaN()
	}
	return s * s / (float64(len(xs)) * sq)
}

// TopKShare returns the fraction of the total held by the k largest entries.
// Returns NaN for empty input, 1 if k >= len(xs), and NaN if total is 0.
func TopKShare(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if k <= 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	total := Sum(s)
	if total == 0 {
		return math.NaN()
	}
	if k > len(s) {
		k = len(s)
	}
	return Sum(s[:k]) / total
}

// LinearFit fits y = a + b*x by ordinary least squares and returns the
// intercept a, slope b, and coefficient of determination r2. Returns NaNs for
// fewer than two points or zero x-variance.
func LinearFit(xs, ys []float64) (a, b, r2 float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return a, b, r2
}

package main

import (
	"testing"
	"time"
)

// TestPercentileNearestRank pins cmd/humnetload's nearest-rank rule: the
// sample at 1-based rank ceil(n*q/100).
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n, q int
		want float64
	}{
		{0, 50, 0}, {1, 50, 1}, {1, 99, 1}, {2, 50, 1}, {3, 50, 2}, {4, 50, 2},
		{10, 99, 10}, {100, 50, 50}, {100, 99, 99}, {101, 99, 100}, {1000, 99, 990},
	} {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(1..%d, %d) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), values computed by CPython 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
		{[]float64{0.5, 9, 1.25, 7, 3, 3, 2, 8, 6, 4.5}, [3]float64{1.8125, 3.75, 7.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSortedMS(t *testing.T) {
	got := sortedMS([]time.Duration{3 * time.Millisecond, 1500 * time.Microsecond})
	if len(got) != 2 || got[0] != 1.5 || got[1] != 3 {
		t.Fatalf("sortedMS = %v, want [1.5 3]", got)
	}
}

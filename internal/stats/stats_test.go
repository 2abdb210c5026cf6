package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4.571428571, 1e-6) {
		t.Errorf("Variance = %g", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single value should be NaN")
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(4.571428571), 1e-6) {
		t.Errorf("StdDev = %g", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{1, 2}, 0.5); !almostEq(got, 1.5, 1e-9) {
		t.Errorf("interpolated median = %g, want 1.5", got)
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should be NaN")
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("single-element quantile = %g", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-9) {
		t.Errorf("perfect correlation = %g", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-9) {
		t.Errorf("perfect anticorrelation = %g", got)
	}
	flat := []float64{1, 1, 1, 1, 1}
	if !math.IsNaN(Pearson(xs, flat)) {
		t.Error("zero-variance correlation should be NaN")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125} // monotone but nonlinear
	if got := Spearman(xs, ys); !almostEq(got, 1, 1e-9) {
		t.Errorf("Spearman of monotone = %g, want 1", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3}
	if got := Spearman(xs, ys); !almostEq(got, 1, 1e-9) {
		t.Errorf("Spearman with ties = %g, want 1", got)
	}
}

func TestGini(t *testing.T) {
	if got := Gini([]float64{1, 1, 1, 1}); !almostEq(got, 0, 1e-9) {
		t.Errorf("equal Gini = %g, want 0", got)
	}
	// One person owns everything among n=4: Gini = (n-1)/n = 0.75.
	if got := Gini([]float64{0, 0, 0, 10}); !almostEq(got, 0.75, 1e-9) {
		t.Errorf("concentrated Gini = %g, want 0.75", got)
	}
	if !math.IsNaN(Gini(nil)) || !math.IsNaN(Gini([]float64{0, 0})) {
		t.Error("degenerate Gini should be NaN")
	}
}

func TestJain(t *testing.T) {
	if got := Jain([]float64{5, 5, 5}); !almostEq(got, 1, 1e-9) {
		t.Errorf("fair Jain = %g, want 1", got)
	}
	if got := Jain([]float64{1, 0, 0, 0}); !almostEq(got, 0.25, 1e-9) {
		t.Errorf("unfair Jain = %g, want 0.25", got)
	}
}

func TestTopKShare(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := TopKShare(xs, 1); !almostEq(got, 0.4, 1e-9) {
		t.Errorf("top-1 share = %g, want 0.4", got)
	}
	if got := TopKShare(xs, 10); !almostEq(got, 1, 1e-9) {
		t.Errorf("top-10 of 4 = %g, want 1", got)
	}
	if got := TopKShare(xs, 0); got != 0 {
		t.Errorf("top-0 = %g, want 0", got)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := Histogram(xs, 5)
	for i, c := range h {
		if c != 2 {
			t.Errorf("bin %d = %d, want 2", i, c)
		}
	}
	same := Histogram([]float64{3, 3, 3}, 4)
	if same[0] != 3 {
		t.Errorf("constant data should land in first bin, got %v", same)
	}
	if Histogram(nil, 3) != nil {
		t.Error("empty histogram should be nil")
	}
}

func TestHistogramSkipsNaN(t *testing.T) {
	// Regression: a NaN poisoned Min/Max, made the bin width NaN, and
	// int(NaN) produced a negative index that panicked at counts[b]++.
	h := Histogram([]float64{1, math.NaN(), 2}, 4)
	if len(h) != 4 {
		t.Fatalf("histogram = %v, want 4 bins", h)
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 2 {
		t.Errorf("histogram %v counts %d values, want 2 (NaN skipped)", h, total)
	}
	if h[0] != 1 || h[3] != 1 {
		t.Errorf("histogram = %v, want value 1 in first bin and 2 in last", h)
	}
}

func TestHistogramAllNaN(t *testing.T) {
	if h := Histogram([]float64{math.NaN(), math.NaN()}, 3); h != nil {
		t.Errorf("all-NaN histogram = %v, want nil", h)
	}
}

func TestHistogramNaNWithConstantRest(t *testing.T) {
	h := Histogram([]float64{5, math.NaN(), 5}, 3)
	if h == nil || h[0] != 2 {
		t.Errorf("constant-plus-NaN histogram = %v, want [2 0 0]", h)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, r2 := LinearFit(xs, ys)
	if !almostEq(a, 1, 1e-9) || !almostEq(b, 2, 1e-9) || !almostEq(r2, 1, 1e-9) {
		t.Errorf("fit = (%g, %g, %g), want (1, 2, 1)", a, b, r2)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
}

func TestQuantileNaNPropagates(t *testing.T) {
	// Regression: sort.Float64s leaves NaNs in unspecified positions, so a
	// NaN-bearing input used to yield arbitrary garbage quantiles.
	xs := []float64{1, math.NaN(), 2}
	if got := Quantile(xs, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile with NaN = %g, want NaN", got)
	}
	if got := Median(xs); !math.IsNaN(got) {
		t.Errorf("Median with NaN = %g, want NaN", got)
	}
}

func TestSummarizeNaNPropagates(t *testing.T) {
	s := Summarize([]float64{3, math.NaN(), 1})
	if s.N != 3 {
		t.Errorf("N = %d, want 3", s.N)
	}
	// A slice keeps failure output in a stable order run-to-run; a map
	// literal would report cases in random iteration order.
	for _, tc := range []struct {
		name string
		v    float64
	}{
		{"Mean", s.Mean}, {"Std", s.Std}, {"Min", s.Min}, {"P25", s.P25},
		{"Median", s.Median}, {"P75", s.P75}, {"P95", s.P95}, {"Max", s.Max},
	} {
		if !math.IsNaN(tc.v) {
			t.Errorf("%s = %g, want NaN for NaN-bearing input", tc.name, tc.v)
		}
	}
}

func TestSummarizeMatchesQuantiles(t *testing.T) {
	// The single-sort fast path must agree with the public one-off calls.
	r := rng.New(17)
	xs := make([]float64, 401)
	for i := range xs {
		xs[i] = r.Pareto(1, 1.5)
	}
	s := Summarize(xs)
	if s.Min != Min(xs) || s.Max != Max(xs) {
		t.Errorf("Min/Max = %g/%g, want %g/%g", s.Min, s.Max, Min(xs), Max(xs))
	}
	for _, c := range []struct {
		name string
		got  float64
		q    float64
	}{
		{"P25", s.P25, 0.25}, {"Median", s.Median, 0.5},
		{"P75", s.P75, 0.75}, {"P95", s.P95, 0.95},
	} {
		if want := Quantile(xs, c.q); c.got != want {
			t.Errorf("%s = %v, want Quantile(%g) = %v", c.name, c.got, c.q, want)
		}
	}
}

func TestQuickJainBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		anyPos := false
		for i, v := range raw {
			xs[i] = float64(v)
			if v > 0 {
				anyPos = true
			}
		}
		if !anyPos {
			return true
		}
		j := Jain(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickGiniBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		anyPos := false
		for i, v := range raw {
			xs[i] = float64(v)
			if v > 0 {
				anyPos = true
			}
		}
		if !anyPos {
			return true
		}
		g := Gini(xs)
		return g >= -1e-9 && g <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		return Quantile(xs, 0.25) <= Quantile(xs, 0.75)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkGini(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Pareto(1, 1.2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gini(xs)
	}
}

package stats

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/proptest"
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

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, r2 := LinearFit(xs, ys)
	if !almostEq(a, 1, 1e-9) || !almostEq(b, 2, 1e-9) || !almostEq(r2, 1, 1e-9) {
		t.Errorf("fit = (%g, %g, %g), want (1, 2, 1)", a, b, r2)
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

func TestQuickJainBounds(t *testing.T) {
	proptest.Run(t, 105, 100, func(g *proptest.G) error {
		raw := g.IntsIn(0, 49, 0, 255)
		if len(raw) == 0 {
			return nil
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
			return nil
		}
		j := Jain(xs)
		n := float64(len(xs))
		if !(j >= 1/n-1e-9 && j <= 1+1e-9) {
			return fmt.Errorf("Jain(%v) = %g, want in [1/%g, 1]", xs, j, n)
		}
		return nil
	})
}

func TestQuickGiniBounds(t *testing.T) {
	proptest.Run(t, 106, 100, func(pg *proptest.G) error {
		raw := pg.IntsIn(0, 49, 0, 255)
		if len(raw) == 0 {
			return nil
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
			return nil
		}
		g := Gini(xs)
		if !(g >= -1e-9 && g <= 1+1e-9) {
			return fmt.Errorf("Gini(%v) = %g, want in [0, 1]", xs, g)
		}
		return nil
	})
}

func TestQuickQuantileMonotone(t *testing.T) {
	proptest.Run(t, 107, 100, func(g *proptest.G) error {
		raw := g.IntsIn(0, 49, -128, 127)
		if len(raw) < 2 {
			return nil
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		if q1, q3 := Quantile(xs, 0.25), Quantile(xs, 0.75); !(q1 <= q3+1e-12) {
			return fmt.Errorf("Quantile(%v): q1 %g > q3 %g", xs, q1, q3)
		}
		return nil
	})
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

package stats_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/proptest"
	"repro/internal/stats"
)

// Property suite for the descriptive-statistics layer: order-statistic
// monotonicity, the classic invariances of the inequality indices
// (permutation, scale, bounds), summary self-consistency, NaN propagation,
// and bit-identical bootstrap output across worker counts.

// fpTol absorbs the one-ulp-level wobble of reassociated float arithmetic in
// relations that hold exactly over the reals.
const fpTol = 1e-9

func TestPropQuantileMonotoneAndBounded(t *testing.T) {
	proptest.Run(t, 101, 200, func(g *proptest.G) error {
		xs := g.FloatsIn(1, 30, -1e6, 1e6)
		q1 := g.Float64()
		q2 := g.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1 := stats.Quantile(xs, q1)
		v2 := stats.Quantile(xs, q2)
		if math.IsNaN(v1) || math.IsNaN(v2) {
			return fmt.Errorf("Quantile of finite input is NaN: q1=%v->%v q2=%v->%v", q1, v1, q2, v2)
		}
		if v1 > v2 && !proptest.ApproxEq(v1, v2, fpTol) {
			return fmt.Errorf("Quantile not monotone: q(%v)=%v > q(%v)=%v", q1, v1, q2, v2)
		}
		lo, hi := stats.Min(xs), stats.Max(xs)
		if v1 < lo-fpTol || v2 > hi+math.Abs(hi)*fpTol+fpTol {
			return fmt.Errorf("Quantile escapes [Min,Max]=[%v,%v]: %v, %v", lo, hi, v1, v2)
		}
		return nil
	})
}

func TestPropQuantileNaNPropagates(t *testing.T) {
	proptest.Run(t, 102, 200, func(g *proptest.G) error {
		xs := g.FloatsWithCorners(1, 20)
		q := g.Float64()
		v := stats.Quantile(xs, q)
		anyNaN := false
		for _, x := range xs {
			if math.IsNaN(x) {
				anyNaN = true
			}
		}
		if anyNaN && !math.IsNaN(v) {
			return fmt.Errorf("NaN in input but Quantile=%v", v)
		}
		if !anyNaN && math.IsNaN(v) {
			return fmt.Errorf("no NaN in input but Quantile is NaN (xs=%v q=%v)", xs, q)
		}
		return nil
	})
}

func TestPropGiniInvariances(t *testing.T) {
	proptest.Run(t, 103, 200, func(g *proptest.G) error {
		xs := g.FloatsIn(1, 30, 0.01, 1e4)
		gi := stats.Gini(xs)
		if math.IsNaN(gi) || gi < -fpTol || gi >= 1 {
			return fmt.Errorf("Gini(%v) = %v out of [0,1)", xs, gi)
		}
		// Permutation invariance is exact: Gini sorts its own copy.
		if gp := stats.Gini(g.Permuted(xs)); !proptest.SameFloat(gi, gp) {
			return fmt.Errorf("Gini permutation-variant: %v vs %v", gi, gp)
		}
		// Scale invariance up to rounding, for a positive factor.
		c := g.Float64Range(0.1, 100)
		if gs := stats.Gini(proptest.Scaled(xs, c)); !proptest.ApproxEq(gi, gs, fpTol) {
			return fmt.Errorf("Gini scale-variant under c=%v: %v vs %v", c, gi, gs)
		}
		return nil
	})
}

func TestPropJainInvariances(t *testing.T) {
	proptest.Run(t, 104, 200, func(g *proptest.G) error {
		xs := g.FloatsIn(1, 30, 0.01, 1e4)
		j := stats.Jain(xs)
		n := float64(len(xs))
		if math.IsNaN(j) || j < 1/n-fpTol || j > 1+fpTol {
			return fmt.Errorf("Jain(%v) = %v out of [1/n, 1]", xs, j)
		}
		if jp := stats.Jain(g.Permuted(xs)); !proptest.ApproxEq(j, jp, fpTol) {
			return fmt.Errorf("Jain permutation-variant: %v vs %v", j, jp)
		}
		c := g.Float64Range(0.1, 100)
		if js := stats.Jain(proptest.Scaled(xs, c)); !proptest.ApproxEq(j, js, fpTol) {
			return fmt.Errorf("Jain scale-variant under c=%v: %v vs %v", c, j, js)
		}
		return nil
	})
}

// TestRegressionQuantileConstantExact pins a counterexample the bootstrap
// property suite shrank at PROPTEST_N=2000 (replay token
// pt1.7ca30686.AJqRhP_r1IalLoDwgvbX3wXbiomA7t2PlAI): interpolating between
// two equal order statistics rounded one ulp away from them, so the 0.25-
// and 0.75-ish quantiles of a constant sample came out inverted. Quantile
// must return the constant exactly for every q.
func TestRegressionQuantileConstantExact(t *testing.T) {
	c := -63.83635221284221
	for _, n := range []int{2, 3, 84} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = c
		}
		for _, q := range []float64{0, 0.24999966427071335, 0.25, 0.5, 0.75, 0.7500003357292866, 1} {
			if v := stats.Quantile(xs, q); v != c {
				t.Fatalf("Quantile(%d x %v, %v) = %v, want exact %v", n, c, q, v, c)
			}
		}
	}
}

package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n <= 20; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	expect := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d count %d far from expected %.0f", i, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(3, 1.5); v < 3 {
			t.Fatalf("Pareto below minimum: %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	p := r.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("permutation has %d distinct elements, want 50", len(seen))
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	r := New(29)
	weights := []float64{0, 1, 3}
	counts := make([]int, 3)
	const trials = 60000
	for i := 0; i < trials; i++ {
		counts[r.Categorical(weights)]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("category ratio = %g, want ~3", ratio)
	}
}

func TestCategoricalPanicsAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(31)
	got := r.SampleWithoutReplacement(100, 30)
	if len(got) != 30 {
		t.Fatalf("sample size %d, want 30", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 100 {
			t.Fatalf("sample value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	got := New(1).SampleWithoutReplacement(5, 5)
	if len(got) != 5 {
		t.Fatalf("want full sample, got %d", len(got))
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(37)
	z := NewZipf(100, 1.0)
	counts := make([]int, 101)
	const trials = 100000
	for i := 0; i < trials; i++ {
		k := z.Sample(r)
		if k < 1 || k > 100 {
			t.Fatalf("zipf rank %d out of range", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[10] {
		t.Errorf("rank 1 count %d should exceed rank 10 count %d", counts[1], counts[10])
	}
	// For s=1, P(1)/P(2) = 2.
	ratio := float64(counts[1]) / float64(counts[2])
	if math.Abs(ratio-2) > 0.3 {
		t.Errorf("zipf ratio rank1/rank2 = %g, want ~2", ratio)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(41)
	z := NewZipf(10, 0)
	counts := make([]int, 11)
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[z.Sample(r)]++
	}
	expect := float64(trials) / 10
	for k := 1; k <= 10; k++ {
		if math.Abs(float64(counts[k])-expect) > 5*math.Sqrt(expect) {
			t.Errorf("rank %d count %d far from uniform %g", k, counts[k], expect)
		}
	}
}

func TestQuickIntnInRange(t *testing.T) {
	r := New(43)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickShufflePreservesMultiset(t *testing.T) {
	r := New(47)
	f := func(s []int) bool {
		orig := make(map[int]int)
		for _, v := range s {
			orig[v]++
		}
		cp := append([]int(nil), s...)
		r.ShuffleInts(cp)
		got := make(map[int]int)
		for _, v := range cp {
			got[v]++
		}
		if len(orig) != len(got) {
			return false
		}
		for k, v := range orig {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfSample(b *testing.B) {
	r := New(1)
	z := NewZipf(10000, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample(r)
	}
}

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestDistributionValidationPanics(t *testing.T) {
	r := New(1)
	expectPanic(t, "Pareto(0,1)", func() { r.Pareto(0, 1) })
	expectPanic(t, "Pareto(1,0)", func() { r.Pareto(1, 0) })
	expectPanic(t, "Categorical negative", func() { r.Categorical([]float64{1, -1}) })
	expectPanic(t, "SampleWithoutReplacement k>n", func() { r.SampleWithoutReplacement(2, 3) })
	expectPanic(t, "NewZipf(0,1)", func() { NewZipf(0, 1) })
	expectPanic(t, "NewZipf(5,-1)", func() { NewZipf(5, -1) })
}

func TestZipfN(t *testing.T) {
	if NewZipf(42, 1).N() != 42 {
		t.Error("Zipf.N wrong")
	}
}

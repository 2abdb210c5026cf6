// Package rng provides a deterministic, seedable random number generator and
// the sampling distributions used throughout the humnet toolkit.
//
// Every stochastic component in the repository accepts an explicit *Rand so
// that experiments are reproducible bit-for-bit from a seed. The generator is
// a 64-bit SplitMix64-seeded xoshiro256** implemented locally so that results
// do not depend on the Go runtime's unexported generator details.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; create one per goroutine (use Split to derive independent
// streams).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, which guarantees a
// well-distributed internal state even for small or similar seeds.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives a new, statistically independent generator from r. The parent
// stream advances, so successive Split calls yield distinct children.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Pareto returns a Pareto(alpha) variate with minimum value xm. Heavy-tailed
// demand and popularity models use this. It panics if alpha or xm <= 0.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("rng: Pareto requires xm, alpha > 0")
	}
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Categorical samples an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights panic; an all-zero weight
// vector panics.
func (r *Rand) Categorical(weights []float64) int {
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("rng: negative weight %g at index %d", w, i))
		}
		total += w
	}
	if total == 0 {
		panic("rng: Categorical requires at least one positive weight")
	}
	x := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It panics if k > n or k < 0.
func (r *Rand) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("rng: sample k=%d from n=%d", k, n))
	}
	// Partial Fisher–Yates.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Zipf samples values in [1, n] with probability proportional to 1/rank^s.
// Construct once via NewZipf; Sample is O(log n) via binary search on the CDF.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes a Zipf(s) distribution over ranks 1..n. It panics if
// n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf requires n > 0")
	}
	if s < 0 {
		panic("rng: NewZipf requires s >= 0")
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i := 1; i <= n; i++ {
		acc += 1 / math.Pow(float64(i), s)
		cdf[i-1] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	return &Zipf{cdf: cdf}
}

// Sample returns a rank in [1, n].
func (z *Zipf) Sample(r *Rand) int {
	x := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// The property tests live in an external test package: internal/proptest
// draws from this package, so an in-package test could not import it.
package rng_test

import (
	"fmt"
	"testing"

	"repro/internal/proptest"
	"repro/internal/rng"
)

func TestQuickIntnInRange(t *testing.T) {
	r := rng.New(43)
	proptest.Run(t, 401, 200, func(g *proptest.G) error {
		m := g.Intn(1<<16)%1000 + 1
		if v := r.Intn(m); v < 0 || v >= m {
			return fmt.Errorf("Intn(%d) = %d", m, v)
		}
		return nil
	})
}

func TestQuickShufflePreservesMultiset(t *testing.T) {
	r := rng.New(47)
	proptest.Run(t, 402, 200, func(g *proptest.G) error {
		// Full-range values, with a small-range run now and then so the
		// multiset holds duplicates.
		s := make([]int, g.IntRange(0, 50))
		for i := range s {
			if g.Bool(0.3) {
				s[i] = g.IntRange(-3, 3)
			} else {
				s[i] = int(g.Uint64())
			}
		}
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
			return fmt.Errorf("shuffle of %v = %v: %d distinct values, want %d", s, cp, len(got), len(orig))
		}
		for k, v := range orig {
			if got[k] != v {
				return fmt.Errorf("shuffle of %v = %v: %d copies of %d, want %d", s, cp, got[k], k, v)
			}
		}
		return nil
	})
}

package biblio

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/proptest"
	"repro/internal/rng"
)

// TestFenwickMatchesCategorical checks that the productivity sampler draws
// exactly the index rng.Categorical draws from the same stream, on integer
// weights: a single category, zero weights (leading, trailing, runs), and
// totals far past the generator's, both as built and after random adds.
func TestFenwickMatchesCategorical(t *testing.T) {
	proptest.Run(t, 501, 300, func(g *proptest.G) error {
		n := g.IntRange(1, 70)
		weights := make([]int, n)
		// The largest weight is 1<<40 on 64-bit ints and 1<<24 on 32-bit
		// ones, where a total of about 110 such weights still fits an int.
		maxW := []int{1, 3, 1000, 1 << min(40, strconv.IntSize-8)}[g.Intn(4)]
		for i := range weights {
			if !g.Bool(0.3) {
				weights[i] = g.IntRange(0, maxW)
			}
		}
		if g.Bool(0.5) {
			weights[g.Intn(n)] = 0
		}
		weights[g.Intn(n)] += 1 // Categorical needs a positive total
		f := newFenwick(n)
		for i, w := range weights {
			f.add(i, w)
		}
		seed := g.Uint64()
		want, got := rng.New(seed), rng.New(seed)
		for draw := 0; draw < 40; draw++ {
			floats := make([]float64, n)
			for i, w := range weights {
				floats[i] = float64(w)
			}
			w, s := want.Categorical(floats), f.sample(got)
			if w != s {
				return fmt.Errorf("draw %d over %v: Categorical %d, fenwick %d", draw, weights, w, s)
			}
			i, delta := g.Intn(n), g.IntRange(0, maxW)
			weights[i] += delta
			f.add(i, delta)
		}
		// A draw is almost never an exact prefix sum; probe every boundary
		// (and the total, which Float64()*total can round up to) directly.
		prefix := 0
		for i := -1; i < n; i++ {
			if i >= 0 {
				prefix += weights[i]
			}
			x := float64(prefix)
			if w, s := categoricalAt(weights, x), f.find(x); w != s {
				return fmt.Errorf("x=%g over %v: scan %d, fenwick %d", x, weights, w, s)
			}
		}
		return nil
	})
}

// categoricalAt is rng.Categorical's scan at a given x: the first index
// whose running sum exceeds x, else the last index.
func categoricalAt(weights []int, x float64) int {
	acc := 0.0
	for i, w := range weights {
		acc += float64(w)
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// TestMemoClassifierMatchesClassifyAbstract checks that one memo shared
// across many abstracts, the way RunE5 classifies a corpus, labels each
// abstract exactly as a fresh ClassifyAbstract call does.
func TestMemoClassifierMatchesClassifyAbstract(t *testing.T) {
	var words []string
	for _, vocab := range methodVocabulary {
		words = append(words, vocab...)
	}
	words = append(words, abstractFiller...)
	words = append(words, "the", "interviews", "Proofs", "measurement's", "modeling", "", "-", "ÉTUDE")
	memo := classifier{memo: make(map[string][Mixed]int)}
	proptest.Run(t, 502, 300, func(g *proptest.G) error {
		parts := make([]string, g.IntRange(0, 40))
		for i := range parts {
			parts[i] = words[g.Intn(len(words))]
		}
		abstract := strings.Join(parts, []string{" ", ", ", ". "}[g.Intn(3)])
		if got, want := memo.classify(abstract), ClassifyAbstract(abstract); got != want {
			return fmt.Errorf("memoized classify(%q) = %v, ClassifyAbstract = %v", abstract, got, want)
		}
		return nil
	})
}

package cn

import (
	"fmt"
	"testing"

	"repro/internal/proptest"
	"repro/internal/rng"
)

// quickDemands turns drawn bytes into a plausible demand vector.
func quickDemands(raw []int) []float64 {
	if len(raw) == 0 {
		return nil
	}
	if len(raw) > 24 {
		raw = raw[:24]
	}
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = float64(v) / 8
	}
	return out
}

// checkFill asserts a fill's invariants: every allocation within [0,
// demand], and either capacity or demand exhausted (within epsilon).
func checkFill(demand, alloc []float64, capacity float64) error {
	var sum, total float64
	for i, a := range alloc {
		if a < -1e-9 || a > demand[i]+1e-9 {
			return fmt.Errorf("alloc[%d] = %g outside [0, %g]", i, a, demand[i])
		}
		sum += a
		total += demand[i]
	}
	want := capacity
	if total < capacity {
		want = total
	}
	if !(sum <= want+1e-6 && sum >= want-1e-6) {
		return fmt.Errorf("allocated %g, want %g (capacity %g, demand %g)", sum, want, capacity, total)
	}
	return nil
}

func TestQuickWaterfillInvariants(t *testing.T) {
	proptest.Run(t, 505, 200, func(g *proptest.G) error {
		demand := quickDemands(g.IntsIn(0, 49, 0, 255))
		if demand == nil {
			return nil
		}
		capacity := float64(g.IntRange(0, 255)) / 4
		return checkFill(demand, waterfill(demand, capacity), capacity)
	})
}

func TestQuickWeightedFillInvariants(t *testing.T) {
	proptest.Run(t, 506, 200, func(g *proptest.G) error {
		demand := quickDemands(g.IntsIn(0, 49, 0, 255))
		if demand == nil {
			return nil
		}
		wRaw := g.IntsIn(0, 49, 0, 255)
		weight := make([]float64, len(demand))
		for i := range weight {
			if i < len(wRaw) {
				weight[i] = float64(wRaw[i])
			}
		}
		capacity := float64(g.IntRange(0, 255)) / 4
		return checkFill(demand, weightedFill(demand, weight, capacity), capacity)
	})
}

func TestQuickWeightedFillMonotoneInWeight(t *testing.T) {
	// With identical demands and binding capacity, a member with strictly
	// larger weight never receives less.
	proptest.Run(t, 507, 100, func(g *proptest.G) error {
		r := rng.New(g.Uint64())
		n := 3 + r.Intn(6)
		demand := make([]float64, n)
		weight := make([]float64, n)
		for i := range demand {
			demand[i] = 100 // non-binding caps
			weight[i] = 1 + 10*r.Float64()
		}
		capacity := 10.0
		alloc := weightedFill(demand, weight, capacity)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if weight[i] > weight[j]+1e-9 && alloc[i] < alloc[j]-1e-9 {
					return fmt.Errorf("weight %g > %g but alloc %g < %g", weight[i], weight[j], alloc[i], alloc[j])
				}
			}
		}
		return nil
	})
}

func TestQuickCPRAllocationsBounded(t *testing.T) {
	proptest.Run(t, 508, 100, func(g *proptest.G) error {
		r := rng.New(g.Uint64())
		epochs := g.IntRange(1, 40)
		c := &CPR{}
		n := 4
		c.Reset(n)
		for e := 0; e < epochs; e++ {
			demand := make([]float64, n)
			for i := range demand {
				demand[i] = r.Pareto(0.5, 1.3)
			}
			alloc := c.Allocate(demand, 3)
			sum := 0.0
			for i, a := range alloc {
				if a < -1e-9 || a > demand[i]+1e-9 {
					return fmt.Errorf("epoch %d: alloc[%d] = %g outside [0, %g]", e, i, a, demand[i])
				}
				sum += a
			}
			if sum > 3+1e-6 {
				// Uncongested epochs may grant all demand below capacity.
				total := 0.0
				for _, d := range demand {
					total += d
				}
				if total > 3 {
					return fmt.Errorf("epoch %d: allocated %g of capacity 3 under demand %g", e, sum, total)
				}
			}
			// Balances never go negative.
			for i, b := range c.Balances() {
				if b < -1e-9 {
					return fmt.Errorf("epoch %d: balance[%d] = %g", e, i, b)
				}
			}
		}
		return nil
	})
}

package cn

import (
	"math"
	"testing"
)

// TestChurnSimDemandScale pins the cross-domain demand-scale hook: the scale
// defaults to the identity, sets within (0, 64], rejects everything else,
// and never perturbs the demand RNG (scaling is applied to the drawn bytes,
// so churn and demand stay decoupled).
func TestChurnSimDemandScale(t *testing.T) {
	s, err := NewChurnSim(ChurnConfig{Members: 6, CapacityFactor: 0.6, Seed: 1}, &CPR{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DemandScale(); got != 1 {
		t.Fatalf("initial demand scale = %v, want 1", got)
	}
	for _, bad := range []float64{0, -1, 64.5, math.NaN(), math.Inf(1)} {
		if err := s.SetDemandScale(bad); err == nil {
			t.Errorf("SetDemandScale(%v) accepted", bad)
		}
	}
	if err := s.SetDemandScale(2.5); err != nil {
		t.Fatal(err)
	}
	if got := s.DemandScale(); got != 2.5 {
		t.Fatalf("demand scale = %v, want 2.5", got)
	}

	// Exact scaling: two sims with identical seeds, one at scale 2, run one
	// epoch; offered airtime doubles bit-exactly because the multiplier
	// applies outside the RNG draw.
	a, err := NewChurnSim(ChurnConfig{Members: 6, CapacityFactor: 0.6, Seed: 7}, &CPR{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewChurnSim(ChurnConfig{Members: 6, CapacityFactor: 0.6, Seed: 7}, &CPR{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetDemandScale(2); err != nil {
		t.Fatal(err)
	}
	ra := a.Epoch()
	rb := b.Epoch()
	if rb.Offered != 2*ra.Offered {
		t.Fatalf("scaled offered = %v, want exactly 2x %v", rb.Offered, ra.Offered)
	}
}

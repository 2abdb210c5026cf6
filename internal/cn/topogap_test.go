package cn

import (
	"testing"
)

func TestTopoGapValidation(t *testing.T) {
	if _, err := TopoGapExperiment(3, 0.3, 1); err == nil {
		t.Error("tiny mesh accepted")
	}
}

func TestTopoGapShapes(t *testing.T) {
	rows, err := TopoGapExperiment(40, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (4 quartiles x 2 placements)", len(rows))
	}
	// Hops increase across quartiles for both placements.
	for _, placement := range []string{"default", "optimized"} {
		var prev float64 = -1
		for q := 1; q <= 4; q++ {
			for _, r := range rows {
				if r.Placement == placement && r.Quartile == q {
					if r.MeanHops < prev {
						t.Errorf("%s quartile %d hops %g below previous %g", placement, q, r.MeanHops, prev)
					}
					prev = r.MeanHops
					if r.MeanRate <= 0 {
						t.Errorf("%s quartile %d starved", placement, q)
					}
				}
			}
		}
	}
	// The near/far rate gap exists under both placements (topology is
	// topology) but is real and measurable.
	gapDefault := NearFarGap(rows, "default")
	gapOpt := NearFarGap(rows, "optimized")
	if gapDefault < 1 || gapOpt < 1 {
		t.Errorf("gaps should be >= 1: default %g optimized %g", gapDefault, gapOpt)
	}
}

func TestOptimizedPlacementRaisesFarQuartile(t *testing.T) {
	// Across several meshes, the 1-median placement should raise the
	// farthest quartile's mean rate more often than not.
	wins := 0
	for seed := uint64(1); seed <= 7; seed++ {
		rows, err := TopoGapExperiment(40, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		var defFar, optFar float64
		for _, r := range rows {
			if r.Quartile == 4 {
				if r.Placement == "default" {
					defFar = r.MeanRate
				} else {
					optFar = r.MeanRate
				}
			}
		}
		if optFar >= defFar-1e-12 {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("optimized placement helped the far quartile only %d/7 times", wins)
	}
}

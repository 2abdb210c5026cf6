package ixp

import (
	"context"
	"math"
	"testing"
)

func econBase() EconConfig {
	return EconConfig{
		SouthISPs: 40, LocalIXPs: 4, ContentPresence: 0.5,
		ContentVolume: 10, TransitPricePerUnit: 2,
		Seed: 9,
	}
}

// econAt runs the economic sweep at the single port cost cost.
func econAt(t *testing.T, cfg EconConfig, cost float64) EconRow {
	t.Helper()
	rows, err := EconomicSweepCtx(context.Background(), cfg, []float64{cost})
	if err != nil {
		t.Fatal(err)
	}
	return rows[0]
}

func TestEconomicValidation(t *testing.T) {
	if _, err := EconomicSweepCtx(context.Background(), EconConfig{}, []float64{1}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestEconomicCheapPortMeansRemotePeering(t *testing.T) {
	row := econAt(t, econBase(), 5) // << volume*price = 20
	if row.RemotePeered == 0 {
		t.Error("cheap ports should drive remote peering")
	}
	if row.TransitShare != 0 {
		t.Errorf("transit share = %g, want 0 when remote peering is cheap", row.TransitShare)
	}
}

func TestEconomicExpensivePortMeansTransit(t *testing.T) {
	row := econAt(t, econBase(), 100) // >> 20
	if row.RemotePeered != 0 {
		t.Error("expensive ports should kill remote peering")
	}
	if row.GiantIXPShare != 0 {
		t.Errorf("giant share = %g, want 0", row.GiantIXPShare)
	}
	if row.TransitShare == 0 {
		t.Error("content-uncovered ISPs should ride transit")
	}
}

func TestEconomicSweepCrossover(t *testing.T) {
	cfg := econBase() // crossover at portCost = 20
	costs := []float64{5, 10, 15, 19, 21, 30, 50}
	rows, err := EconomicSweepCtx(context.Background(), cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if costs[i] < 20 {
			if r.RemotePeered == 0 {
				t.Errorf("cost %g: expected adoption", costs[i])
			}
		} else {
			if r.RemotePeered != 0 {
				t.Errorf("cost %g: expected no adoption", costs[i])
			}
		}
	}
	// Shares always sum to 1.
	for _, r := range rows {
		sum := r.GiantIXPShare + r.LocalIXPShare + r.TransitShare
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("shares sum %g at cost %g", sum, r.RemotePortCost)
		}
	}
	// Mean cost jumps discontinuously at the crossover (port fee below,
	// transit bill above).
	below := rows[3] // cost 19
	above := rows[4] // cost 21
	if !(above.MeanCost > below.MeanCost) {
		t.Errorf("cost above crossover %g should exceed below %g", above.MeanCost, below.MeanCost)
	}
}

func TestEconomicLocalAlwaysFree(t *testing.T) {
	cfg := econBase()
	cfg.ContentPresence = 1 // everyone covered locally
	row := econAt(t, cfg, 1)
	if row.MeanCost != 0 {
		t.Errorf("fully-local mean cost = %g, want 0", row.MeanCost)
	}
	if row.LocalIXPShare < 0.99 {
		t.Errorf("local share = %g", row.LocalIXPShare)
	}
}

package ixp

import (
	"context"
	"testing"
)

// TestSweepCtxCancelled checks cancellation stops each sweep with an error
// instead of partial rows.
func TestSweepCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rows, err := CircumventionSweepCtx(ctx, 3, 0.5, 2, 1); err == nil {
		t.Errorf("CircumventionSweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
	if rows, err := GravitySweepCtx(ctx, 12, 3, []float64{0, 1}, 7, 1); err == nil {
		t.Errorf("GravitySweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
	base := EconConfig{SouthISPs: 12, LocalIXPs: 3, ContentPresence: 0.5,
		ContentVolume: 10, TransitPricePerUnit: 2, Seed: 7}
	if rows, err := EconomicSweepCtx(ctx, base, []float64{1, 100}, 1); err == nil {
		t.Errorf("EconomicSweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
	if rows, err := PolicySweepCtx(ctx, 3, 0.5, []float64{0, 0.5}, 1); err == nil {
		t.Errorf("PolicySweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
}

package graph

import (
	"context"
	"testing"

	"repro/internal/rng"
)

// TestCentralityCtxCancelled checks both centrality variants stop and
// surface ctx.Err() instead of returning half-accumulated scores.
func TestCentralityCtxCancelled(t *testing.T) {
	g := ErdosRenyi(120, 0.05, rng.New(7))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		if got, err := g.BetweennessCentralityCtx(ctx, workers); err == nil {
			t.Errorf("workers=%d: BetweennessCentralityCtx on a cancelled context returned %d scores, want error",
				workers, len(got))
		}
		if got, err := g.ClosenessCentralityCtx(ctx, workers); err == nil {
			t.Errorf("workers=%d: ClosenessCentralityCtx on a cancelled context returned %d scores, want error",
				workers, len(got))
		}
	}
}

package bgpsim

import (
	"context"
	"testing"

	"repro/internal/experiment"
	"repro/internal/rng"
)

// TestSweepCtxCancelled checks the sweeps stop between events and surface
// ctx.Err() rather than returning partial rows.
func TestSweepCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rows, err := RunLeakSweepCtx(ctx, 8, 20, 5, 1); err == nil {
		t.Errorf("RunLeakSweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
	if rows, err := RunHijackSweepCtx(ctx, 8, 20, 5, 1); err == nil {
		t.Errorf("RunHijackSweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
}

// TestConvergeCtxCancelled checks a cancelled convergence returns an error
// instead of partial tables.
func TestConvergeCtxCancelled(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(9), HierarchyOpts{NMid: 6, NStub: 15})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Topo.ConvergeCtx(ctx, 1); err == nil {
		t.Error("ConvergeCtx on a cancelled context returned tables, want error")
	}
}

// TestLeakHijackScenariosNeedStubs checks E14 and E16 with no stubs, and so
// no victim prefix to draw, return an error rather than panic.
func TestLeakHijackScenariosNeedStubs(t *testing.T) {
	p := experiment.Values{"mids": 8, "stubs": 0}
	if _, err := runE14(context.Background(), p, 5); err == nil {
		t.Error("E14 without stubs succeeded, want error")
	}
	if _, err := runE16(context.Background(), p, 5); err == nil {
		t.Error("E16 without stubs succeeded, want error")
	}
}

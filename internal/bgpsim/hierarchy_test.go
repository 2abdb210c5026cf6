package bgpsim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rng"
)

func TestBuildHierarchyStructure(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(3), HierarchyOpts{NMid: 8, NStub: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Tier1) != 3 || len(h.Mids) != 8 || len(h.Stubs) != 20 {
		t.Fatalf("sizes = %d/%d/%d", len(h.Tier1), len(h.Mids), len(h.Stubs))
	}
	// Every stub's prefix is globally reachable.
	rt := converge(t, h.Topo, 1)
	for _, s := range h.Stubs {
		prefix := fmt.Sprintf("pfx-%d", s)
		for _, n := range h.Topo.ASNs() {
			if !rt.Reachable(n, prefix) {
				t.Errorf("AS %d cannot reach %s", n, prefix)
			}
		}
	}
}

func TestRunLeakSweepShapes(t *testing.T) {
	rows, err := RunLeakSweepCtx(context.Background(), 8, 20, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 1 stub + 8 mids
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].LeakerKind != "stub" {
		t.Fatal("first row should be the stub leaker")
	}
	var stubBlast float64
	var midSum float64
	var midN int
	for _, r := range rows {
		if r.AffectedShare < 0 || r.AffectedShare > 1 {
			t.Errorf("share %g out of range", r.AffectedShare)
		}
		if r.LeakerKind == "stub" {
			stubBlast = float64(r.Affected)
		} else {
			midSum += float64(r.Affected)
			midN++
		}
	}
	midMean := midSum / float64(midN)
	// Mid-tier leakers, being better connected, drag more of the network
	// through themselves than a stub leaker on average.
	if !(midMean > stubBlast) {
		t.Errorf("mid mean blast %g should exceed stub %g", midMean, stubBlast)
	}
}

func TestRunLeakSweepDeterministic(t *testing.T) {
	a, err := RunLeakSweepCtx(context.Background(), 6, 15, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLeakSweepCtx(context.Background(), 6, 15, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func BenchmarkRunLeakSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunLeakSweepCtx(context.Background(), 8, 20, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWithdrawOrigin(t *testing.T) {
	topo := NewTopology()
	_ = topo.AddAS(1, ASInfo{})
	_ = topo.Originate(1, "a")
	_ = topo.Originate(1, "b")
	topo.WithdrawOrigin(1, "a")
	got := topo.Origins(1)
	if len(got) != 1 || got[0] != "b" {
		t.Errorf("origins = %v", got)
	}
	topo.WithdrawOrigin(1, "missing") // no-op
	topo.WithdrawOrigin(99, "a")      // unknown AS no-op
	if len(topo.Origins(1)) != 1 {
		t.Error("no-op withdraw changed origins")
	}
}

func TestRunHijackSweepShapes(t *testing.T) {
	rows, err := RunHijackSweepCtx(context.Background(), 8, 20, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	var stubShare float64
	var midSum float64
	var midN int
	for _, r := range rows {
		if r.CapturedShare < 0 || r.CapturedShare > 1 {
			t.Errorf("share %g out of range", r.CapturedShare)
		}
		if r.AttackerKind == "stub" {
			stubShare = r.CapturedShare
		} else {
			midSum += r.CapturedShare
			midN++
		}
	}
	// Every attacker captures at least its own corner of the network (its
	// providers prefer the customer route), and mids capture more than a
	// stub on average.
	if !(midSum/float64(midN) > stubShare) {
		t.Errorf("mid mean capture %g should exceed stub %g", midSum/float64(midN), stubShare)
	}
	for _, r := range rows {
		if r.Captured == 0 {
			t.Errorf("attacker %d captured nothing — its own providers should prefer it", r.AttackerASN)
		}
	}
}

func TestHijackSweepRestoresTopology(t *testing.T) {
	// After the sweep, converging again must route everything to the true
	// victim (all attacker originations withdrawn).
	rows, err := RunHijackSweepCtx(context.Background(), 6, 12, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
	// Rebuild the same hierarchy and confirm single-origin state matches a
	// fresh run (the sweep mutated a topology we no longer hold, so just
	// re-running deterministically is the check).
	again, err := RunHijackSweepCtx(context.Background(), 6, 12, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("sweep not deterministic/state-leaking at row %d", i)
		}
	}
}

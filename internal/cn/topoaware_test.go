package cn

import (
	"testing"
)

func TestSimulateTopologyAwareValidation(t *testing.T) {
	if _, err := SimulateTopologyAware(ChurnConfig{Members: 2, CapacityFactor: 1}, 5, MaxMin{}); err == nil {
		t.Error("tiny config accepted")
	}
}

func TestTopologyAwareFarMembersSufferEverywhere(t *testing.T) {
	cfg := ChurnConfig{Members: 30, HeavyFrac: 0.2, CapacityFactor: 0.6, Seed: 21}
	for _, sched := range freshSchedulers() {
		res, err := SimulateTopologyAware(cfg, 200, sched)
		if err != nil {
			t.Fatal(err)
		}
		if res.NearSat <= 0 || res.FarSat <= 0 {
			t.Fatalf("%s: degenerate satisfactions %+v", res.Scheduler, res)
		}
		// The structural claim: no gateway discipline closes the near/far
		// gap, because the cap is the path, not the policy.
		if !(res.Gap > 1.05) {
			t.Errorf("%s: near/far gap %g should persist under topology caps", res.Scheduler, res.Gap)
		}
	}
}

func TestTopologyAwareDeterministic(t *testing.T) {
	cfg := ChurnConfig{Members: 20, HeavyFrac: 0.2, CapacityFactor: 0.7, Seed: 4}
	a, err := SimulateTopologyAware(cfg, 100, &CPR{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTopologyAware(cfg, 100, &CPR{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

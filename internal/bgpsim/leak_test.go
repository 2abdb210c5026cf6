package bgpsim

import (
	"testing"

	"repro/internal/rng"
)

// leakScenario builds the classic leak setup: providers P1 (10) and P2 (20)
// peer; L (30) is a customer of both; the victim prefix lives at V (40), a
// customer of P1; C (50) is another customer of P2.
func leakScenario(t *testing.T) *Topology {
	t.Helper()
	topo := NewTopology()
	for _, n := range []ASN{10, 20, 30, 40, 50} {
		if err := topo.AddAS(n, ASInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	mustLink := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustLink(topo.AddPeer(10, 20))
	mustLink(topo.AddProviderCustomer(10, 30))
	mustLink(topo.AddProviderCustomer(20, 30))
	mustLink(topo.AddProviderCustomer(10, 40))
	mustLink(topo.AddProviderCustomer(20, 50))
	if err := topo.Originate(40, "victim"); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNoLeakBaseline(t *testing.T) {
	topo := leakScenario(t)
	rt := converge(t, topo, 1)
	// P2 reaches the victim via its peer P1, not via its customer L.
	if !pathEq(rt.Path(20, "victim"), 20, 10, 40) {
		t.Errorf("P2 path = %v, want via peer", rt.Path(20, "victim"))
	}
	affected, _ := BlastRadius(rt, 30, "victim")
	if len(affected) != 0 {
		t.Errorf("baseline blast radius = %v, want none", affected)
	}
}

func TestLeakPullsTrafficThroughLeaker(t *testing.T) {
	topo := leakScenario(t)
	if !topo.MarkLeaker(30) {
		t.Fatal("MarkLeaker failed")
	}
	if !topo.IsLeaker(30) {
		t.Fatal("IsLeaker false")
	}
	rt := converge(t, topo, 1)
	// P2 now hears the victim from its CUSTOMER L (leaked provider route)
	// and prefers it economically — the leak's whole mechanism.
	if !pathEq(rt.Path(20, "victim"), 20, 30, 10, 40) {
		t.Errorf("P2 path = %v, want sucked through the leaker", rt.Path(20, "victim"))
	}
	affected, reachable := BlastRadius(rt, 30, "victim")
	if len(affected) < 2 { // P2 and C at least
		t.Errorf("blast radius = %v (of %d reachable)", affected, reachable)
	}
	// C (customer of P2) is dragged along.
	found := false
	for _, n := range affected {
		if n == 50 {
			found = true
		}
	}
	if !found {
		t.Errorf("downstream customer not affected: %v", affected)
	}
}

func TestLeakPathsRemainLoopFree(t *testing.T) {
	topo := leakScenario(t)
	topo.MarkLeaker(30)
	rt := converge(t, topo, 1)
	for _, n := range topo.ASNs() {
		for _, p := range rt.Prefixes(n) {
			path := rt.Path(n, p)
			seen := make(map[ASN]bool)
			for _, hop := range path {
				if seen[hop] {
					t.Fatalf("loop in leaked path %v", path)
				}
				seen[hop] = true
			}
		}
	}
}

func TestClearLeakerRestoresBaseline(t *testing.T) {
	topo := leakScenario(t)
	topo.MarkLeaker(30)
	topo.ClearLeaker(30)
	rt := converge(t, topo, 1)
	if !pathEq(rt.Path(20, "victim"), 20, 10, 40) {
		t.Errorf("path after clearing = %v", rt.Path(20, "victim"))
	}
}

func TestMarkLeakerUnknown(t *testing.T) {
	topo := NewTopology()
	if topo.MarkLeaker(99) {
		t.Error("unknown AS markable")
	}
	if topo.IsLeaker(99) {
		t.Error("unknown AS is leaker")
	}
}

func TestLeakBlastGrowsWithLeakerConnectivity(t *testing.T) {
	// A leaker with more providers drags more of the world through itself.
	build := func(extraProviders int) int {
		topo := NewTopology()
		asn := func(i int) ASN { return ASN(i) }
		// Tier1 clique 1..3.
		for i := 1; i <= 3; i++ {
			_ = topo.AddAS(asn(i), ASInfo{})
		}
		_ = topo.AddPeer(1, 2)
		_ = topo.AddPeer(1, 3)
		_ = topo.AddPeer(2, 3)
		// Victim under tier1 1.
		_ = topo.AddAS(100, ASInfo{})
		_ = topo.AddProviderCustomer(1, 100)
		_ = topo.Originate(100, "v")
		// Leaker 200: customer of tier1 1 plus extraProviders more tier1s.
		_ = topo.AddAS(200, ASInfo{})
		_ = topo.AddProviderCustomer(1, 200)
		for i := 0; i < extraProviders; i++ {
			_ = topo.AddProviderCustomer(asn(2+i), 200)
		}
		// Stubs under tier1 2 and 3.
		for i := 0; i < 6; i++ {
			n := ASN(1000 + i)
			_ = topo.AddAS(n, ASInfo{})
			_ = topo.AddProviderCustomer(asn(2+i%2), n)
		}
		topo.MarkLeaker(200)
		rt := converge(t, topo, 1)
		affected, _ := BlastRadius(rt, 200, "v")
		return len(affected)
	}
	zero := build(0)
	two := build(2)
	if !(two > zero) {
		t.Errorf("blast radius should grow with leaker connectivity: %d vs %d", zero, two)
	}
}

func TestPropertyLeakedPathsLoopFreeAcrossTopologies(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		h, err := BuildHierarchyOpts(r, HierarchyOpts{NMid: 6, NStub: 12})
		if err != nil {
			t.Fatal(err)
		}
		// Random leaker among mids and stubs.
		candidates := append(append([]ASN{}, h.Mids...), h.Stubs...)
		leaker := candidates[r.Intn(len(candidates))]
		h.Topo.MarkLeaker(leaker)
		rt := converge(t, h.Topo, 1)
		for _, n := range h.Topo.ASNs() {
			for _, p := range rt.Prefixes(n) {
				path := rt.Path(n, p)
				seen := make(map[ASN]bool, len(path))
				for _, hop := range path {
					if seen[hop] {
						t.Fatalf("seed %d leaker %d: loop in %v", seed, leaker, path)
					}
					seen[hop] = true
				}
			}
		}
		// Reachability never shrinks under a leak (leaks add paths).
		h.Topo.ClearLeaker(leaker)
		base := converge(t, h.Topo, 1)
		for _, n := range h.Topo.ASNs() {
			for _, p := range base.Prefixes(n) {
				if !rt.Reachable(n, p) {
					t.Fatalf("seed %d: leak removed reachability of %s at %d", seed, p, n)
				}
			}
		}
	}
}

// TestBlastRadiusUnknownLeaker pins the contract for a leaker ASN the tables
// have never heard of: no AS routes through it, but the reachable count of
// the prefix is still reported.
func TestBlastRadiusUnknownLeaker(t *testing.T) {
	rt := converge(t, leakScenario(t), 1)
	affected, reachable := BlastRadius(rt, 99, "victim")
	if affected != nil {
		t.Errorf("affected = %v, want nil", affected)
	}
	if reachable != 5 {
		t.Errorf("reachable = %d, want 5", reachable)
	}
	if affected, reachable := BlastRadius(rt, 99, "no-such-prefix"); affected != nil || reachable != 0 {
		t.Errorf("unknown prefix: (%v, %d), want (nil, 0)", affected, reachable)
	}
}

package bgpsim

import (
	"context"
	"testing"
	"time"

	"repro/internal/rng"
)

func mustAS(t *testing.T, topo *Topology, n ASN, info ASInfo) {
	t.Helper()
	if err := topo.AddAS(n, info); err != nil {
		t.Fatal(err)
	}
}

func mustPC(t *testing.T, topo *Topology, p, c ASN) {
	t.Helper()
	if err := topo.AddProviderCustomer(p, c); err != nil {
		t.Fatal(err)
	}
}

func mustPeer(t *testing.T, topo *Topology, a, b ASN) {
	t.Helper()
	if err := topo.AddPeer(a, b); err != nil {
		t.Fatal(err)
	}
}

// converge runs the cold convergence on workers goroutines, failing the test
// on error.
func converge(tb testing.TB, topo *Topology, workers int) *RoutingTables {
	tb.Helper()
	rt, err := topo.ConvergeCtx(context.Background(), workers)
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// convergeState is converge for the live state Apply/Revert patch.
func convergeState(tb testing.TB, topo *Topology, workers int) *Converged {
	tb.Helper()
	c, err := topo.ConvergeStateCtx(context.Background(), workers)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func pathEq(a []ASN, b ...ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAddASValidation(t *testing.T) {
	topo := NewTopology()
	mustAS(t, topo, 1, ASInfo{})
	if err := topo.AddAS(1, ASInfo{}); err == nil {
		t.Error("duplicate AS accepted")
	}
	if err := topo.AddProviderCustomer(1, 99); err == nil {
		t.Error("link to unknown AS accepted")
	}
	if err := topo.AddPeer(1, 1); err == nil {
		t.Error("self peering accepted")
	}
}

func TestOriginRoute(t *testing.T) {
	topo := NewTopology()
	mustAS(t, topo, 10, ASInfo{})
	if err := topo.Originate(10, "p1"); err != nil {
		t.Fatal(err)
	}
	rt := converge(t, topo, 1)
	r := rt.Route(10, "p1")
	if r == nil || r.Learned != Origin || !pathEq(r.Path, 10) {
		t.Fatalf("origin route = %+v", r)
	}
}

func TestCustomerChainPropagation(t *testing.T) {
	// 1 (tier1) → 2 (regional) → 3 (stub). Prefix at 3.
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 2)
	mustPC(t, topo, 2, 3)
	_ = topo.Originate(3, "p")
	rt := converge(t, topo, 1)
	if !pathEq(rt.Path(1, "p"), 1, 2, 3) {
		t.Errorf("tier1 path = %v", rt.Path(1, "p"))
	}
	if !pathEq(rt.Path(2, "p"), 2, 3) {
		t.Errorf("regional path = %v", rt.Path(2, "p"))
	}
}

func TestProviderRoutePropagatesDown(t *testing.T) {
	// Prefix at tier1; stub learns it through its provider chain.
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 2)
	mustPC(t, topo, 2, 3)
	_ = topo.Originate(1, "up")
	rt := converge(t, topo, 1)
	if !pathEq(rt.Path(3, "up"), 3, 2, 1) {
		t.Errorf("stub path = %v", rt.Path(3, "up"))
	}
	if rt.Route(3, "up").Learned != FromProvider {
		t.Errorf("learned = %v, want provider", rt.Route(3, "up").Learned)
	}
}

func TestPeeringUpPeerDown(t *testing.T) {
	// C1 ← A peers B → C2. C1 reaches C2's prefix via up-peer-down.
	topo := NewTopology()
	for _, n := range []ASN{100, 200, 1, 2} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 100, 1) // A=100 provider of C1=1
	mustPC(t, topo, 200, 2) // B=200 provider of C2=2
	mustPeer(t, topo, 100, 200)
	_ = topo.Originate(2, "c2")
	rt := converge(t, topo, 1)
	if !pathEq(rt.Path(1, "c2"), 1, 100, 200, 2) {
		t.Errorf("path = %v, want [1 100 200 2]", rt.Path(1, "c2"))
	}
}

func TestNoValleyThroughPeerChain(t *testing.T) {
	// A peers B, B peers C. A-originated prefix must NOT reach C via B
	// (peer routes are not exported to peers).
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPeer(t, topo, 1, 2)
	mustPeer(t, topo, 2, 3)
	_ = topo.Originate(1, "a")
	rt := converge(t, topo, 1)
	if rt.Reachable(3, "a") {
		t.Errorf("valley path leaked: %v", rt.Path(3, "a"))
	}
	if !rt.Reachable(2, "a") {
		t.Error("direct peer should reach prefix")
	}
}

func TestNoTransitThroughCustomerValley(t *testing.T) {
	// Two providers 1 and 2 share customer 3. A prefix at 1 must not reach 2
	// through the shared customer (customer does not export provider routes
	// to its other provider).
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 3)
	mustPC(t, topo, 2, 3)
	_ = topo.Originate(1, "p1")
	rt := converge(t, topo, 1)
	if rt.Reachable(2, "p1") {
		t.Errorf("valley through customer leaked: %v", rt.Path(2, "p1"))
	}
	if !rt.Reachable(3, "p1") {
		t.Error("customer should reach provider prefix")
	}
}

func TestPreferCustomerOverPeerEvenIfLonger(t *testing.T) {
	// AS 10 can reach prefix via a direct peer (short) or via a customer
	// chain (longer). Gao–Rexford prefers the customer route.
	topo := NewTopology()
	for _, n := range []ASN{10, 20, 30, 40} {
		mustAS(t, topo, n, ASInfo{})
	}
	// Customer chain: 10 → 30 → 40 (40 originates).
	mustPC(t, topo, 10, 30)
	mustPC(t, topo, 30, 40)
	// Peer shortcut: 10 peers 20, 20 is also a provider of 40... but then 20
	// learns from customer and exports to peer 10. Peer path: 10-20-40 (len 3)
	// vs customer path 10-30-40 (len 3). Make the customer path longer by
	// inserting 35: 10 → 30 → 35 → 40.
	topo2 := NewTopology()
	for _, n := range []ASN{10, 20, 30, 35, 40} {
		mustAS(t, topo2, n, ASInfo{})
	}
	mustPC(t, topo2, 10, 30)
	mustPC(t, topo2, 30, 35)
	mustPC(t, topo2, 35, 40)
	mustPC(t, topo2, 20, 40)
	mustPeer(t, topo2, 10, 20)
	_ = topo2.Originate(40, "x")
	rt := converge(t, topo2, 1)
	r := rt.Route(10, "x")
	if r.Learned != FromCustomer {
		t.Fatalf("learned = %v path = %v, want customer route", r.Learned, r.Path)
	}
	if !pathEq(r.Path, 10, 30, 35, 40) {
		t.Errorf("path = %v, want customer chain", r.Path)
	}
	_ = topo
}

func TestShorterPathTiebreakWithinSameClass(t *testing.T) {
	// Two provider routes to the same prefix; the shorter wins.
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3, 9} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 9) // direct provider 1
	mustPC(t, topo, 2, 9) // provider 2...
	mustPC(t, topo, 3, 2) // ...whose provider is 3
	mustPC(t, topo, 3, 1)
	_ = topo.Originate(3, "t")
	rt := converge(t, topo, 1)
	// 9 sees "t" via 1 (9-1-3) and via 2 (9-2-3): equal length; lexicographic
	// tiebreak gives via 1.
	if !pathEq(rt.Path(9, "t"), 9, 1, 3) {
		t.Errorf("path = %v, want [9 1 3]", rt.Path(9, "t"))
	}
}

func TestMOASAnycastPicksNearest(t *testing.T) {
	// Prefix originated by 5 and 6; AS 7 (customer of 5) picks 5.
	topo := NewTopology()
	for _, n := range []ASN{5, 6, 7, 1} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 5, 7)
	mustPC(t, topo, 1, 5)
	mustPC(t, topo, 1, 6)
	_ = topo.Originate(5, "any")
	_ = topo.Originate(6, "any")
	rt := converge(t, topo, 1)
	if !pathEq(rt.Path(7, "any"), 7, 5) {
		t.Errorf("anycast path = %v, want [7 5]", rt.Path(7, "any"))
	}
}

func TestRemovePeerSeversPath(t *testing.T) {
	topo := NewTopology()
	for _, n := range []ASN{1, 2} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPeer(t, topo, 1, 2)
	_ = topo.Originate(2, "p")
	rt := converge(t, topo, 1)
	if !rt.Reachable(1, "p") {
		t.Fatal("peer route missing")
	}
	topo.RemovePeer(1, 2)
	if topo.HasPeer(1, 2) {
		t.Error("peer not removed")
	}
	rt = converge(t, topo, 1)
	if rt.Reachable(1, "p") {
		t.Error("route survived peer removal")
	}
}

func TestUnreachableWithoutLinks(t *testing.T) {
	topo := NewTopology()
	mustAS(t, topo, 1, ASInfo{})
	mustAS(t, topo, 2, ASInfo{})
	_ = topo.Originate(2, "p")
	rt := converge(t, topo, 1)
	if rt.Reachable(1, "p") {
		t.Error("isolated AS should not reach prefix")
	}
	if rt.Path(1, "p") != nil {
		t.Error("path of unreachable should be nil")
	}
}

func TestInfoAndOrigins(t *testing.T) {
	topo := NewTopology()
	mustAS(t, topo, 64500, ASInfo{Name: "Telmex", Country: "MX", Org: "telmex"})
	info, ok := topo.Info(64500)
	if !ok || info.Country != "MX" || info.Org != "telmex" {
		t.Errorf("info = %+v ok=%v", info, ok)
	}
	if _, ok := topo.Info(1); ok {
		t.Error("unknown AS reported present")
	}
	_ = topo.Originate(64500, "a")
	_ = topo.Originate(64500, "b")
	if got := topo.Origins(64500); len(got) != 2 {
		t.Errorf("origins = %v", got)
	}
}

func TestValleyFreeChecker(t *testing.T) {
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3, 4} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 3)
	mustPC(t, topo, 2, 4)
	mustPeer(t, topo, 1, 2)
	// 3 → 1 → 2 → 4: up, peer, down = valley-free.
	if !topo.ValleyFree([]ASN{3, 1, 2, 4}) {
		t.Error("up-peer-down rejected")
	}
	// 1 → 3 ... 3 has no edge to 4: not adjacent.
	if topo.ValleyFree([]ASN{1, 3, 4}) {
		t.Error("non-adjacent path accepted")
	}
	// down then up (valley): 1 → 3 requires 3 → ... back up; build 1→3 then 3→1 invalid (loop) — instead test down-then-peer.
	if topo.ValleyFree([]ASN{4, 2, 1, 3, 1}) {
		t.Error("garbage path accepted")
	}
}

// buildRandomHierarchy wraps the exported generator for the property tests.
func buildRandomHierarchy(r *rng.Rand, nMid, nStub int) (*Topology, []ASN) {
	h, err := BuildHierarchyOpts(r, HierarchyOpts{NMid: nMid, NStub: nStub})
	if err != nil {
		panic(err)
	}
	return h.Topo, h.Stubs
}

func TestPropertyConvergedPathsAreValleyFree(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := rng.New(seed)
		topo, stubs := buildRandomHierarchy(r, 6, 12)
		for i, s := range stubs {
			_ = topo.Originate(s, prefixName(i))
		}
		rt := converge(t, topo, 1)
		for _, n := range topo.ASNs() {
			for _, p := range rt.Prefixes(n) {
				path := rt.Path(n, p)
				if len(path) == 0 {
					continue
				}
				// Traffic flows from n toward the origin; check valley-free
				// in forwarding direction.
				if !topo.ValleyFree(path) {
					t.Fatalf("seed %d: non-valley-free path %v for %s at %d", seed, path, p, n)
				}
				// No loops.
				seen := make(map[ASN]bool)
				for _, hop := range path {
					if seen[hop] {
						t.Fatalf("loop in path %v", path)
					}
					seen[hop] = true
				}
			}
		}
	}
}

func TestPropertyFullReachabilityInHierarchy(t *testing.T) {
	// In a connected hierarchy every stub prefix is reachable from every AS:
	// stubs announce upward to tier1, tier1 peers exchange customer routes,
	// and routes flow down.
	r := rng.New(99)
	topo, stubs := buildRandomHierarchy(r, 5, 10)
	for i, s := range stubs {
		_ = topo.Originate(s, prefixName(i))
	}
	rt := converge(t, topo, 1)
	for _, n := range topo.ASNs() {
		for i := range stubs {
			if !rt.Reachable(n, prefixName(i)) {
				t.Errorf("AS %d cannot reach %s", n, prefixName(i))
			}
		}
	}
}

func prefixName(i int) string { return "10." + string(rune('a'+i%26)) + ".0.0/16" }

func TestConvergeDeterministic(t *testing.T) {
	build := func() *RoutingTables {
		r := rng.New(7)
		topo, stubs := buildRandomHierarchy(r, 6, 12)
		for i, s := range stubs {
			_ = topo.Originate(s, prefixName(i))
		}
		return converge(t, topo, 1)
	}
	a, b := build(), build()
	r := rng.New(7)
	topo, _ := buildRandomHierarchy(r, 6, 12)
	for _, n := range topo.ASNs() {
		for _, p := range a.Prefixes(n) {
			pa, pb := a.Path(n, p), b.Path(n, p)
			if !pathEq(pa, pb...) {
				t.Fatalf("nondeterministic path at %d for %s: %v vs %v", n, p, pa, pb)
			}
		}
	}
}

func TestRelationshipString(t *testing.T) {
	if FromCustomer.String() != "customer" || Origin.String() != "origin" {
		t.Error("relationship strings wrong")
	}
	if Relationship(42).String() == "" {
		t.Error("unknown relationship should still format")
	}
}

func BenchmarkConvergeHierarchy(b *testing.B) {
	r := rng.New(1)
	topo, stubs := buildRandomHierarchy(r, 20, 80)
	for i, s := range stubs {
		_ = topo.Originate(s, prefixName(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topo.ConvergeCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConvergeTerminatesOnProviderCycle(t *testing.T) {
	// A provider cycle (1 provides 2 provides 3 provides 1) violates the
	// Gao–Rexford acyclicity assumption; the round cap must still
	// terminate and produce loop-free paths.
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 2)
	mustPC(t, topo, 2, 3)
	mustPC(t, topo, 3, 1)
	_ = topo.Originate(1, "p")
	done := make(chan *RoutingTables, 1)
	go func() {
		rt, err := topo.ConvergeCtx(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
		done <- rt
	}()
	select {
	case rt := <-done:
		if rt == nil {
			return
		}
		for _, n := range topo.ASNs() {
			path := rt.Path(n, "p")
			seen := make(map[ASN]bool)
			for _, hop := range path {
				if seen[hop] {
					t.Fatalf("loop in path %v", path)
				}
				seen[hop] = true
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ConvergeCtx did not terminate on a provider cycle")
	}
}

func TestConvergeEmptyTopology(t *testing.T) {
	rt := converge(t, NewTopology(), 1)
	if rt == nil {
		t.Fatal("nil tables for empty topology")
	}
}

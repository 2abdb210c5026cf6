package bgpsim

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/rng"
)

// equivalenceWorkers are the worker counts every engine equivalence test
// pins against the reference implementation. 0 means GOMAXPROCS inside
// ConvergeCtx; the explicit GOMAXPROCS entry keeps the intent visible
// even if the normalization changes.
func equivalenceWorkers() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// topoPrefixes returns the sorted universe of prefixes originated anywhere
// in the topology.
func topoPrefixes(t *Topology) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range t.ASNs() {
		for _, p := range t.Origins(n) {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// assertEngineMatchesReference converges topo with the compiled engine at
// several worker counts and requires the result to be bitwise-identical to
// the reference loop: same reachability, same learned relationship, same
// path, for every AS and every prefix, plus identical per-AS prefix lists.
func assertEngineMatchesReference(t *testing.T, label string, topo *Topology) {
	t.Helper()
	ref := topo.convergeReference()
	prefixes := topoPrefixes(topo)
	for _, w := range equivalenceWorkers() {
		rt := converge(t, topo, w)
		for _, n := range topo.ASNs() {
			refTbl := ref[n]
			var wantPrefixes []string
			for _, p := range prefixes {
				want := refTbl[p]
				got := rt.Route(n, p)
				if (want == nil) != (got == nil) {
					t.Fatalf("%s workers=%d: AS %d prefix %s: reference route %v, engine route %v", label, w, n, p, want, got)
				}
				if rt.Reachable(n, p) != (want != nil) {
					t.Fatalf("%s workers=%d: AS %d prefix %s: Reachable disagrees with reference", label, w, n, p)
				}
				if want == nil {
					if rt.Path(n, p) != nil {
						t.Fatalf("%s workers=%d: AS %d prefix %s: Path non-nil for unreachable", label, w, n, p)
					}
					continue
				}
				wantPrefixes = append(wantPrefixes, p)
				if got.Learned != want.Learned {
					t.Fatalf("%s workers=%d: AS %d prefix %s: learned %v, want %v", label, w, n, p, got.Learned, want.Learned)
				}
				if got.Prefix != p {
					t.Fatalf("%s workers=%d: AS %d prefix %s: route prefix %q", label, w, n, p, got.Prefix)
				}
				if !pathEq(got.Path, want.Path...) {
					t.Fatalf("%s workers=%d: AS %d prefix %s: path %v, want %v", label, w, n, p, got.Path, want.Path)
				}
				if !pathEq(rt.Path(n, p), want.Path...) {
					t.Fatalf("%s workers=%d: AS %d prefix %s: Path() %v, want %v", label, w, n, p, rt.Path(n, p), want.Path)
				}
			}
			gotPrefixes := rt.Prefixes(n)
			if len(gotPrefixes) != len(wantPrefixes) {
				t.Fatalf("%s workers=%d: AS %d: prefixes %v, want %v", label, w, n, gotPrefixes, wantPrefixes)
			}
			for i := range gotPrefixes {
				if gotPrefixes[i] != wantPrefixes[i] {
					t.Fatalf("%s workers=%d: AS %d: prefixes %v, want %v", label, w, n, gotPrefixes, wantPrefixes)
				}
			}
		}
	}
}

func TestEngineMatchesReferenceOnHierarchies(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		h, err := BuildHierarchyOpts(r, HierarchyOpts{NMid: 6, NStub: 12})
		if err != nil {
			t.Fatal(err)
		}
		// Routes learned downhill too: originate from a tier-1 and a mid.
		_ = h.Topo.Originate(h.Tier1[0], "pfx-tier1")
		_ = h.Topo.Originate(h.Mids[len(h.Mids)/2], "pfx-mid")
		assertEngineMatchesReference(t, fmt.Sprintf("hierarchy-%d", seed), h.Topo)
	}
}

// circumventionTopology hand-builds the E1 interconnection scene at the
// bgpsim layer (the ixp package cannot be imported from here): an
// international transit AS, the incumbent, its empty shell ASNs, and
// competitor ISPs meshed at a domestic IXP via peering sessions.
func circumventionTopology(t *testing.T, shells int) *Topology {
	t.Helper()
	topo := NewTopology()
	mustAS(t, topo, 1, ASInfo{Name: "IntlTransit", Country: "US"})
	mustAS(t, topo, 100, ASInfo{Name: "Incumbent", Country: "MX", Org: "incumbent"})
	mustPC(t, topo, 1, 100)
	if err := topo.Originate(100, "pfx-incumbent"); err != nil {
		t.Fatal(err)
	}
	var members []ASN
	for i := 0; i < 6; i++ {
		n := ASN(1000 + i)
		mustAS(t, topo, n, ASInfo{Name: fmt.Sprintf("Comp%d", i), Country: "MX"})
		mustPC(t, topo, 1, n)
		if err := topo.Originate(n, fmt.Sprintf("pfx-comp%d", i)); err != nil {
			t.Fatal(err)
		}
		members = append(members, n)
	}
	for s := 0; s < shells; s++ {
		n := ASN(200 + s)
		mustAS(t, topo, n, ASInfo{Name: fmt.Sprintf("Shell%d", s), Org: "incumbent"})
		mustPC(t, topo, 100, n)
		if err := topo.Originate(n, fmt.Sprintf("pfx-shell%d", s)); err != nil {
			t.Fatal(err)
		}
		members = append(members, n)
	}
	// The IXP session mesh: every member pair peers.
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			mustPeer(t, topo, members[i], members[j])
		}
	}
	return topo
}

func TestEngineMatchesReferenceOnCircumvention(t *testing.T) {
	for _, shells := range []int{0, 1, 3} {
		assertEngineMatchesReference(t, fmt.Sprintf("circumvention-%d", shells), circumventionTopology(t, shells))
	}
}

func TestEngineMatchesReferenceOnLeaks(t *testing.T) {
	topo := leakScenario(t)
	topo.MarkLeaker(30)
	assertEngineMatchesReference(t, "leak-scenario", topo)

	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		h, err := BuildHierarchyOpts(r, HierarchyOpts{NMid: 6, NStub: 12})
		if err != nil {
			t.Fatal(err)
		}
		leaker := h.Mids[int(seed)%len(h.Mids)]
		h.Topo.MarkLeaker(leaker)
		assertEngineMatchesReference(t, fmt.Sprintf("leak-hierarchy-%d", seed), h.Topo)
	}
}

func TestEngineMatchesReferenceOnHijack(t *testing.T) {
	r := rng.New(11)
	h, err := BuildHierarchyOpts(r, HierarchyOpts{NMid: 6, NStub: 12})
	if err != nil {
		t.Fatal(err)
	}
	victim, attacker := h.Stubs[0], h.Stubs[len(h.Stubs)-1]
	if err := h.Topo.Originate(attacker, fmt.Sprintf("pfx-%d", victim)); err != nil {
		t.Fatal(err)
	}
	assertEngineMatchesReference(t, "hijack", h.Topo)
}

func TestEngineMatchesReferenceOnDegenerateTopologies(t *testing.T) {
	empty := NewTopology()
	assertEngineMatchesReference(t, "empty", empty)

	single := NewTopology()
	mustAS(t, single, 7, ASInfo{})
	if err := single.Originate(7, "p"); err != nil {
		t.Fatal(err)
	}
	// Duplicate origination of the same prefix must be harmless.
	if err := single.Originate(7, "p"); err != nil {
		t.Fatal(err)
	}
	assertEngineMatchesReference(t, "single", single)

	isolated := NewTopology()
	for _, n := range []ASN{1, 2, 3} {
		mustAS(t, isolated, n, ASInfo{})
	}
	_ = isolated.Originate(3, "far")
	assertEngineMatchesReference(t, "isolated", isolated)

	// A provider cycle violates Gao–Rexford acyclicity; both engines must
	// stop at the same round cap with the same tables.
	cycle := NewTopology()
	for _, n := range []ASN{1, 2, 3} {
		mustAS(t, cycle, n, ASInfo{})
	}
	mustPC(t, cycle, 1, 2)
	mustPC(t, cycle, 2, 3)
	mustPC(t, cycle, 3, 1)
	_ = cycle.Originate(1, "p")
	assertEngineMatchesReference(t, "provider-cycle", cycle)

	// Equal-length MOAS tie decided by the lexicographic path tiebreak.
	moas := NewTopology()
	for _, n := range []ASN{1, 5, 6} {
		mustAS(t, moas, n, ASInfo{})
	}
	mustPC(t, moas, 1, 5)
	mustPC(t, moas, 1, 6)
	_ = moas.Originate(5, "any")
	_ = moas.Originate(6, "any")
	assertEngineMatchesReference(t, "moas-tie", moas)
}

func TestConvergeWorkersDeterministicAcrossRuns(t *testing.T) {
	build := func() *Topology {
		h, err := BuildHierarchyOpts(rng.New(21), HierarchyOpts{NMid: 8, NStub: 16})
		if err != nil {
			t.Fatal(err)
		}
		return h.Topo
	}
	topo := build()
	a := converge(t, topo, 4)
	b := converge(t, topo, 4)
	c := converge(t, topo, 1)
	for _, n := range topo.ASNs() {
		for _, p := range a.Prefixes(n) {
			pa, pb, pc := a.Path(n, p), b.Path(n, p), c.Path(n, p)
			if !pathEq(pa, pb...) || !pathEq(pa, pc...) {
				t.Fatalf("nondeterministic path at %d for %s: %v / %v / %v", n, p, pa, pb, pc)
			}
		}
	}
}

// TestConvergeWorkersParallelHierarchy exercises the parallel per-prefix
// fan-out on a larger topology; under -race this is the engine's data-race
// regression test.
func TestConvergeWorkersParallelHierarchy(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(33), HierarchyOpts{NMid: 12, NStub: 40})
	if err != nil {
		t.Fatal(err)
	}
	rt := converge(t, h.Topo, 8)
	for _, s := range h.Stubs {
		prefix := fmt.Sprintf("pfx-%d", s)
		for _, n := range h.Topo.ASNs() {
			if !rt.Reachable(n, prefix) {
				t.Fatalf("AS %d cannot reach %s", n, prefix)
			}
		}
	}
}

func TestRouteReturnsCopy(t *testing.T) {
	topo := NewTopology()
	for _, n := range []ASN{1, 2} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 2)
	if err := topo.Originate(2, "p"); err != nil {
		t.Fatal(err)
	}
	rt := converge(t, topo, 1)
	r := rt.Route(1, "p")
	if r == nil || !pathEq(r.Path, 1, 2) {
		t.Fatalf("route = %+v", r)
	}
	// Mutating the returned route must not corrupt the engine tables.
	r.Path[0] = 999
	r.Learned = FromPeer
	r.Prefix = "mutated"
	if got := rt.Route(1, "p"); !pathEq(got.Path, 1, 2) || got.Learned != FromCustomer {
		t.Errorf("table mutated through returned route: %+v", got)
	}
	if !pathEq(rt.Path(1, "p"), 1, 2) {
		t.Errorf("Path mutated through returned route: %v", rt.Path(1, "p"))
	}
	// Path must also hand out fresh slices every call.
	p1 := rt.Path(1, "p")
	p1[0] = 777
	if !pathEq(rt.Path(1, "p"), 1, 2) {
		t.Error("Path aliases internal state")
	}
}

func TestValleyFreeEdgeCases(t *testing.T) {
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3, 4, 5} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 2)   // 1 provider of 2
	mustPC(t, topo, 3, 2)   // 3 provider of 2 (second provider)
	mustPeer(t, topo, 2, 4) // 2 peers 4
	mustPeer(t, topo, 1, 5) // 1 peers 5

	// Peer edge after the downhill segment has started: 1→2 is down
	// (provider to customer), then 2→4 is lateral — a valley.
	if topo.ValleyFree([]ASN{1, 2, 4}) {
		t.Error("peer edge after downhill accepted")
	}
	// Uphill after downhill: 1→2 down, then 2→3 back up — a valley.
	if topo.ValleyFree([]ASN{1, 2, 3}) {
		t.Error("uphill after downhill accepted")
	}
	// Uphill after a peer edge: 4→2 lateral, then 2→1 up — the peer edge
	// must be the apex, so this is rejected.
	if topo.ValleyFree([]ASN{4, 2, 1, 5}) {
		t.Error("uphill after peer edge accepted")
	}
	// Non-adjacent hops.
	if topo.ValleyFree([]ASN{1, 4}) {
		t.Error("non-adjacent hops accepted")
	}
	// Unknown AS on the path.
	if topo.ValleyFree([]ASN{99, 1}) {
		t.Error("unknown AS accepted")
	}
	// Single-node and empty paths are trivially valley-free.
	if !topo.ValleyFree([]ASN{3}) || !topo.ValleyFree(nil) {
		t.Error("trivial paths rejected")
	}
	// Up then peer then down — the canonical valid shape — still accepted.
	mustPC(t, topo, 5, 4)
	if !topo.ValleyFree([]ASN{2, 1, 5, 4}) {
		t.Error("up-peer-down rejected")
	}
}

func TestWithdrawOriginReconverges(t *testing.T) {
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 2)
	mustPC(t, topo, 1, 3)
	_ = topo.Originate(2, "p")
	_ = topo.Originate(3, "p") // MOAS
	rt := converge(t, topo, 1)
	if !pathEq(rt.Path(1, "p"), 1, 2) {
		t.Fatalf("pre-withdraw path = %v", rt.Path(1, "p"))
	}
	// Withdraw the preferred origin: routes must shift to the survivor.
	topo.WithdrawOrigin(2, "p")
	rt = converge(t, topo, 1)
	if !pathEq(rt.Path(1, "p"), 1, 3) {
		t.Errorf("post-withdraw path = %v, want via 3", rt.Path(1, "p"))
	}
	if rt.Reachable(2, "p") != true { // 2 still reaches it via provider 1
		t.Error("2 lost reachability via provider")
	}
	// Withdraw the last origin: the prefix disappears everywhere.
	topo.WithdrawOrigin(3, "p")
	rt = converge(t, topo, 1)
	for _, n := range topo.ASNs() {
		if rt.Reachable(n, "p") {
			t.Errorf("AS %d still reaches withdrawn prefix", n)
		}
	}
	assertEngineMatchesReference(t, "post-withdraw", topo)
}

func TestLeakerFlagReconverges(t *testing.T) {
	build := func() *Topology { return leakScenario(t) }
	clean := converge(t, build(), 1)

	topo := build()
	topo.MarkLeaker(30)
	leaked := converge(t, topo, 1)
	if pathEq(leaked.Path(20, "victim"), clean.Path(20, "victim")...) {
		t.Fatal("leak did not change routing")
	}
	// Clearing the flag and reconverging must restore the exact baseline.
	topo.ClearLeaker(30)
	restored := converge(t, topo, 1)
	for _, n := range topo.ASNs() {
		for _, p := range clean.Prefixes(n) {
			if !pathEq(restored.Path(n, p), clean.Path(n, p)...) {
				t.Errorf("AS %d prefix %s: %v after clear, want %v", n, p, restored.Path(n, p), clean.Path(n, p))
			}
		}
	}
	// Mark → clear → mark again behaves like a fresh leak.
	topo.MarkLeaker(30)
	again := converge(t, topo, 1)
	for _, n := range topo.ASNs() {
		for _, p := range leaked.Prefixes(n) {
			if !pathEq(again.Path(n, p), leaked.Path(n, p)...) {
				t.Errorf("AS %d prefix %s: re-marked leak diverged", n, p)
			}
		}
	}
	assertEngineMatchesReference(t, "re-marked-leak", topo)
}

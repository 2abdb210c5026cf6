package bgpsim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rng"
)

// Tests that guard the leaf rule of cold convergence: the rounds run over
// the transit core only, and settleLeaves gives every leaf (no customers,
// not a leaker) its selection over the final column without a loop check.

// TestConvergeLeavesOffTransitPaths: over the fingerprint shapes, no
// selected path holds a leaf anywhere but at its own head, except a leaf
// that originates the prefix, which may end the path. That is the invariant
// that lets settleLeaves skip the loop check and the rounds skip leaves.
func TestConvergeLeavesOffTransitPaths(t *testing.T) {
	for _, s := range routesFingerprintShapes {
		if s.long && testing.Short() {
			continue
		}
		for seed := uint64(1); seed <= s.seeds; seed++ {
			hier, err := BuildHierarchyOpts(rng.New(seed), s.o)
			if err != nil {
				t.Fatal(err)
			}
			if s.twist {
				twistHierarchy(t, hier)
			}
			e, err := hier.Topo.compile()
			if err != nil {
				t.Fatal(err)
			}
			rt, err := hier.Topo.ConvergeCtx(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := leavesOffPaths(e, rt); err != nil {
				t.Fatalf("%s/%d: %v", s.name, seed, err)
			}
		}
	}
}

// leavesOffPaths walks every selected path of rt, whose AS and prefix order
// is e's.
func leavesOffPaths(e *engine, rt *RoutingTables) error {
	nAS := len(e.rt.asns)
	for p := range e.rt.prefixes {
		nodes := rt.slabs[p]
		for i, en := range rt.entries[p*nAS : (p+1)*nAS] {
			if en.head == nilRef {
				continue
			}
			for r := nodes[en.head].next; r != nilRef; r = nodes[r].next {
				as := nodes[r].as
				if e.leaf[as] && (nodes[r].next != nilRef || !e.originates(p, as)) {
					return fmt.Errorf("prefix %s: the path of AS %d passes leaf %d",
						e.rt.prefixes[p], e.rt.asns[i], e.rt.asns[as])
				}
			}
		}
	}
	return nil
}

// applyMatchesCold applies d to c and requires the live tables and the
// patched engine, leaf marks included, to equal a fresh cold convergence
// and compile of the mutated topology.
func applyMatchesCold(t *testing.T, c *Converged, d Delta) *Patch {
	t.Helper()
	p, err := c.Apply(d)
	if err != nil {
		t.Fatalf("Apply(%+v): %v", d, err)
	}
	label := fmt.Sprintf("after %s %d %d", d.Kind, d.A, d.B)
	assertTablesMatchCold(t, label, c)
	if err := engineEquivalent(c.e, c.Topology()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return p
}

// revertAll reverts the patches LIFO and requires the exact starting cells
// and a compiled engine equal to a fresh compile.
func revertAll(t *testing.T, c *Converged, base []entry, patches ...*Patch) {
	t.Helper()
	for k := len(patches) - 1; k >= 0; k-- {
		c.Revert(patches[k])
	}
	assertEntriesRestored(t, "revert", c.Tables(), base)
	if err := engineEquivalent(c.e, c.Topology()); err != nil {
		t.Fatalf("after revert: %v", err)
	}
}

func TestIncrementalStubGainsAndLosesCustomer(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(23), HierarchyOpts{NMid: 8, NStub: 24})
	if err != nil {
		t.Fatal(err)
	}
	c := convergeState(t, h.Topo, 1)
	base := snapshotEntries(c.Tables())
	stub, cust := h.Stubs[2], h.Stubs[9]
	if !c.e.leaf[c.e.rt.asIdx[stub]] {
		t.Fatalf("stub %d is not a leaf", stub)
	}
	up := applyMatchesCold(t, c, Delta{Kind: DeltaLinkUp, A: stub, B: cust})
	if c.e.leaf[c.e.rt.asIdx[stub]] {
		t.Fatalf("stub %d with a customer is still a leaf", stub)
	}
	down := applyMatchesCold(t, c, Delta{Kind: DeltaLinkDown, A: stub, B: cust})
	if !c.e.leaf[c.e.rt.asIdx[stub]] {
		t.Fatalf("stub %d that lost its customer is not a leaf", stub)
	}
	revertAll(t, c, base, up, down)
}

func TestIncrementalStubLeakToggle(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(29), HierarchyOpts{NMid: 8, NStub: 24})
	if err != nil {
		t.Fatal(err)
	}
	c := convergeState(t, h.Topo, 1)
	base := snapshotEntries(c.Tables())
	stub := h.Stubs[5]
	// A leaking stub exports everything to every neighbor, so it must leave
	// the leaf set.
	on := applyMatchesCold(t, c, Delta{Kind: DeltaLeakToggle, A: stub})
	if c.e.leaf[c.e.rt.asIdx[stub]] {
		t.Fatalf("leaking stub %d is still a leaf", stub)
	}
	off := applyMatchesCold(t, c, Delta{Kind: DeltaLeakToggle, A: stub})
	if !c.e.leaf[c.e.rt.asIdx[stub]] {
		t.Fatalf("stub %d is not a leaf after its leak ends", stub)
	}
	revertAll(t, c, base, on, off)
}

// leafPeeringTopology is a tier-1 above two mids, each with a stub; the
// stubs 5 and 6 peer when peered is set, and 6 originates p.
func leafPeeringTopology(t *testing.T, peered bool) *Topology {
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3, 5, 6} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 2)
	mustPC(t, topo, 1, 3)
	mustPC(t, topo, 2, 5)
	mustPC(t, topo, 3, 6)
	if peered {
		mustPeer(t, topo, 5, 6)
	}
	if err := topo.Originate(6, "p"); err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestLeafPeersWithOriginLeaf: a leaf that originates the prefix exports it
// to its peer leaf, which then prefers the peer route; cold convergence,
// Apply and Revert of the peering all agree with the reference.
func TestLeafPeersWithOriginLeaf(t *testing.T) {
	assertEngineMatchesReference(t, "peered leaves", leafPeeringTopology(t, true))
	rt := converge(t, leafPeeringTopology(t, true), 1)
	if r := rt.Route(5, "p"); r == nil || r.Learned != FromPeer || len(r.Path) != 2 {
		t.Fatalf("AS 5 route to p = %+v, want the peer route 5 6", r)
	}

	c := convergeState(t, leafPeeringTopology(t, false), 1)
	base := snapshotEntries(c.Tables())
	for _, n := range []ASN{5, 6} {
		if !c.e.leaf[c.e.rt.asIdx[n]] {
			t.Fatalf("stub %d is not a leaf", n)
		}
	}
	up := applyMatchesCold(t, c, Delta{Kind: DeltaLinkUp, A: 5, B: 6, Peer: true})
	revertAll(t, c, base, up)
}

// TestDisagreeGadgetLeavesTrailTheCap: leaves hung off the DISAGREE gadget
// read the core's column of the round before the cap, as the reference's
// leaves do, so the capped tables still match it cell for cell.
func TestDisagreeGadgetLeavesTrailTheCap(t *testing.T) {
	topo := disagreeGadget(t)
	mustAS(t, topo, 4, ASInfo{})
	mustAS(t, topo, 5, ASInfo{})
	mustPC(t, topo, 1, 4)
	mustPC(t, topo, 2, 5)
	mustPeer(t, topo, 4, 2)
	if !roundCapped(t, topo) {
		t.Fatal("the gadget with leaves converged; it must run into the round cap")
	}
	assertEngineMatchesReference(t, "disagree with leaves", topo)
}

package bgpsim

import (
	"context"
	"fmt"
	"reflect"
	"slices"
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
			if en == 0 {
				continue
			}
			for r := tail(nodes, en); r != nilRef; r = nodes[r].next {
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

// bareCellsSound checks the bare-cell rule over e's tables: every bare cell
// (en < 0) belongs to a current leaf, is not an origin entry, refers into
// its column's slab, and is visible to no neighbor, so no chain can ever
// need the node the cell does not have.
func bareCellsSound(e *engine) error {
	nAS := len(e.rt.asns)
	for p := range e.rt.prefixes {
		for i, en := range e.rt.entries[p*nAS : (p+1)*nAS] {
			if en >= 0 {
				continue
			}
			at := fmt.Sprintf("prefix %s, AS %d", e.rt.prefixes[p], e.rt.asns[i])
			switch {
			case !e.leaf[i]:
				return fmt.Errorf("%s: bare cell of a non-leaf", at)
			case en.learned() == Origin || e.originates(p, int32(i)):
				return fmt.Errorf("%s: bare origin cell", at)
			case int(-en>>2) >= len(e.rt.slabs[p]):
				return fmt.Errorf("%s: bare tail %d beyond the slab's %d nodes", at, -en>>2, len(e.rt.slabs[p]))
			}
			for _, ed := range e.nbr[i] {
				if visible(en, ed.sendAll) {
					return fmt.Errorf("%s: bare cell visible to AS %d", at, e.rt.asns[ed.idx])
				}
			}
		}
	}
	return nil
}

// bareCellsOf counts AS i's bare cells over every column of c.
func bareCellsOf(c *Converged, i int32) int {
	rt := c.Tables()
	n := 0
	for p := range rt.prefixes {
		if rt.entries[p*len(rt.asns)+int(i)] < 0 {
			n++
		}
	}
	return n
}

// clotheAll clothes every bare cell of c.
func clotheAll(c *Converged) {
	rt := c.Tables()
	nAS := len(rt.asns)
	for p := range rt.prefixes {
		col := rt.entries[p*nAS : (p+1)*nAS]
		var log []undoCell
		for i := range col {
			clothe(col, &rt.slabs[p], int32(i), &log)
		}
	}
}

// TestClotheKeepsRoutes clothes every bare cell of a state whose leaves
// hold provider- and peer-learned routes: every route reads as before and
// every clothed cell keeps its learned bits (cellsPacked, which
// assertTablesMatchCold runs). (Apply re-selects the AS it
// clothes as a seed of the same delta, so a clothing fault would be
// overwritten before the property suites could see it.)
func TestClotheKeepsRoutes(t *testing.T) {
	c := convergeState(t, leafPeeringTopology(t, true), 1)
	rt := c.Tables()
	if en := rt.entries[int(rt.pfxIdx["p"])*len(rt.asns)+int(rt.asIdx[5])]; en >= 0 || en.learned() != FromPeer {
		t.Fatalf("AS 5's cell for p = %d, want a bare peer-learned cell", en)
	}
	clotheAll(c)
	for _, n := range []ASN{5, 6} {
		if bare := bareCellsOf(c, rt.asIdx[n]); bare != 0 {
			t.Fatalf("AS %d keeps %d bare cells", n, bare)
		}
	}
	assertTablesMatchCold(t, "clothed", c)
}

// slabLens returns the length of every column's slab of c.
func slabLens(c *Converged) []int {
	out := make([]int, len(c.Tables().slabs))
	for i, s := range c.Tables().slabs {
		out[i] = len(s)
	}
	return out
}

// TestStubGainsCustomerClothesItsCells: a stub that gains a customer stops
// being a leaf, so Apply clothes its bare cells before the rounds read
// them. The routes match a cold convergence, Patch.Cells counts no clothing
// write (it equals the count of the same delta on a state whose leaf cells
// were all clothed beforehand), and Revert restores the slab lengths and
// the state fingerprint. A stub leak toggle, stacked on top and on its own,
// reverts as exactly.
func TestStubGainsCustomerClothesItsCells(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(23), HierarchyOpts{NMid: 8, NStub: 24})
	if err != nil {
		t.Fatal(err)
	}
	stub, cust, leaker := h.Stubs[2], h.Stubs[9], h.Stubs[5]
	gain := Delta{Kind: DeltaLinkUp, A: stub, B: cust}

	// The oracle state: the same topology with every bare cell clothed, so
	// the same delta finds nothing to clothe.
	ref := convergeState(t, h.Topo.Clone(), 1)
	clotheAll(ref)
	refGain, err := ref.Apply(gain)
	if err != nil {
		t.Fatal(err)
	}

	c := convergeState(t, h.Topo, 1)
	baseLens, baseFP := slabLens(c), c.StateFingerprint()
	si := c.e.rt.asIdx[stub]
	bare := bareCellsOf(c, si)
	if bare == 0 {
		t.Fatalf("stub %d holds no bare cell to clothe", stub)
	}
	up := applyMatchesCold(t, c, gain)
	if !c.e.incrementalSafe() {
		t.Fatal("the stub's customer made the topology unsafe: Apply re-converged cold and clothed nothing")
	}
	clothed := 0
	for _, pt := range up.parts {
		for _, pc := range pt.cols {
			clothed += int(pc.clothed)
		}
	}
	if clothed != bare || bareCellsOf(c, si) != 0 {
		t.Fatalf("clothed %d of the stub's %d bare cells, %d left bare", clothed, bare, bareCellsOf(c, si))
	}
	if up.Cells() != refGain.Cells() {
		t.Fatalf("Patch.Cells() = %d, want %d as on the clothed state: clothing writes are counted", up.Cells(), refGain.Cells())
	}

	leak := applyMatchesCold(t, c, Delta{Kind: DeltaLeakToggle, A: leaker})
	c.Revert(leak)
	c.Revert(up)
	if got := slabLens(c); !reflect.DeepEqual(got, baseLens) {
		t.Fatalf("slab lengths %v after revert, want %v", got, baseLens)
	}
	if fp := c.StateFingerprint(); fp != baseFP {
		t.Fatalf("fingerprint %#x after revert, want %#x", fp, baseFP)
	}

	leak = applyMatchesCold(t, c, Delta{Kind: DeltaLeakToggle, A: stub})
	c.Revert(leak)
	if got, fp := slabLens(c), c.StateFingerprint(); !reflect.DeepEqual(got, baseLens) || fp != baseFP {
		t.Fatalf("stub leak toggle revert: slab lengths %v, fingerprint %#x; want %v, %#x", got, fp, baseLens, baseFP)
	}
}

// TestLeafFlipsKeepAdjacencySplit drives seeded Apply/Revert sequences that
// flip leaf status both ways: a stub's leak goes on and off, the stub gains
// its first customer and loses it again, a mid loses every customer (the
// last removal makes it a leaf), and the mid then leaks, which makes the
// topology unsafe, so Apply re-converges every column cold over the split
// it maintained. After every Apply and Revert the adjacency equals a fresh
// compile (checkAdjacency) and the tables a fresh ConvergeCtx; unwinding
// restores the exact cells.
func TestLeafFlipsKeepAdjacencySplit(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		h, err := BuildHierarchyOpts(r, HierarchyOpts{NMid: 8, NStub: 24})
		if err != nil {
			t.Fatal(err)
		}
		c := convergeState(t, h.Topo, 1)
		base := snapshotEntries(c.Tables())
		k := r.Intn(len(h.Stubs))
		stub, cust := h.Stubs[k], h.Stubs[(k+1+r.Intn(len(h.Stubs)-1))%len(h.Stubs)]
		var mid ASN
		var custs []ASN
		for off, m0 := 0, r.Intn(len(h.Mids)); len(custs) == 0 && off < len(h.Mids); off++ {
			mid = h.Mids[(m0+off)%len(h.Mids)]
			for nb, rel := range c.Topology().Neighbors(mid) {
				if rel == FromCustomer {
					custs = append(custs, nb)
				}
			}
		}
		if len(custs) == 0 {
			t.Fatalf("seed %d: no mid has a customer", seed)
		}
		slices.Sort(custs)

		type step struct {
			d    Delta
			as   ASN
			leaf bool // as's leaf status after d
		}
		steps := []step{
			{Delta{Kind: DeltaLeakToggle, A: stub}, stub, false},
			{Delta{Kind: DeltaLeakToggle, A: stub}, stub, true},
			{Delta{Kind: DeltaLinkUp, A: stub, B: cust}, stub, false},
			{Delta{Kind: DeltaLinkDown, A: stub, B: cust}, stub, true},
		}
		for i, n := range custs {
			steps = append(steps, step{Delta{Kind: DeltaLinkDown, A: mid, B: n}, mid, i == len(custs)-1})
		}
		steps = append(steps, step{Delta{Kind: DeltaLeakToggle, A: mid}, mid, false})

		check := func(label string, as ASN, leaf bool) {
			t.Helper()
			label = fmt.Sprintf("seed %d: %s", seed, label)
			if got := c.e.leaf[c.e.rt.asIdx[as]]; got != leaf {
				t.Fatalf("%s: AS %d leaf = %v, want %v", label, as, got, leaf)
			}
			if err := checkAdjacency(c.e, c.Topology()); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertTablesMatchCold(t, label, c)
		}
		patches := make([]*Patch, len(steps))
		before := make([]bool, len(steps))
		for i, s := range steps {
			before[i] = c.e.leaf[c.e.rt.asIdx[s.as]]
			if patches[i], err = c.Apply(s.d); err != nil {
				t.Fatalf("seed %d: Apply(%s): %v", seed, FormatDelta(s.d), err)
			}
			check("after "+FormatDelta(s.d), s.as, s.leaf)
		}
		if c.e.incrementalSafe() {
			t.Fatalf("seed %d: the leaking mid left the topology safe: no column went cold", seed)
		}
		for i := len(steps) - 1; i >= 0; i-- {
			c.Revert(patches[i])
			check("after reverting "+FormatDelta(steps[i].d), steps[i].as, before[i])
		}
		assertEntriesRestored(t, fmt.Sprintf("seed %d: unwind", seed), c.Tables(), base)
	}
}

package bgpsim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/proptest"
)

// Tests that guard the pruned rounds of convergePrefix: export-aware
// queueing (rule 1) and changed-neighbor updates of the incumbent (rule 2)
// must reach the reference fixpoint on any topology, not only on the
// valley-free hierarchies the other properties generate, and they read the
// mirrored edge fields (sendAll, back), which must never drift from the
// reverse edge.

// randomUnsafeTopology draws a small topology with arbitrary relationships:
// each pair of ASes is unlinked, a provider–customer pair in either
// direction, peers, customer and peer at once, or provider of each other.
// Some ASes leak, and one to three prefixes are originated at one or two
// ASes each. Provider cycles, which can oscillate until the round cap, are
// common.
func randomUnsafeTopology(g *proptest.G) (*Topology, error) {
	t := NewTopology()
	n := g.IntRange(2, 9)
	asns := make([]ASN, n)
	for i := range asns {
		asns[i] = ASN(1 + 3*i + g.Intn(3))
		if err := t.AddAS(asns[i], ASInfo{}); err != nil {
			return nil, err
		}
	}
	link := func(kind int, a, b ASN) error {
		switch kind {
		case 1:
			return t.AddProviderCustomer(a, b)
		case 2:
			return t.AddProviderCustomer(b, a)
		case 3:
			return t.AddPeer(a, b)
		case 4:
			if err := t.AddProviderCustomer(a, b); err != nil {
				return err
			}
			return t.AddPeer(a, b)
		case 5:
			if err := t.AddProviderCustomer(a, b); err != nil {
				return err
			}
			return t.AddProviderCustomer(b, a)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			kind := 0
			if g.Bool(0.5) {
				kind = g.IntRange(1, 5)
			}
			if err := link(kind, asns[i], asns[j]); err != nil {
				return nil, err
			}
		}
	}
	for _, a := range asns {
		if g.Bool(0.2) {
			t.MarkLeaker(a)
		}
	}
	for p := g.IntRange(1, 3); p > 0; p-- {
		for k := g.IntRange(1, 2); k > 0; k-- {
			a := asns[g.Intn(n)]
			pfx := fmt.Sprintf("p%d", p)
			if !t.hasOrigin(a, pfx) {
				if err := t.Originate(a, pfx); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// roundCapped reports whether the transit core of some prefix column of
// topo is still changing when cold convergence stops at the round cap.
// Leaves are settled once after the rounds, so they never count.
func roundCapped(tb testing.TB, topo *Topology) bool {
	tb.Helper()
	e, err := topo.compile()
	if err != nil {
		tb.Fatal(err)
	}
	st := newConvState(len(e.rt.asns))
	for p := range e.rt.prefixes {
		col := make([]entry, len(e.rt.asns))
		slab := []pathNode{{}}
		e.convergePrefix(p, col, &slab, st)
		if len(st.changed) > 0 {
			return true
		}
	}
	return false
}

// disagreeGadget is a provider cycle that never converges: 1 and 2 are each
// other's provider and both customers of origin 3. Each prefers the
// customer route through the other, so in synchronous rounds both switch,
// both lose the route to loop prevention, and both switch back, until the
// round cap stops them.
func disagreeGadget(t *testing.T) *Topology {
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 2)
	mustPC(t, topo, 2, 1)
	mustPC(t, topo, 3, 1)
	mustPC(t, topo, 3, 2)
	if err := topo.Originate(3, "p"); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestDisagreeGadgetHitsRoundCap(t *testing.T) {
	topo := disagreeGadget(t)
	if !roundCapped(t, topo) {
		t.Fatal("the DISAGREE gadget converged; it must run into the round cap")
	}
	assertEngineMatchesReference(t, "disagree", topo)
}

// TestPropConvergeMatchesReferenceUnsafe: on arbitrary relationships,
// leakers and provider cycles, the pruned rounds match the reference loop
// cell for cell, round cap included, at 1 and 4 workers. At least one drawn
// topology must hit the round cap, so the capped case is exercised too.
func TestPropConvergeMatchesReferenceUnsafe(t *testing.T) {
	capped := 0
	proptest.Run(t, 312, 200, func(g *proptest.G) error {
		topo, err := randomUnsafeTopology(g)
		if err != nil {
			return fmt.Errorf("building topology: %w", err)
		}
		ref := topo.convergeReference()
		for _, w := range []int{1, 4} {
			rt, err := topo.ConvergeCtx(context.Background(), w)
			if err != nil {
				return err
			}
			if err := tablesMatchReference(topo, rt, ref, topoPrefixes(topo)); err != nil {
				return fmt.Errorf("workers=%d on\n%s: %w", w, FormatTopology(topo), err)
			}
		}
		if roundCapped(t, topo) {
			capped++
		}
		return nil
	})
	if capped == 0 {
		t.Error("no drawn topology hit the round cap")
	}
}

// mirrorsConsistent checks that every edge's sendAll and back equal the
// reverse edge's receiveAll and rel.
func mirrorsConsistent(e *engine) error {
	for i, edges := range e.nbr {
		for _, ed := range edges {
			var rev *neighborEdge
			for k := range e.nbr[ed.idx] {
				if e.nbr[ed.idx][k].idx == int32(i) {
					rev = &e.nbr[ed.idx][k]
				}
			}
			if rev == nil {
				return fmt.Errorf("edge %d→%d has no reverse edge", e.rt.asns[i], e.rt.asns[ed.idx])
			}
			if ed.sendAll != rev.receiveAll || ed.back != rev.rel {
				return fmt.Errorf("edge %d→%d: sendAll %v back %v, reverse receiveAll %v rel %v",
					e.rt.asns[i], e.rt.asns[ed.idx], ed.sendAll, ed.back, rev.receiveAll, rev.rel)
			}
		}
	}
	return nil
}

// TestPropEdgeMirrorsStayCurrent: after compile and after every Apply and
// Revert of link flaps and leak toggles (and the other deltas), on
// hierarchies and on arbitrary topologies, the mirrored fields match the
// reverse edge.
func TestPropEdgeMirrorsStayCurrent(t *testing.T) {
	proptest.Run(t, 313, 60, func(g *proptest.G) error {
		var topo *Topology
		var mids, stubs []ASN
		var err error
		if g.Bool(0.5) {
			topo, _, mids, stubs, err = buildSpecTopology(g.ASHierarchy(5, 6))
		} else {
			topo, err = randomUnsafeTopology(g)
			mids = topo.ASNs()
		}
		if err != nil {
			return fmt.Errorf("building topology: %w", err)
		}
		c := convergeState(t, topo, 1)
		if err := mirrorsConsistent(c.e); err != nil {
			return fmt.Errorf("after compile: %w", err)
		}
		var stack []*Patch
		extra := 0
		for s := g.IntRange(3, 10); s > 0; s-- {
			if len(stack) > 0 && g.Bool(0.3) {
				c.Revert(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
			} else {
				d, ok := randomDelta(g, c, mids, stubs, &extra)
				if !ok {
					continue
				}
				p, err := c.Apply(d)
				if err != nil {
					return fmt.Errorf("Apply(%+v): %w", d, err)
				}
				stack = append(stack, p)
			}
			if err := mirrorsConsistent(c.e); err != nil {
				return fmt.Errorf("step %d: %w", s, err)
			}
		}
		return nil
	})
}

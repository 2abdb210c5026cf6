package bgpsim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/proptest"
	"repro/internal/rng"
)

// assertTablesMatchCold requires the live tables of c to be observably
// identical — reachability, learned relationship, full path, and per-AS
// prefix enumeration — to a cold ConvergeCtx of the same (mutated) topology.
// This is the incremental engine's central contract.
func assertTablesMatchCold(t *testing.T, label string, c *Converged) {
	t.Helper()
	if err := tablesEqualCold(c); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// tablesEqualCold is assertTablesMatchCold in error form, shared with the
// property suite.
func tablesEqualCold(c *Converged) error {
	cold, err := c.Topology().ConvergeCtx(context.Background(), 1)
	if err != nil {
		return err
	}
	live := c.Tables()
	for _, rt := range []*RoutingTables{cold, live} {
		if err := reachCountCurrent(rt); err != nil {
			return err
		}
	}
	if err := bareCellsSound(c.e); err != nil {
		return err
	}
	if err := cellsPacked(c.e); err != nil {
		return err
	}
	for _, n := range c.Topology().ASNs() {
		cp, lp := cold.Prefixes(n), live.Prefixes(n)
		if len(cp) != len(lp) {
			return fmt.Errorf("AS %d: live prefixes %v, cold %v", n, lp, cp)
		}
		for i := range cp {
			if cp[i] != lp[i] {
				return fmt.Errorf("AS %d: live prefixes %v, cold %v", n, lp, cp)
			}
		}
		for _, p := range cp {
			got, want := live.Route(n, p), cold.Route(n, p)
			if !routesEqual(got, want) {
				return fmt.Errorf("AS %d prefix %s: live %+v, cold %+v", n, p, got, want)
			}
		}
	}
	return nil
}

// reachCountCurrent checks the O(1) reachable-cell count that
// ReachableCells returns against a full scan of the cells.
func reachCountCurrent(rt *RoutingTables) error {
	scan := 0
	for _, en := range rt.entries {
		if en != 0 {
			scan++
		}
	}
	if got, _ := rt.ReachableCells(); got != scan {
		return fmt.Errorf("ReachableCells = %d, a scan counts %d", got, scan)
	}
	return nil
}

// snapshotEntries copies the raw table cells (shared path-chain pointers
// included) so a revert can be checked for exact restoration, not just
// observable equality.
func snapshotEntries(rt *RoutingTables) []entry {
	return append([]entry(nil), rt.entries...)
}

func assertEntriesRestored(t *testing.T, label string, rt *RoutingTables, snap []entry) {
	t.Helper()
	if len(rt.entries) != len(snap) {
		t.Fatalf("%s: %d cells after revert, want %d", label, len(rt.entries), len(snap))
	}
	for i := range snap {
		if rt.entries[i] != snap[i] {
			t.Fatalf("%s: cell %d = %+v after revert, want %+v (path chains must be pointer-identical)",
				label, i, rt.entries[i], snap[i])
		}
	}
}

func TestIncrementalWithdrawBitIdentical(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(7), HierarchyOpts{NMid: 8, NStub: 24})
	if err != nil {
		t.Fatal(err)
	}
	c := convergeState(t, h.Topo, 1)
	base := snapshotEntries(c.Tables())

	victim := h.Stubs[5]
	pfx := fmt.Sprintf("pfx-%d", victim)
	p, err := c.Apply(Delta{Kind: DeltaWithdraw, A: victim, Prefix: pfx})
	if err != nil {
		t.Fatal(err)
	}
	if c.Tables().Reachable(h.Tier1[0], pfx) {
		t.Fatalf("tier1 still reaches withdrawn %s", pfx)
	}
	assertTablesMatchCold(t, "after withdraw", c)
	if p.Cells() == 0 {
		t.Fatal("withdraw of a live prefix overwrote no cells")
	}
	if p.Delta().Kind != DeltaWithdraw {
		t.Fatalf("patch delta = %+v", p.Delta())
	}

	c.Revert(p)
	assertEntriesRestored(t, "withdraw revert", c.Tables(), base)
	if !h.Topo.hasOrigin(victim, pfx) {
		t.Fatal("revert did not restore the origination")
	}
	assertTablesMatchCold(t, "after revert", c)
}

func TestIncrementalAnnounceNewPrefix(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(9), HierarchyOpts{NMid: 6, NStub: 12})
	if err != nil {
		t.Fatal(err)
	}
	c := convergeState(t, h.Topo, 1)
	base := snapshotEntries(c.Tables())
	basePrefixes := c.Tables().Prefixes(h.Tier1[0])

	// "pfx-0zzz" sorts before every "pfx-1xxx" stub prefix, so the spliced
	// order index — not the appended column position — must drive Prefixes.
	mid := h.Mids[2]
	p, err := c.Apply(Delta{Kind: DeltaAnnounce, A: mid, Prefix: "pfx-0zzz"})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Tables().Prefixes(h.Tier1[0])
	if len(got) != len(basePrefixes)+1 || got[0] != "pfx-0zzz" {
		t.Fatalf("prefix enumeration after announce = %v", got)
	}
	assertTablesMatchCold(t, "after announce", c)

	c.Revert(p)
	assertEntriesRestored(t, "announce revert", c.Tables(), base)
	if c.Tables().Reachable(mid, "pfx-0zzz") {
		t.Fatal("new prefix survived revert")
	}
	assertTablesMatchCold(t, "after revert", c)
}

func TestIncrementalLinkFlap(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(13), HierarchyOpts{NMid: 8, NStub: 24})
	if err != nil {
		t.Fatal(err)
	}
	c := convergeState(t, h.Topo, 1)
	base := snapshotEntries(c.Tables())

	// Down one stub's transit link, then add a rescue peering, strictly LIFO.
	stub := h.Stubs[3]
	provider := h.Topo.Providers(stub)[0]
	p1, err := c.Apply(Delta{Kind: DeltaLinkDown, A: provider, B: stub})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesMatchCold(t, "after link-", c)

	p2, err := c.Apply(Delta{Kind: DeltaLinkUp, A: stub, B: h.Stubs[4], Peer: true})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesMatchCold(t, "after link+ peer", c)

	c.Revert(p2)
	c.Revert(p1)
	assertEntriesRestored(t, "link flap revert", c.Tables(), base)
	if !h.Topo.HasProviderCustomer(provider, stub) || h.Topo.HasPeer(stub, h.Stubs[4]) {
		t.Fatal("revert did not restore the link set")
	}
}

func TestIncrementalLeakToggle(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(17), HierarchyOpts{NMid: 8, NStub: 24})
	if err != nil {
		t.Fatal(err)
	}
	c := convergeState(t, h.Topo, 1)
	base := snapshotEntries(c.Tables())

	// Any leaker voids the unique-fixpoint guarantee (see incrementalSafe),
	// so these applies exercise the cold-column fallback and must still
	// match the cold oracle exactly.
	p1, err := c.Apply(Delta{Kind: DeltaLeakToggle, A: h.Mids[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Topo.IsLeaker(h.Mids[1]) {
		t.Fatal("toggle did not set the leaker flag")
	}
	if c.e.incrementalSafe() {
		t.Fatal("a leaker should not be incrementally safe")
	}
	assertTablesMatchCold(t, "one leaker", c)

	p2, err := c.Apply(Delta{Kind: DeltaLeakToggle, A: h.Mids[5]})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesMatchCold(t, "two leakers", c)

	c.Revert(p2)
	assertTablesMatchCold(t, "back to one leaker", c)
	c.Revert(p1)
	assertEntriesRestored(t, "leak toggle revert", c.Tables(), base)
	if h.Topo.IsLeaker(h.Mids[1]) {
		t.Fatal("revert left the leaker flag set")
	}
}

// TestIncrementalUnsafeCycleFallsBack pins the fallback on a topology where
// the cold engine itself only stops at the round cap: a provider cycle.
// Incremental and cold must agree cell for cell even there.
func TestIncrementalUnsafeCycleFallsBack(t *testing.T) {
	topo := NewTopology()
	for _, n := range []ASN{1, 2, 3, 4} {
		mustAS(t, topo, n, ASInfo{})
	}
	mustPC(t, topo, 1, 2)
	mustPC(t, topo, 2, 3)
	mustPC(t, topo, 3, 1) // cycle
	mustPC(t, topo, 3, 4)
	_ = topo.Originate(1, "p")

	c := convergeState(t, topo, 1)
	if c.e.incrementalSafe() {
		t.Fatal("provider cycle reported as incrementally safe")
	}
	p, err := c.Apply(Delta{Kind: DeltaAnnounce, A: 4, Prefix: "q"})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesMatchCold(t, "announce on cycle", c)
	c.Revert(p)
	assertTablesMatchCold(t, "revert on cycle", c)
}

func TestIncrementalApplyErrors(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(19), HierarchyOpts{NMid: 4, NStub: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := convergeState(t, h.Topo, 1)
	base := snapshotEntries(c.Tables())
	stub := h.Stubs[0]
	pfx := fmt.Sprintf("pfx-%d", stub)
	provider := h.Topo.Providers(stub)[0]

	cases := []struct {
		name string
		d    Delta
		want error
	}{
		{"withdraw absent", Delta{Kind: DeltaWithdraw, A: stub, Prefix: "nope"}, ErrBadDelta},
		{"withdraw unknown AS", Delta{Kind: DeltaWithdraw, A: 99999, Prefix: pfx}, ErrUnknownAS},
		{"announce duplicate", Delta{Kind: DeltaAnnounce, A: stub, Prefix: pfx}, ErrBadDelta},
		{"announce unknown AS", Delta{Kind: DeltaAnnounce, A: 99999, Prefix: "x"}, ErrUnknownAS},
		{"link+ present", Delta{Kind: DeltaLinkUp, A: provider, B: stub}, ErrBadDelta},
		{"link- absent", Delta{Kind: DeltaLinkDown, A: stub, B: h.Stubs[1], Peer: true}, ErrBadDelta},
		{"link+ unknown AS", Delta{Kind: DeltaLinkUp, A: stub, B: 99999}, ErrUnknownAS},
		{"link self", Delta{Kind: DeltaLinkUp, A: stub, B: stub}, ErrSelfLink},
		{"leak unknown AS", Delta{Kind: DeltaLeakToggle, A: 99999}, ErrUnknownAS},
	}
	for _, tc := range cases {
		p, err := c.Apply(tc.d)
		if p != nil || !errors.Is(err, tc.want) {
			t.Errorf("%s: Apply = (%v, %v), want error %v", tc.name, p, err, tc.want)
		}
	}
	// Failed applies must leave no trace.
	assertEntriesRestored(t, "after rejected deltas", c.Tables(), base)
	assertTablesMatchCold(t, "after rejected deltas", c)
}

func TestIncrementalRevertEnforcesLIFO(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(23), HierarchyOpts{NMid: 4, NStub: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := convergeState(t, h.Topo, 1)
	p1, err := c.Apply(Delta{Kind: DeltaLeakToggle, A: h.Mids[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(Delta{Kind: DeltaLeakToggle, A: h.Mids[0]}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Revert did not panic")
		}
	}()
	c.Revert(p1) // p2 is still outstanding
}

// TestSweepsMatchFull pins the incremental sweep implementations to the
// preserved cold-per-event oracles at the E14/E16 experiment parameters, so
// REPORT.md cannot drift.
func TestSweepsMatchFull(t *testing.T) {
	for _, w := range []int{1, 4} {
		gotLeak, err := RunLeakSweepCtx(context.Background(), 8, 20, 5, w)
		if err != nil {
			t.Fatal(err)
		}
		wantLeak, err := runLeakSweepFullWorkers(8, 20, 5, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotLeak, wantLeak) {
			t.Fatalf("workers=%d: incremental leak sweep diverged:\n got %+v\nwant %+v", w, gotLeak, wantLeak)
		}
		gotHijack, err := RunHijackSweepCtx(context.Background(), 8, 20, 5, w)
		if err != nil {
			t.Fatal(err)
		}
		wantHijack, err := runHijackSweepFullWorkers(8, 20, 5, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotHijack, wantHijack) {
			t.Fatalf("workers=%d: incremental hijack sweep diverged:\n got %+v\nwant %+v", w, gotHijack, wantHijack)
		}
	}
}

// TestBuildHierarchyOptsClassicCompatible: OriginEvery 1 is the classic
// shape, the same as its zero value: the same topology, every stub an
// origin.
func TestBuildHierarchyOptsClassicCompatible(t *testing.T) {
	classic, err := BuildHierarchyOpts(rng.New(41), HierarchyOpts{NMid: 8, NStub: 16})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := BuildHierarchyOpts(rng.New(41), HierarchyOpts{NMid: 8, NStub: 16, OriginEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if FormatTopology(classic.Topo) != FormatTopology(opts.Topo) {
		t.Fatal("OriginEvery 1 changed the generated topology")
	}
	if !reflect.DeepEqual(classic.Stubs, opts.OriginStubs) {
		t.Fatalf("OriginStubs %v, want all stubs %v", opts.OriginStubs, classic.Stubs)
	}
}

func TestBuildHierarchyOptsVariants(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(43), HierarchyOpts{NMid: 12, NStub: 40, Hubs: 4, OriginEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Hubs) != 4 || len(h.OriginStubs) != 5 {
		t.Fatalf("hubs %v, origin stubs %v", h.Hubs, h.OriginStubs)
	}
	// Hub shape: mids are homed to hubs, not tier-1s.
	for _, m := range h.Mids {
		for _, p := range h.Topo.Providers(m) {
			if p < 10 || p > 99 {
				t.Fatalf("mid %d homed to %d, want a hub", m, p)
			}
		}
	}
	rt := converge(t, h.Topo, 1)
	for _, s := range h.OriginStubs {
		pfx := fmt.Sprintf("pfx-%d", s)
		for _, n := range h.Tier1 {
			if !rt.Reachable(n, pfx) {
				t.Fatalf("tier1 %d cannot reach %s through the hub tier", n, pfx)
			}
		}
	}
	// Stub ASNs must not collide with a wide mid tier.
	wide, err := BuildHierarchyOpts(rng.New(47), HierarchyOpts{NMid: 1200, NStub: 10})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Stubs[0] != ASN(100+1200) {
		t.Fatalf("wide-mid stub base = %d", wide.Stubs[0])
	}
}

// randomDelta draws an applicable delta for the spec topology, or a zero
// delta when the generator picked a kind with no applicable instance.
func randomDelta(g *proptest.G, c *Converged, mids, stubs []ASN, extra *int) (Delta, bool) {
	topo := c.Topology()
	all := topo.ASNs()
	switch g.Intn(5) {
	case 0: // withdraw a live origination
		var live []Delta
		for _, n := range all {
			for _, p := range topo.Origins(n) {
				live = append(live, Delta{Kind: DeltaWithdraw, A: n, Prefix: p})
			}
		}
		if len(live) == 0 {
			return Delta{}, false
		}
		return live[g.Intn(len(live))], true
	case 1: // announce: fresh prefix or a hijack of an existing one
		n := all[g.Intn(len(all))]
		if g.Bool(0.5) && len(stubs) > 0 {
			victim := stubs[g.Intn(len(stubs))]
			pfx := fmt.Sprintf("pfx-%d", victim)
			if n == victim || topo.hasOrigin(n, pfx) {
				return Delta{}, false
			}
			return Delta{Kind: DeltaAnnounce, A: n, Prefix: pfx}, true
		}
		*extra++
		return Delta{Kind: DeltaAnnounce, A: n, Prefix: fmt.Sprintf("pfx-extra-%d", *extra)}, true
	case 2: // link up between two random ASes
		a, b := all[g.Intn(len(all))], all[g.Intn(len(all))]
		d := Delta{Kind: DeltaLinkUp, A: a, B: b, Peer: g.Bool(0.5)}
		if a == b {
			return Delta{}, false
		}
		if d.Peer && topo.HasPeer(a, b) {
			return Delta{}, false
		}
		if !d.Peer && topo.HasProviderCustomer(a, b) {
			return Delta{}, false
		}
		return d, true
	case 3: // link down an existing transit edge
		var live []Delta
		for _, n := range all {
			for nb, rel := range topo.Neighbors(n) {
				switch rel {
				case FromCustomer:
					live = append(live, Delta{Kind: DeltaLinkDown, A: n, B: nb})
				case FromPeer:
					if n < nb {
						live = append(live, Delta{Kind: DeltaLinkDown, A: n, B: nb, Peer: true})
					}
				}
			}
		}
		if len(live) == 0 {
			return Delta{}, false
		}
		return live[g.Intn(len(live))], true
	default: // leak toggle, biased toward mids where it bites
		if len(mids) > 0 && g.Bool(0.7) {
			return Delta{Kind: DeltaLeakToggle, A: mids[g.Intn(len(mids))]}, true
		}
		return Delta{Kind: DeltaLeakToggle, A: all[g.Intn(len(all))]}, true
	}
}

// TestPropIncrementalMatchesCold is the incremental engine's oracle suite:
// random event sequences (withdraw, announce/hijack, link flap, leak toggle)
// over generated hierarchies, asserting after every Apply that the live
// tables equal a cold convergence of the mutated topology, and after the
// final unwinding of the patch stack that the original tables come back
// cell-for-cell. Runs at 1, 4, and GOMAXPROCS workers.
func TestPropIncrementalMatchesCold(t *testing.T) {
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			proptest.Run(t, 306+uint64(w), 25, func(g *proptest.G) error {
				spec := g.ASHierarchy(5, 6)
				topo, _, mids, stubs, err := buildSpecTopology(spec)
				if err != nil {
					return fmt.Errorf("building topology: %w", err)
				}
				c := convergeState(t, topo, w)
				if err := checkAdjacency(c.e, topo); err != nil {
					return fmt.Errorf("after compile: %w", err)
				}
				if err := bareCellsSound(c.e); err != nil {
					return fmt.Errorf("after compile: %w", err)
				}
				if err := cellsPacked(c.e); err != nil {
					return fmt.Errorf("after compile: %w", err)
				}
				base := snapshotEntries(c.Tables())
				var stack []*Patch
				extra := 0
				steps := g.IntRange(3, 8)
				for s := 0; s < steps; s++ {
					// Occasionally pop instead of pushing, so sequences
					// interleave applies and reverts.
					if len(stack) > 0 && g.Bool(0.25) {
						c.Revert(stack[len(stack)-1])
						stack = stack[:len(stack)-1]
					} else {
						d, ok := randomDelta(g, c, mids, stubs, &extra)
						if !ok {
							continue
						}
						p, err := c.Apply(d)
						if err != nil {
							return fmt.Errorf("step %d: Apply(%+v): %w", s, d, err)
						}
						stack = append(stack, p)
					}
					if err := checkAdjacency(c.e, topo); err != nil {
						return fmt.Errorf("step %d: %w", s, err)
					}
					if err := tablesEqualCold(c); err != nil {
						return fmt.Errorf("step %d: %w", s, err)
					}
				}
				for len(stack) > 0 {
					c.Revert(stack[len(stack)-1])
					stack = stack[:len(stack)-1]
					if err := checkAdjacency(c.e, topo); err != nil {
						return fmt.Errorf("unwind: %w", err)
					}
					if err := cellsPacked(c.e); err != nil {
						return fmt.Errorf("unwind: %w", err)
					}
				}
				live := c.Tables()
				if err := reachCountCurrent(live); err != nil {
					return fmt.Errorf("after unwind: %w", err)
				}
				if len(live.entries) != len(base) {
					return fmt.Errorf("%d cells after unwind, want %d", len(live.entries), len(base))
				}
				for i := range base {
					if live.entries[i] != base[i] {
						return fmt.Errorf("cell %d differs after full unwind", i)
					}
				}
				return nil
			})
		})
	}
}

// TestPropApplyRevertRestoresTables drives a single random delta per case
// and checks exact (pointer-level) restoration, the cheapest high-yield
// slice of the oracle above.
func TestPropApplyRevertRestoresTables(t *testing.T) {
	proptest.Run(t, 309, 40, func(g *proptest.G) error {
		spec := g.ASHierarchy(5, 6)
		topo, _, mids, stubs, err := buildSpecTopology(spec)
		if err != nil {
			return fmt.Errorf("building topology: %w", err)
		}
		c := convergeState(t, topo, 1)
		if err := checkAdjacency(c.e, topo); err != nil {
			return fmt.Errorf("after compile: %w", err)
		}
		if err := cellsPacked(c.e); err != nil {
			return fmt.Errorf("after compile: %w", err)
		}
		base := snapshotEntries(c.Tables())
		baseText := FormatTopology(topo)
		extra := 0
		d, ok := randomDelta(g, c, mids, stubs, &extra)
		if !ok {
			return nil
		}
		p, err := c.Apply(d)
		if err != nil {
			return fmt.Errorf("Apply(%+v): %w", d, err)
		}
		if err := checkAdjacency(c.e, topo); err != nil {
			return fmt.Errorf("after Apply(%+v): %w", d, err)
		}
		if err := cellsPacked(c.e); err != nil {
			return fmt.Errorf("after Apply(%+v): %w", d, err)
		}
		c.Revert(p)
		if err := checkAdjacency(c.e, topo); err != nil {
			return fmt.Errorf("after reverting %+v: %w", d, err)
		}
		if err := cellsPacked(c.e); err != nil {
			return fmt.Errorf("after reverting %+v: %w", d, err)
		}
		if got := FormatTopology(topo); got != baseText {
			return fmt.Errorf("revert of %+v did not restore the topology:\n%s", d, got)
		}
		live := c.Tables()
		if err := reachCountCurrent(live); err != nil {
			return fmt.Errorf("after reverting %+v: %w", d, err)
		}
		if len(live.entries) != len(base) {
			return fmt.Errorf("%d cells after revert, want %d", len(live.entries), len(base))
		}
		for i := range base {
			if live.entries[i] != base[i] {
				return fmt.Errorf("delta %+v: cell %d not restored exactly", d, i)
			}
		}
		return nil
	})
}

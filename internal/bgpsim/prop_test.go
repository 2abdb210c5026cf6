package bgpsim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/proptest"
)

// Property suite for the BGP simulator. It lives in the internal package on
// purpose: the central invariant is that the compiled engine stays
// bit-identical to the preserved naive fixpoint (convergeReference), which
// is unexported. Topologies come from proptest's ASHierarchySpec, which is
// valley-free by construction, so every converged path must be valley-free,
// blast radii must stay inside the reachable set, and withdrawing and
// re-announcing a prefix must round-trip to the identical fixpoint.

// buildSpecTopology materializes an ASHierarchySpec with the repo's
// conventional ASN layout: tier-1s at 1.., mids at 100+i, stubs at 1000+i,
// each stub originating "pfx-<asn>". It returns the topology plus the tier
// ASN slices.
func buildSpecTopology(spec proptest.ASHierarchySpec) (*Topology, []ASN, []ASN, []ASN, error) {
	t := NewTopology()
	var tier1, mids, stubs []ASN
	for i := 0; i < spec.NTier1; i++ {
		n := ASN(1 + i)
		if err := t.AddAS(n, ASInfo{Name: fmt.Sprintf("Tier1-%d", n)}); err != nil {
			return nil, nil, nil, nil, err
		}
		tier1 = append(tier1, n)
	}
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			if err := t.AddPeer(tier1[i], tier1[j]); err != nil {
				return nil, nil, nil, nil, err
			}
		}
	}
	for i, provs := range spec.MidProviders {
		n := ASN(100 + i)
		if err := t.AddAS(n, ASInfo{Name: fmt.Sprintf("Mid-%d", n)}); err != nil {
			return nil, nil, nil, nil, err
		}
		mids = append(mids, n)
		for _, p := range provs {
			if err := t.AddProviderCustomer(tier1[p], n); err != nil {
				return nil, nil, nil, nil, err
			}
		}
	}
	for _, pr := range spec.MidPeers {
		if err := t.AddPeer(mids[pr[0]], mids[pr[1]]); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	for i, provs := range spec.StubProviders {
		n := ASN(1000 + i)
		if err := t.AddAS(n, ASInfo{Name: fmt.Sprintf("Stub-%d", n)}); err != nil {
			return nil, nil, nil, nil, err
		}
		stubs = append(stubs, n)
		for _, p := range provs {
			if err := t.AddProviderCustomer(mids[p], n); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		if err := t.Originate(n, fmt.Sprintf("pfx-%d", n)); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return t, tier1, mids, stubs, nil
}

// tablesMatchReference compares the engine's RoutingTables against the raw
// reference maps for every (AS, prefix) cell.
func tablesMatchReference(t *Topology, rt *RoutingTables, ref map[ASN]map[string]*Route, prefixes []string) error {
	for _, n := range t.ASNs() {
		for _, pfx := range prefixes {
			got := rt.Route(n, pfx)
			want := ref[n][pfx]
			if !routesEqual(got, want) {
				return fmt.Errorf("AS %d prefix %s: engine %+v, reference %+v", n, pfx, got, want)
			}
		}
	}
	return nil
}

func stubPrefixes(stubs []ASN) []string {
	out := make([]string, len(stubs))
	for i, s := range stubs {
		out[i] = fmt.Sprintf("pfx-%d", s)
	}
	return out
}

func TestPropConvergeMatchesReference(t *testing.T) {
	proptest.Run(t, 301, 40, func(g *proptest.G) error {
		spec := g.ASHierarchy(5, 6)
		topo, _, _, stubs, err := buildSpecTopology(spec)
		if err != nil {
			return fmt.Errorf("building topology: %w", err)
		}
		rt := converge(t, topo, 1)
		if err := tablesMatchReference(topo, rt, topo.convergeReference(), stubPrefixes(stubs)); err != nil {
			return fmt.Errorf("engine diverged from reference on spec %+v: %w", spec, err)
		}
		return nil
	})
}

func TestPropConvergeWorkerInvariant(t *testing.T) {
	proptest.Run(t, 302, 40, func(g *proptest.G) error {
		spec := g.ASHierarchy(5, 6)
		topo, _, _, stubs, err := buildSpecTopology(spec)
		if err != nil {
			return fmt.Errorf("building topology: %w", err)
		}
		serial := converge(t, topo, 1)
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			fanned := converge(t, topo, workers)
			for _, n := range topo.ASNs() {
				for _, pfx := range stubPrefixes(stubs) {
					if !routesEqual(serial.Route(n, pfx), fanned.Route(n, pfx)) {
						return fmt.Errorf("workers=%d differs at AS %d prefix %s", workers, n, pfx)
					}
				}
			}
		}
		return nil
	})
}

func TestPropConvergedPathsValleyFree(t *testing.T) {
	proptest.Run(t, 303, 40, func(g *proptest.G) error {
		spec := g.ASHierarchy(5, 6)
		topo, _, _, stubs, err := buildSpecTopology(spec)
		if err != nil {
			return fmt.Errorf("building topology: %w", err)
		}
		rt := converge(t, topo, 1)
		for _, n := range topo.ASNs() {
			for _, pfx := range stubPrefixes(stubs) {
				path := rt.Path(n, pfx)
				if path == nil {
					continue
				}
				if !topo.ValleyFree(path) {
					return fmt.Errorf("AS %d reaches %s via valley path %v", n, pfx, path)
				}
			}
		}
		return nil
	})
}

func TestPropBlastRadiusWithinReachable(t *testing.T) {
	proptest.Run(t, 304, 40, func(g *proptest.G) error {
		spec := g.ASHierarchy(5, 6)
		topo, _, mids, stubs, err := buildSpecTopology(spec)
		if err != nil {
			return fmt.Errorf("building topology: %w", err)
		}
		if len(stubs) == 0 {
			return nil
		}
		leaker := mids[g.Intn(len(mids))]
		if !topo.MarkLeaker(leaker) {
			return fmt.Errorf("MarkLeaker(%d) failed", leaker)
		}
		rt := converge(t, topo, 1)
		pfx := fmt.Sprintf("pfx-%d", stubs[g.Intn(len(stubs))])
		affected, reachable := BlastRadius(rt, leaker, pfx)
		if len(affected) >= reachable && len(affected) > 0 {
			return fmt.Errorf("affected %d >= reachable %d for %s", len(affected), reachable, pfx)
		}
		for _, n := range affected {
			if n == leaker {
				return fmt.Errorf("leaker %d counted in its own blast radius", leaker)
			}
			if !rt.Reachable(n, pfx) {
				return fmt.Errorf("affected AS %d has no route to %s", n, pfx)
			}
			path := rt.Path(n, pfx)
			through := false
			for _, hop := range path[1:] {
				if hop == leaker {
					through = true
				}
			}
			if !through {
				return fmt.Errorf("affected AS %d's path %v avoids leaker %d", n, path, leaker)
			}
		}
		return nil
	})
}

func TestPropWithdrawReannounceIdempotent(t *testing.T) {
	proptest.Run(t, 305, 30, func(g *proptest.G) error {
		spec := g.ASHierarchy(5, 6)
		topo, _, _, stubs, err := buildSpecTopology(spec)
		if err != nil {
			return fmt.Errorf("building topology: %w", err)
		}
		if len(stubs) == 0 {
			return nil
		}
		prefixes := stubPrefixes(stubs)
		before := converge(t, topo, 1)
		victim := stubs[g.Intn(len(stubs))]
		pfx := fmt.Sprintf("pfx-%d", victim)
		topo.WithdrawOrigin(victim, pfx)
		gone := converge(t, topo, 1)
		for _, n := range topo.ASNs() {
			if gone.Reachable(n, pfx) {
				return fmt.Errorf("AS %d still reaches withdrawn %s", n, pfx)
			}
		}
		if err := topo.Originate(victim, pfx); err != nil {
			return fmt.Errorf("re-announcing %s: %w", pfx, err)
		}
		after := converge(t, topo, 1)
		for _, n := range topo.ASNs() {
			for _, p := range prefixes {
				if !routesEqual(before.Route(n, p), after.Route(n, p)) {
					return fmt.Errorf("withdraw/re-announce of %s changed AS %d's route to %s: %+v vs %+v",
						pfx, n, p, before.Route(n, p), after.Route(n, p))
				}
			}
		}
		return nil
	})
}

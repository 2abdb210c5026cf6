package bgpsim

import (
	"context"
	"fmt"

	"repro/internal/rng"
)

// Hierarchy describes a generated Internet-like topology.
type Hierarchy struct {
	Topo  *Topology
	Tier1 []ASN
	Hubs  []ASN // regional concentrators; empty for the classic three-tier shape
	Mids  []ASN
	Stubs []ASN
	// OriginStubs lists the stubs that originate a prefix ("pfx-<asn>"), in
	// ascending order. Equal to Stubs unless HierarchyOpts.OriginEvery thins
	// the prefix table for large-scale runs.
	OriginStubs []ASN
}

// HierarchyOpts parameterizes BuildHierarchyOpts. The zero value of every
// knob past NMid and NStub reproduces the classic three-tier shape exactly
// (same ASNs, same RNG draw sequence), so existing seeds keep their
// topologies.
type HierarchyOpts struct {
	NMid  int
	NStub int
	// Hubs > 0 inserts a route-reflector-flavoured tier between the tier-1
	// clique and the mids: Hubs regional concentrator ASes, each dual-homed
	// to tier-1 providers and peered in a ring (the reflector mesh), with the
	// mids homed to hubs instead of tier-1s (the client sessions). The shape
	// keeps path diversity per mid while cutting the tier-1 fan-out, which is
	// what makes 100k-AS tables tractable.
	Hubs int
	// OriginEvery k > 1 makes only every k-th stub originate a prefix, so the
	// prefix-column count — the dominant table dimension — scales sublinearly
	// with AS count. 0 or 1 means every stub originates.
	OriginEvery int
}

// BuildHierarchyOpts generates a random three-tier Internet: a tier-1
// clique of peers, a middle tier of o.NMid ASes with one or two tier-1
// providers and some lateral peering, and o.NStub stubs with one or two mid
// providers. Every stub originates a /16-style prefix named "pfx-<asn>"
// unless o.OriginEvery thins them, and o.Hubs inserts a concentrator tier.
// With o.Hubs == 0 and o.OriginEvery <= 1 the RNG draw sequence and ASNs
// are those of the classic three-tier generator (for NMid <= 900), so
// seeded experiment topologies stay stable.
func BuildHierarchyOpts(r *rng.Rand, o HierarchyOpts) (*Hierarchy, error) {
	if o.NStub > 0 && o.NMid <= 0 {
		return nil, fmt.Errorf("bgpsim: hierarchy needs mids to home %d stubs", o.NStub)
	}
	if o.Hubs < 0 || o.Hubs > 90 {
		return nil, fmt.Errorf("bgpsim: hub count %d outside [0, 90]", o.Hubs)
	}
	h := &Hierarchy{Topo: NewTopology()}
	h.Tier1 = []ASN{1, 2, 3}
	for _, n := range h.Tier1 {
		if err := h.Topo.AddAS(n, ASInfo{Name: fmt.Sprintf("Tier1-%d", n)}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < len(h.Tier1); i++ {
		for j := i + 1; j < len(h.Tier1); j++ {
			if err := h.Topo.AddPeer(h.Tier1[i], h.Tier1[j]); err != nil {
				return nil, err
			}
		}
	}
	// Hub tier (route-reflector flavour): ASNs 10..99, dual-homed upward,
	// ring-peered sideways. midHomes is whatever tier the mids attach to.
	midHomes := h.Tier1
	for i := 0; i < o.Hubs; i++ {
		n := ASN(10 + i)
		if err := h.Topo.AddAS(n, ASInfo{Name: fmt.Sprintf("Hub-%d", n)}); err != nil {
			return nil, err
		}
		h.Hubs = append(h.Hubs, n)
		if err := h.Topo.AddProviderCustomer(h.Tier1[r.Intn(len(h.Tier1))], n); err != nil {
			return nil, err
		}
		// Second upstream; a duplicate pick is harmless (idempotent sets).
		_ = h.Topo.AddProviderCustomer(h.Tier1[r.Intn(len(h.Tier1))], n)
	}
	for i := 0; i < len(h.Hubs); i++ {
		if j := (i + 1) % len(h.Hubs); j != i {
			if err := h.Topo.AddPeer(h.Hubs[i], h.Hubs[j]); err != nil && !h.Topo.HasPeer(h.Hubs[i], h.Hubs[j]) {
				return nil, err
			}
		}
	}
	if len(h.Hubs) > 0 {
		midHomes = h.Hubs
	}
	for i := 0; i < o.NMid; i++ {
		n := ASN(100 + i)
		if err := h.Topo.AddAS(n, ASInfo{Name: fmt.Sprintf("Mid-%d", n)}); err != nil {
			return nil, err
		}
		h.Mids = append(h.Mids, n)
		if err := h.Topo.AddProviderCustomer(midHomes[r.Intn(len(midHomes))], n); err != nil {
			return nil, err
		}
		if r.Bool(0.5) {
			// Multihoming; a duplicate pick is harmless (idempotent sets).
			_ = h.Topo.AddProviderCustomer(midHomes[r.Intn(len(midHomes))], n)
		}
	}
	for i := 0; i+1 < len(h.Mids); i += 2 {
		if r.Bool(0.6) {
			if err := h.Topo.AddPeer(h.Mids[i], h.Mids[i+1]); err != nil {
				return nil, err
			}
		}
	}
	// Classic layout puts stubs at 1000+; past 900 mids that range is taken,
	// so large-scale shapes start stubs right after the mid block instead.
	stubBase := 1000
	if 100+o.NMid > stubBase {
		stubBase = 100 + o.NMid
	}
	every := o.OriginEvery
	if every < 1 {
		every = 1
	}
	for i := 0; i < o.NStub; i++ {
		n := ASN(stubBase + i)
		if err := h.Topo.AddAS(n, ASInfo{Name: fmt.Sprintf("Stub-%d", n)}); err != nil {
			return nil, err
		}
		h.Stubs = append(h.Stubs, n)
		if err := h.Topo.AddProviderCustomer(h.Mids[r.Intn(len(h.Mids))], n); err != nil {
			return nil, err
		}
		if r.Bool(0.3) {
			_ = h.Topo.AddProviderCustomer(h.Mids[r.Intn(len(h.Mids))], n)
		}
		if i%every == 0 {
			if err := h.Topo.Originate(n, fmt.Sprintf("pfx-%d", n)); err != nil {
				return nil, err
			}
			h.OriginStubs = append(h.OriginStubs, n)
		}
	}
	return h, nil
}

// LeakRow is one measured point of the E14 leak experiment.
type LeakRow struct {
	LeakerKind    string // "stub" or "mid"
	LeakerASN     ASN
	Providers     int
	Affected      int
	AffectedShare float64 // affected / reachable ASes
}

// RunLeakSweepCtx builds a hierarchy, then measures the blast radius of a
// leak by a representative stub and by each mid-tier AS, against a randomly
// chosen victim prefix. Rows are sorted by the order tried (stub first, then
// mids ascending). The base topology converges once, fanning independent
// prefix columns across at most workers goroutines (workers <= 0 means
// GOMAXPROCS); each leaker is a single incremental toggle applied and
// reverted against that state. Convergence is bit-identical for every
// worker count, so the rows are too. ctx is checked during the base
// convergence and between leaker events (each scoped apply+revert runs to
// completion to keep the undo log consistent). A hierarchy without stubs
// has no victim to draw and is an error.
func RunLeakSweepCtx(ctx context.Context, nMid, nStub int, seed uint64, workers int) ([]LeakRow, error) {
	h, victim, err := sweepHierarchy(nMid, nStub, seed)
	if err != nil {
		return nil, err
	}
	return leakSweepRows(ctx, h, victim, workers)
}

// sweepHierarchy builds the seeded hierarchy a leak or hijack sweep runs on
// and draws the victim stub from the same seed.
func sweepHierarchy(nMid, nStub int, seed uint64) (*Hierarchy, ASN, error) {
	r := rng.New(seed)
	h, err := BuildHierarchyOpts(r.Split(), HierarchyOpts{NMid: nMid, NStub: nStub})
	if err != nil {
		return nil, 0, err
	}
	if len(h.Stubs) == 0 {
		return nil, 0, fmt.Errorf("bgpsim: sweep needs at least one stub to draw a victim from")
	}
	return h, h.Stubs[r.Intn(len(h.Stubs))], nil
}

// sweepRows measures one representative stub that is not the victim, then
// every mid in ascending order — the row order of both sweeps.
func sweepRows[R any](h *Hierarchy, victim ASN, measure func(kind string, n ASN) (R, error)) ([]R, error) {
	var rows []R
	add := func(kind string, n ASN) error {
		row, err := measure(kind, n)
		rows = append(rows, row)
		return err
	}
	for _, s := range h.Stubs {
		if s != victim {
			if err := add("stub", s); err != nil {
				return nil, err
			}
			break
		}
	}
	for _, m := range h.Mids {
		if err := add("mid", m); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// leakSweepRows converges the base once and measures each leaker as an
// incremental toggle scoped to the one column BlastRadius reads: a leaker
// voids the unique-fixpoint guarantee, so the victim column is recomputed
// cold (bit-identical to the full-converge oracle), every other column is
// untouched, and Revert restores the base state from the undo log. ctx is
// honoured during the base convergence and between leaker events; each
// apply+revert pair runs to completion once started.
func leakSweepRows(ctx context.Context, h *Hierarchy, victim ASN, workers int) ([]LeakRow, error) {
	prefix := fmt.Sprintf("pfx-%d", victim)
	c, err := h.Topo.ConvergeStateCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	scope := []int32{c.Tables().pfxIdx[prefix]}
	measure := func(kind string, leaker ASN) (LeakRow, error) {
		if err := ctx.Err(); err != nil {
			return LeakRow{}, err
		}
		//humnet:allow ctxflow -- scoped apply+revert must run to completion or the undo log is left inconsistent; ctx is honoured between sweep events
		p, err := c.applyScoped(Delta{Kind: DeltaLeakToggle, A: leaker}, scope)
		if err != nil {
			return LeakRow{}, err
		}
		affected, reachable := BlastRadius(c.Tables(), leaker, prefix)
		c.Revert(p)
		row := LeakRow{
			LeakerKind: kind,
			LeakerASN:  leaker,
			Providers:  len(h.Topo.Providers(leaker)),
			Affected:   len(affected),
		}
		if reachable > 0 {
			row.AffectedShare = float64(row.Affected) / float64(reachable)
		}
		return row, nil
	}
	return sweepRows(h, victim, measure)
}

// HijackRow is one measured point of the E16 prefix-hijack experiment.
type HijackRow struct {
	AttackerKind  string // "stub" or "mid"
	AttackerASN   ASN
	Captured      int     // ASes whose best route leads to the attacker
	CapturedShare float64 // captured / ASes with any route (excluding both principals)
}

// RunHijackSweepCtx measures exact-prefix (MOAS) hijacks: the attacker
// originates the victim's prefix, and every AS picks whichever origin its
// policies prefer. Like leaks, the blast radius is economic: an attacker
// close to many customers captures more of the network. One representative
// stub and every mid-tier AS attack in turn; each attack is an incremental
// announce applied and reverted against the once-converged base. The base
// convergence fans independent prefix columns across at most workers
// goroutines (workers <= 0 means GOMAXPROCS) and is bit-identical for every
// worker count, so the rows are too. ctx is checked during the base
// convergence and between attack events (each announce+revert pair runs to
// completion to keep the undo log consistent). A hierarchy without stubs
// has no victim to draw and is an error.
func RunHijackSweepCtx(ctx context.Context, nMid, nStub int, seed uint64, workers int) ([]HijackRow, error) {
	h, victim, err := sweepHierarchy(nMid, nStub, seed)
	if err != nil {
		return nil, err
	}
	return hijackSweepRows(ctx, h, victim, workers)
}

// hijackSweepRows converges the base once and measures each attacker as an
// incremental announce of the victim's prefix, reverted after measuring.
// ctx is honoured during the base convergence and between attack events;
// each announce+revert pair runs to completion once started.
func hijackSweepRows(ctx context.Context, h *Hierarchy, victim ASN, workers int) ([]HijackRow, error) {
	prefix := fmt.Sprintf("pfx-%d", victim)
	c, err := h.Topo.ConvergeStateCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	asns := h.Topo.ASNs()
	measure := func(kind string, attacker ASN) (HijackRow, error) {
		if err := ctx.Err(); err != nil {
			return HijackRow{}, err
		}
		//humnet:allow ctxflow -- announce+revert must run to completion or the undo log is left inconsistent; ctx is honoured between sweep events
		p, err := c.Apply(Delta{Kind: DeltaAnnounce, A: attacker, Prefix: prefix})
		if err != nil {
			return HijackRow{}, err
		}
		rt := c.Tables()
		row := HijackRow{AttackerKind: kind, AttackerASN: attacker}
		total := 0
		for _, n := range asns {
			if n == victim || n == attacker {
				continue
			}
			path := rt.Path(n, prefix)
			if path == nil {
				continue
			}
			total++
			if path[len(path)-1] == attacker {
				row.Captured++
			}
		}
		if total > 0 {
			row.CapturedShare = float64(row.Captured) / float64(total)
		}
		c.Revert(p)
		return row, nil
	}
	return sweepRows(h, victim, measure)
}

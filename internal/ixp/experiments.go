package ixp

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bgpsim"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// RegulationMode selects the policy scenario of the circumvention experiment.
type RegulationMode int

// Scenarios of experiment E1, mirroring the Telmex case study.
const (
	// NoRegulation: the incumbent stays off the exchange entirely.
	NoRegulation RegulationMode = iota
	// RegulationCompliant: the law forces the incumbent's main AS to peer
	// at the domestic IXP with every member.
	RegulationCompliant
	// RegulationCircumvented: the incumbent satisfies the letter of the law
	// by joining through shell ASNs that are customers of the main AS and
	// originate nothing of value. Valley-free export makes every session
	// they establish useless for reaching the incumbent's customers.
	RegulationCircumvented
)

// String returns the scenario name.
func (m RegulationMode) String() string {
	switch m {
	case NoRegulation:
		return "no-regulation"
	case RegulationCompliant:
		return "regulation-compliant"
	case RegulationCircumvented:
		return "regulation-circumvented"
	default:
		return fmt.Sprintf("RegulationMode(%d)", int(m))
	}
}

// CircumventionConfig parameterizes experiment E1.
type CircumventionConfig struct {
	// Competitors is the number of non-incumbent domestic ISPs.
	Competitors int
	// IncumbentShare is the incumbent's share of domestic users (0..1).
	IncumbentShare float64
	// Shells is the number of shell ASNs used in the circumvention scenario.
	Shells int
	// Mode selects the scenario.
	Mode RegulationMode
	// MigratedShare models the regulator's counter-move: the fraction of
	// the incumbent's users that the law forces onto the IXP-member AS
	// (shell 0). Only meaningful under RegulationCircumvented; 0 keeps the
	// classic empty-shell circumvention.
	MigratedShare float64
}

// CircumventionRow is one measured row of experiment E1.
type CircumventionRow struct {
	Mode           RegulationMode
	Shells         int
	IXPSessions    int     // sessions established at the domestic IXP
	DomesticShare  float64 // traffic-weighted locality of domestic demand
	IncumbentLocal float64 // locality of demand to/from the incumbent only
}

// The Mexican market of the Telmex case study, shared by E1 and the
// timeline scenarios E19, E20 and E22.
const (
	// MXIncumbent is the incumbent's main AS.
	MXIncumbent bgpsim.ASN = 100
	// MXExchange is the market's domestic exchange.
	MXExchange = "IXP-MX"

	mxTransit  bgpsim.ASN = 1
	mxCompBase bgpsim.ASN = 1000
	// shellBase is where E1's shell ASNs start.
	shellBase bgpsim.ASN = 200
)

// NewMXMarket builds the Mexican market: the US transit AS 1 over the
// incumbent AS 100, which originates pfx-incumbent, and competitors
// 1000+i, each originating pfx-comp<i>, all of them MX. Its one exchange,
// IXP-MX, has no members yet. It returns the fabric and the competitors'
// ASNs in ascending order.
func NewMXMarket(competitors int) (*Fabric, []bgpsim.ASN, error) {
	topo := bgpsim.NewTopology()
	if err := topo.AddAS(mxTransit, bgpsim.ASInfo{Name: "IntlTransit", Country: "US", Org: "transit"}); err != nil {
		return nil, nil, err
	}
	if err := topo.AddAS(MXIncumbent, bgpsim.ASInfo{Name: "Incumbent", Country: "MX", Org: "incumbent"}); err != nil {
		return nil, nil, err
	}
	if err := topo.AddProviderCustomer(mxTransit, MXIncumbent); err != nil {
		return nil, nil, err
	}
	if err := topo.Originate(MXIncumbent, "pfx-incumbent"); err != nil {
		return nil, nil, err
	}
	comps := make([]bgpsim.ASN, competitors)
	for i := range comps {
		comps[i] = mxCompBase + bgpsim.ASN(i)
		if err := topo.AddAS(comps[i], bgpsim.ASInfo{Name: fmt.Sprintf("Comp%d", i), Country: "MX", Org: fmt.Sprintf("comp%d", i)}); err != nil {
			return nil, nil, err
		}
		if err := topo.AddProviderCustomer(mxTransit, comps[i]); err != nil {
			return nil, nil, err
		}
		if err := topo.Originate(comps[i], fmt.Sprintf("pfx-comp%d", i)); err != nil {
			return nil, nil, err
		}
	}
	f := NewFabric(topo)
	if _, err := f.AddIXP(MXExchange, "MX"); err != nil {
		return nil, nil, err
	}
	return f, comps, nil
}

// BuildCircumventionScenario constructs the fabric for one E1 scenario and
// returns it together with the domestic gravity-model demand set.
func BuildCircumventionScenario(cfg CircumventionConfig) (*Fabric, []Demand, error) {
	f, comps, err := NewMXMarket(cfg.Competitors)
	if err != nil {
		return nil, nil, err
	}
	topo := f.Topo
	for _, n := range comps {
		if err := f.Join(MXExchange, n, Open); err != nil {
			return nil, nil, err
		}
	}

	reg := Regulation{}
	switch cfg.Mode {
	case NoRegulation:
		// Incumbent absent; competitors still peer openly among themselves.
	case RegulationCompliant:
		if err := f.Join(MXExchange, MXIncumbent, Restrictive); err != nil {
			return nil, nil, err
		}
		reg = Regulation{Country: "MX", MandatoryPeering: true}
	case RegulationCircumvented:
		for s := 0; s < cfg.Shells; s++ {
			n := shellBase + bgpsim.ASN(s)
			if err := topo.AddAS(n, bgpsim.ASInfo{Name: fmt.Sprintf("Shell%d", s), Country: "MX", Org: "incumbent"}); err != nil {
				return nil, nil, err
			}
			// Shell is a customer of the incumbent's main AS: it receives
			// the incumbent's routes but may not re-export them to peers.
			if err := topo.AddProviderCustomer(MXIncumbent, n); err != nil {
				return nil, nil, err
			}
			if err := topo.Originate(n, fmt.Sprintf("pfx-shell%d", s)); err != nil {
				return nil, nil, err
			}
			if err := f.Join(MXExchange, n, Restrictive); err != nil {
				return nil, nil, err
			}
		}
		if cfg.MigratedShare > 0 && cfg.Shells > 0 {
			// The regulator's counter-move: the IXP-member AS must actually
			// serve users. Migrated eyeballs originate from shell 0, whose
			// forced sessions then carry their traffic locally.
			if err := topo.Originate(shellBase, "pfx-inc-migrated"); err != nil {
				return nil, nil, err
			}
		}
		reg = Regulation{Country: "MX", MandatoryPeering: true}
	}
	f.EstablishSessions(reg, topo.AddPeer)

	return f, circumventionDemands(cfg, comps), nil
}

// circumventionDemands builds the gravity-model domestic traffic matrix:
// every ordered pair of domestic eyeball networks exchanges volume
// proportional to the product of their user shares.
func circumventionDemands(cfg CircumventionConfig, comps []bgpsim.ASN) []Demand {
	type eyeball struct {
		asn    bgpsim.ASN
		prefix string
		share  float64
	}
	incShare := cfg.IncumbentShare
	var nets []eyeball
	if cfg.Mode == RegulationCircumvented && cfg.MigratedShare > 0 && cfg.Shells > 0 {
		migrated := incShare * cfg.MigratedShare
		incShare -= migrated
		nets = append(nets, eyeball{shellBase, "pfx-inc-migrated", migrated})
	}
	nets = append(nets, eyeball{MXIncumbent, "pfx-incumbent", incShare})
	compShare := (1 - cfg.IncumbentShare) / float64(cfg.Competitors)
	for i, n := range comps {
		nets = append(nets, eyeball{n, fmt.Sprintf("pfx-comp%d", i), compShare})
	}
	var demands []Demand
	for _, src := range nets {
		for _, dst := range nets {
			if src.asn == dst.asn {
				continue
			}
			demands = append(demands, Demand{Src: src.asn, Prefix: dst.prefix, Volume: src.share * dst.share})
		}
	}
	return demands
}

// RunCircumventionCtx executes one E1 scenario and returns its measured row.
// ctx cancels the scenario convergence; the row is identical whenever ctx
// never cancels.
func RunCircumventionCtx(ctx context.Context, cfg CircumventionConfig) (CircumventionRow, error) {
	f, demands, err := BuildCircumventionScenario(cfg)
	if err != nil {
		return CircumventionRow{}, err
	}
	// Serial convergence per scenario: the sweep entry points already fan
	// scenarios out, so per-scenario workers would oversubscribe.
	rt, err := f.Topo.ConvergeCtx(ctx, 1)
	if err != nil {
		return CircumventionRow{}, err
	}
	res := f.Locality(rt, demands, "MX")

	// Locality restricted to demand between the incumbent's org and the
	// rest of the market (intra-org flows ride internal links and would
	// inflate the number).
	incPrefix := func(p string) bool {
		return p == "pfx-incumbent" || p == "pfx-inc-migrated" || strings.HasPrefix(p, "pfx-shell")
	}
	incSrc := func(n bgpsim.ASN) bool {
		info, ok := f.Topo.Info(n)
		return ok && info.Org == "incumbent"
	}
	var incTotal, incDomestic float64
	for _, d := range demands {
		srcInc, dstInc := incSrc(d.Src), incPrefix(d.Prefix)
		if srcInc == dstInc {
			continue
		}
		rep := f.ClassifyPath(rt, d, "MX")
		if !rep.Reach {
			continue
		}
		incTotal += d.Volume
		if rep.Domestic {
			incDomestic += d.Volume
		}
	}
	incLocal := 0.0
	if incTotal > 0 {
		incLocal = incDomestic / incTotal
	}

	// IXP-MX is the market's one exchange and nobody leaves it, so every
	// IXP-attributed session is one of its member pairs.
	return CircumventionRow{
		Mode:           cfg.Mode,
		Shells:         cfg.Shells,
		IXPSessions:    f.Sessions(),
		DomesticShare:  res.DomesticShare(),
		IncumbentLocal: incLocal,
	}, nil
}

// CircumventionSweepCtx runs E1 across the three scenarios, sweeping the
// shell count for the circumvention scenario, and returns all rows. The
// independent scenarios fan out across at most workers goroutines (workers
// <= 0 means GOMAXPROCS). Each scenario builds its own topology and writes
// its row by index, so the rows are identical for every worker count. ctx is
// checked between scenario points.
func CircumventionSweepCtx(ctx context.Context, competitors int, incumbentShare float64, maxShells, workers int) ([]CircumventionRow, error) {
	base := CircumventionConfig{Competitors: competitors, IncumbentShare: incumbentShare}
	var cfgs []CircumventionConfig
	for _, mode := range []RegulationMode{NoRegulation, RegulationCompliant} {
		cfg := base
		cfg.Mode = mode
		cfgs = append(cfgs, cfg)
	}
	for shells := 1; shells <= maxShells; shells++ {
		cfg := base
		cfg.Mode = RegulationCircumvented
		cfg.Shells = shells
		cfgs = append(cfgs, cfg)
	}
	return parallel.Map(ctx, len(cfgs), workers, func(i int) (CircumventionRow, error) {
		return RunCircumventionCtx(ctx, cfgs[i])
	})
}

// PolicySweepCtx runs the regulator's counter-move analysis: under the
// circumvention scenario (2 shells), sweep the user share the law forces
// onto the IXP-member AS and measure how incumbent-traffic locality
// recovers. The policy lesson the ethnography points at: regulating
// *presence* is gameable, regulating *served users* is not. The migration
// points fan out across at most workers goroutines (workers <= 0 means
// GOMAXPROCS); rows are written by index, so the output is identical for
// every worker count. ctx is checked between migration points.
func PolicySweepCtx(ctx context.Context, competitors int, incumbentShare float64, migrations []float64, workers int) ([]CircumventionRow, error) {
	return parallel.Map(ctx, len(migrations), workers, func(i int) (CircumventionRow, error) {
		return RunCircumventionCtx(ctx, CircumventionConfig{
			Competitors:    competitors,
			IncumbentShare: incumbentShare,
			Shells:         2,
			Mode:           RegulationCircumvented,
			MigratedShare:  migrations[i],
		})
	})
}

// GravityConfig parameterizes experiment E2 (the DE-CIX study).
type GravityConfig struct {
	// SouthISPs is the number of Global-South access networks.
	SouthISPs int
	// LocalIXPs is the number of exchanges in the South region.
	LocalIXPs int
	// ContentPresence is the probability a hyperscaler PoP exists at each
	// local IXP (the swept variable).
	ContentPresence float64
	// RemotePeerAlways, when true, has every ISP remote-peer at the giant
	// IXP regardless of local content (ablation); otherwise an ISP remote-
	// peers only when content is absent from its local exchange.
	RemotePeerAlways bool
	// Seed drives PoP placement.
	Seed uint64
}

// GravityRow is one measured row of experiment E2.
type GravityRow struct {
	ContentPresence float64
	GiantIXPShare   float64 // content volume exchanged at the foreign giant IXP
	LocalIXPShare   float64 // content volume exchanged at domestic IXPs
	TransitShare    float64 // content volume reaching content via paid transit
	RemotePeered    int     // ISPs that remote-peer at the giant IXP
	// MeanPathLen is the volume-weighted mean AS-path length of content
	// traffic — the tromboning measure: South→Frankfurt→content paths are
	// not longer in AS hops here (both are one peering session), but paths
	// that fall back to transit are, so the metric separates the transit
	// regime from the peering regimes.
	MeanPathLen float64
}

// ASN layout for the gravity scenario.
const (
	gravTransit bgpsim.ASN = 1
	contentASN  bgpsim.ASN = 50
	southBase   bgpsim.ASN = 2000
)

// RunGravityCtx executes one E2 configuration. ctx cancels the scenario
// convergence; the row is identical whenever ctx never cancels.
func RunGravityCtx(ctx context.Context, cfg GravityConfig) (GravityRow, error) {
	if cfg.LocalIXPs < 1 {
		return GravityRow{}, fmt.Errorf("ixp: E2 needs local-ixps >= 1, got %d", cfg.LocalIXPs)
	}
	r := rng.New(cfg.Seed)
	topo := bgpsim.NewTopology()
	f := NewFabric(topo)

	if err := topo.AddAS(gravTransit, bgpsim.ASInfo{Name: "Tier1", Country: "US", Org: "tier1"}); err != nil {
		return GravityRow{}, err
	}
	if err := topo.AddAS(contentASN, bgpsim.ASInfo{Name: "Hyperscaler", Country: "US", Org: "content"}); err != nil {
		return GravityRow{}, err
	}
	if err := topo.AddProviderCustomer(gravTransit, contentASN); err != nil {
		return GravityRow{}, err
	}
	if err := topo.Originate(contentASN, "pfx-content"); err != nil {
		return GravityRow{}, err
	}

	giantIXP, err := f.AddIXP("DE-CIX", "DE")
	if err != nil {
		return GravityRow{}, err
	}
	// Remote peering at the distant giant is a fallback: pairs that can also
	// peer locally do so at the local exchange.
	giantIXP.Priority = 1
	if err := f.Join("DE-CIX", contentASN, Open); err != nil {
		return GravityRow{}, err
	}

	// Local IXPs, with content PoPs per ContentPresence.
	contentAt := make([]bool, cfg.LocalIXPs)
	for i := 0; i < cfg.LocalIXPs; i++ {
		name := fmt.Sprintf("IXP-BR-%d", i)
		if _, err := f.AddIXP(name, "BR"); err != nil {
			return GravityRow{}, err
		}
		if r.Bool(cfg.ContentPresence) {
			contentAt[i] = true
			if err := f.Join(name, contentASN, Open); err != nil {
				return GravityRow{}, err
			}
		}
	}

	// South ISPs: each attached to one local IXP round-robin, customer of
	// Tier1 for fallback transit.
	var demands []Demand
	remotePeered := 0
	for i := 0; i < cfg.SouthISPs; i++ {
		n := southBase + bgpsim.ASN(i)
		if err := topo.AddAS(n, bgpsim.ASInfo{Name: fmt.Sprintf("SouthISP%d", i), Country: "BR", Org: fmt.Sprintf("south%d", i)}); err != nil {
			return GravityRow{}, err
		}
		if err := topo.AddProviderCustomer(gravTransit, n); err != nil {
			return GravityRow{}, err
		}
		if err := topo.Originate(n, fmt.Sprintf("pfx-south%d", i)); err != nil {
			return GravityRow{}, err
		}
		local := i % cfg.LocalIXPs
		if err := f.Join(fmt.Sprintf("IXP-BR-%d", local), n, Open); err != nil {
			return GravityRow{}, err
		}
		if cfg.RemotePeerAlways || !contentAt[local] {
			if err := f.Join("DE-CIX", n, Open); err != nil {
				return GravityRow{}, err
			}
			remotePeered++
		}
		demands = append(demands, Demand{Src: n, Prefix: "pfx-content", Volume: 1})
	}
	f.EstablishSessions(Regulation{}, topo.AddPeer)
	// Serial per scenario; the sweep fans scenarios out (see RunCircumventionCtx).
	rt, err := topo.ConvergeCtx(ctx, 1)
	if err != nil {
		return GravityRow{}, err
	}

	var giant, local, transit, total, pathLen float64
	for _, d := range demands {
		rep := f.ClassifyPath(rt, d, "BR")
		if !rep.Reach {
			continue
		}
		total += d.Volume
		pathLen += d.Volume * float64(len(rep.Path))
		switch {
		case slices.Contains(rep.IXPs, "DE-CIX"):
			giant += d.Volume
		case len(rep.IXPs) > 0:
			local += d.Volume
		default:
			transit += d.Volume
		}
	}
	row := GravityRow{ContentPresence: cfg.ContentPresence, RemotePeered: remotePeered}
	if total > 0 {
		row.GiantIXPShare = giant / total
		row.LocalIXPShare = local / total
		row.TransitShare = transit / total
		row.MeanPathLen = pathLen / total
	}
	return row, nil
}

// GravitySweepCtx runs E2 over a sweep of local content presence values,
// fanned out across at most workers goroutines (workers <= 0 means
// GOMAXPROCS). Each point derives its own seed from its index — exactly the
// seeds the serial sweep used — and rows are written by index, so the output
// is identical for every worker count. ctx is checked between presence
// points.
func GravitySweepCtx(ctx context.Context, southISPs, localIXPs int, presences []float64, seed uint64, workers int) ([]GravityRow, error) {
	return parallel.Map(ctx, len(presences), workers, func(i int) (GravityRow, error) {
		return RunGravityCtx(ctx, GravityConfig{
			SouthISPs:       southISPs,
			LocalIXPs:       localIXPs,
			ContentPresence: presences[i],
			Seed:            seed + uint64(i)*1000,
		})
	})
}

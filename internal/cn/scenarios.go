package cn

import (
	"context"
	"fmt"
	"math"

	"repro/internal/experiment"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Scenario registrations for the community-network experiments: E3
// (congestion management as a common-pool resource) plus the auxiliary
// studies — the volunteer-maintenance sweep, the topology-aware scheduler
// comparison and the backhaul gateway placement — which are resolvable by
// ID but stay out of the standard report.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E3",
		Title: "Community congestion management",
		Claim: "CPR-style credit scheduling protects light users through congestion while keeping utilization on par with proportional and max-min baselines.",
		Seed:  42,
		Params: experiment.Schema{
			{Name: "members", Kind: experiment.Int, Default: 30, Min: experiment.Bound(2), Doc: "community members sharing the uplink"},
			{Name: "heavy-frac", Kind: experiment.Float, Default: 0.2, Doc: "fraction of heavy users"},
			{Name: "capacity-factor", Kind: experiment.Float, Default: 0.6, Doc: "capacity / mean offered load"},
			{Name: "epochs", Kind: experiment.Int, Default: 300, Doc: "epochs to simulate"},
		},
		Run: runE3,
	})
	experiment.Register(experiment.Def{
		ID:    "cn-maintenance",
		Title: "Volunteer maintenance sweep",
		Claim: "Mesh availability saturates with a handful of volunteers; below that, repair delay and member churn explode.",
		Seed:  42,
		Aux:   true,
		Params: experiment.Schema{
			{Name: "nodes", Kind: experiment.Int, Default: 50, Min: experiment.Bound(1), Doc: "mesh nodes"},
			{Name: "failprob", Kind: experiment.Float, Default: 0.05, Doc: "per-node failure probability per epoch"},
			{Name: "epochs", Kind: experiment.Int, Default: 400, Doc: "epochs to simulate"},
			{Name: "max-volunteers", Kind: experiment.Int, Default: 6, Doc: "sweep volunteers 1..N"},
			{Name: "travel-limit", Kind: experiment.Int, Default: 0, Doc: "epochs before an unrepaired member churns (0 = never)"},
		},
		Run: runMaintenance,
	})
	experiment.Register(experiment.Def{
		ID:    "cn-topology",
		Title: "Topology-aware scheduling",
		Claim: "Hop-distance inequity persists under fair schedulers: far members see systematically lower max-min rates than near ones.",
		Seed:  42,
		Aux:   true,
		Params: experiment.Schema{
			{Name: "members", Kind: experiment.Int, Default: 30, Min: experiment.Bound(8), Doc: "community members"},
			{Name: "heavy-frac", Kind: experiment.Float, Default: 0.2, Doc: "fraction of heavy users"},
			{Name: "capacity-factor", Kind: experiment.Float, Default: 0.6, Doc: "capacity / mean offered load"},
			{Name: "epochs", Kind: experiment.Int, Default: 300, Doc: "epochs to simulate"},
			{Name: "radius", Kind: experiment.Float, Default: 0.35, Doc: "gateway placement radius for the hop-quartile table"},
		},
		Run: runTopology,
	})
	experiment.Register(experiment.Def{
		ID:    "cn-gateway",
		Title: "Backhaul gateway placement",
		Claim: "Where a community puts its backhaul is a lever no scheduler has: the 1-median gateway shortens paths and about halves the near/far rate gap of an arbitrary site, and a second gateway shortens paths again.",
		Seed:  7,
		Aux:   true,
		Params: experiment.Schema{
			{Name: "nodes", Kind: experiment.Int, Default: 30, Min: experiment.Bound(8), Doc: "mesh nodes"},
			{Name: "radius", Kind: experiment.Float, Default: 0.35, Doc: "radio range in unit-square units"},
		},
		Run: runGateway,
	})
}

// runE3 compares the three schedulers on one congestion configuration.
func runE3(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	rows, err := CompareSchedulers(SimConfig{
		Members:        p.Int("members"),
		HeavyFrac:      p.Float("heavy-frac"),
		CapacityFactor: p.Float("capacity-factor"),
		Epochs:         p.Int("epochs"),
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E3", "Community congestion management",
		"scheduler", "light-protected", "light-sat", "burst-sat", "heavy-sat", "utilization")
	for _, r := range rows {
		t.AddRow(r.Scheduler, experiment.F3(r.LightProtected), experiment.F3(r.LightSatisfaction),
			experiment.F3(r.BurstSatisfaction), experiment.F3(r.HeavySatisfaction), experiment.F3(r.Utilization))
	}
	return res, nil
}

// runMaintenance sweeps volunteer counts; each count is an independent
// simulation seeded from the config alone, so the sweep fans out and rows
// land at their index.
func runMaintenance(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	n := p.Int("max-volunteers")
	results, err := parallel.Map(ctx, n, experiment.WorkersFrom(ctx),
		func(i int) (MaintenanceResult, error) {
			return SimulateMaintenance(MaintenanceConfig{
				Nodes:       p.Int("nodes"),
				FailProb:    p.Float("failprob"),
				Volunteers:  i + 1,
				TravelLimit: p.Int("travel-limit"),
				Epochs:      p.Int("epochs"),
				Seed:        seed,
			})
		})
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("cn-maintenance", "Volunteer maintenance sweep",
		"volunteers", "availability", "mean-repair-delay", "abandoned")
	for i, r := range results {
		t.AddRow(experiment.I(i+1), experiment.F3(r.Availability),
			experiment.FP(r.MeanRepairDelay, 2), experiment.I(r.Abandoned))
	}
	return res, nil
}

// runTopology renders the topology-aware scheduler comparison and the
// hop-quartile rate table.
func runTopology(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	radius, err := radiusParam(p)
	if err != nil {
		return nil, err
	}
	cfg := SimConfig{
		Members:        p.Int("members"),
		HeavyFrac:      p.Float("heavy-frac"),
		CapacityFactor: p.Float("capacity-factor"),
		Epochs:         p.Int("epochs"),
		Seed:           seed,
	}
	res := &experiment.Result{}
	t := res.AddTable("cn-topology", "Topology-aware scheduler comparison",
		"scheduler", "near-sat", "far-sat", "gap")
	for _, s := range []Scheduler{Proportional{}, MaxMin{}, &CPR{}} {
		r, err := SimulateTopologyAware(cfg, s)
		if err != nil {
			return nil, err
		}
		t.AddRow(r.Scheduler, experiment.F3(r.NearSat), experiment.F3(r.FarSat),
			experiment.FP(r.Gap, 2))
	}
	rows, err := TopoGapExperiment(p.Int("members"), radius, seed)
	if err != nil {
		return nil, err
	}
	tb := res.AddTable("cn-topology-quartiles", "Max-min rate by hop quartile",
		"placement", "quartile", "mean-hops", "mean-rate")
	for _, r := range rows {
		tb.AddRow(r.Placement, experiment.I(r.Quartile),
			experiment.FP(r.MeanHops, 2), experiment.FP(r.MeanRate, 4))
	}
	return res, nil
}

// radiusParam returns the radius param, which must be positive: a radius of 0
// or NaN links no two nodes, and a negative one is no radio range.
func radiusParam(p experiment.Values) (float64, error) {
	r := p.Float("radius")
	if !(r > 0) {
		return 0, fmt.Errorf("%w %q = %v, want > 0", experiment.ErrBadParam, "radius", r)
	}
	return r, nil
}

// runGateway compares the default (node-0) gateway with the 1-median one
// on the same seeded mesh, each row with its max-min member rates at unit
// link capacity, then places the best second gateway on the optimized mesh.
func runGateway(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	radius, err := radiusParam(p)
	if err != nil {
		return nil, err
	}
	nodes := p.Int("nodes")
	gaps, err := TopoGapExperiment(nodes, radius, seed)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("cn-gateway", "Gateway placement",
		"placement", "links", "gateway", "mean-path-etx", "aggregate-capacity", "min-rate", "max-rate", "near/far-gap")
	var net *Network
	for _, pl := range placements {
		if net, err = pl.build(nodes, radius, rng.New(seed)); err != nil {
			return nil, err
		}
		rates, err := net.MaxMinRates(1)
		if err != nil {
			return nil, err
		}
		agg, lo, hi := 0.0, math.Inf(1), 0.0
		for i, r := range rates {
			agg += r
			if i != net.Gateway { // the gateway's own rate is 0
				lo, hi = min(lo, r), max(hi, r)
			}
		}
		t.AddRow(pl.name, experiment.I(net.G.M()), experiment.I(net.Gateway),
			experiment.FP(net.MeanPathETX(), 2), experiment.FP(agg, 2), experiment.F3(lo),
			experiment.F3(hi), experiment.FP(NearFarGap(gaps, pl.name), 2))
	}
	second, combined := BestSecondGateway(net.G, net.Gateway)
	res.AddTable("cn-gateway-second", "Best second gateway on the optimized mesh",
		"gateway", "second-gateway", "combined-mean-etx",
	).AddRow(experiment.I(net.Gateway), experiment.I(second), experiment.FP(combined, 2))
	return res, nil
}

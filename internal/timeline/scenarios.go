package timeline

// Scenario registrations for the temporal experiments: E17 (flap storm vs.
// incremental convergence), E18 (CN churn under a maintenance policy), and
// E19 (staged mandatory-peering rollout). Each builds its world and stream
// from the scenario seed alone and replays through the matching machine, so
// the registry, batch runner, disk cache, and humnetd serve them like any
// equilibrium scenario — the rows just happen to be ticks.

import (
	"context"
	"fmt"

	"repro/internal/bgpsim"
	"repro/internal/cn"
	"repro/internal/experiment"
	"repro/internal/ixp"
	"repro/internal/rng"
)

// streamSalt decorrelates the stream generator's seed from the world
// builder's: both derive from the scenario seed, but through different
// mixes, so the failure schedule never echoes the topology draw.
const streamSalt = 0x74696d656c696e65 // "timeline"

func init() {
	experiment.Register(experiment.Def{
		ID:    "E17",
		Title: "Flap storm vs. incremental convergence",
		Claim: "Under a sustained link/prefix flap storm, the incremental engine tracks cold convergence tick for tick: reachability dips and recovers with each flap window while per-event blast radius stays far below full-table recomputation.",
		Seed:  42,
		Params: experiment.Schema{
			{Name: "mids", Kind: experiment.Int, Default: 6, Min: experiment.Bound(1), Doc: "mid-tier ASes in the generated hierarchy"},
			{Name: "stubs", Kind: experiment.Int, Default: 12, Min: experiment.Bound(1), Doc: "stub ASes (each originates a prefix)"},
			{Name: "ticks", Kind: experiment.Int, Default: 24, Min: experiment.Bound(1), Max: experiment.Bound(MaxHorizon), Doc: "ticks to replay"},
			{Name: "per-tick", Kind: experiment.Int, Default: 2, Min: experiment.Bound(0), Doc: "flap attempts per tick"},
			{Name: "hold", Kind: experiment.Int, Default: 3, Min: experiment.Bound(1), Doc: "ticks a flapped link/prefix stays down"},
		},
		Run: runE17,
	})
	experiment.Register(experiment.Def{
		ID:    "E18",
		Title: "CN churn under maintenance policy",
		Claim: "With a fixed repair delay, served demand degrades gracefully under node churn — the CPR discipline keeps light users near full satisfaction even as the up-set shrinks.",
		Seed:  42,
		Params: experiment.Schema{
			{Name: "members", Kind: experiment.Int, Default: 24, Min: experiment.Bound(2), Doc: "community members sharing the uplink"},
			{Name: "ticks", Kind: experiment.Int, Default: 36, Min: experiment.Bound(1), Max: experiment.Bound(MaxHorizon), Doc: "ticks (demand epochs) to replay"},
			{Name: "fail-prob", Kind: experiment.Float, Default: 0.06, Doc: "per-member failure probability per tick"},
			{Name: "repair-after", Kind: experiment.Int, Default: 4, Min: experiment.Bound(1), Doc: "ticks until a failed member is repaired"},
			{Name: "heavy-frac", Kind: experiment.Float, Default: 0.2, Doc: "fraction of heavy users"},
			{Name: "capacity-factor", Kind: experiment.Float, Default: 0.6, Doc: "capacity / mean offered load"},
			{Name: "scheduler", Kind: experiment.String, Default: "cpr", Doc: "scheduling discipline: proportional, maxmin, or cpr"},
		},
		Run: runE18,
	})
	experiment.Register(experiment.Def{
		ID:    "E19",
		Title: "Staged mandatory-peering rollout",
		Claim: "Competitor IXP joins lift domestic traffic share stepwise, but incumbent-bound volume stays on foreign transit until the regulation tick forces the incumbent's sessions — membership alone does not localize traffic.",
		Seed:  42,
		Params: experiment.Schema{
			{Name: "competitors", Kind: experiment.Int, Default: 6, Min: experiment.Bound(1), Max: experiment.Bound(64), Doc: "competitor ASes rolling onto the IXP"},
			{Name: "start", Kind: experiment.Int, Default: 1, Min: experiment.Bound(0), Doc: "tick of the first join wave"},
			{Name: "wave-every", Kind: experiment.Int, Default: 2, Min: experiment.Bound(1), Doc: "ticks between join waves"},
			{Name: "wave-size", Kind: experiment.Int, Default: 2, Min: experiment.Bound(1), Doc: "joins per wave"},
			{Name: "regulate-at", Kind: experiment.Int, Default: 10, Min: experiment.Bound(0), Doc: "tick mandatory peering takes effect"},
			{Name: "ticks", Kind: experiment.Int, Default: 14, Min: experiment.Bound(1), Max: experiment.Bound(MaxHorizon), Doc: "ticks to replay"},
		},
		Run: runE19,
	})
}

// runE17 replays a flap storm through the incremental BGP engine.
func runE17(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	if err := checkStormSize(p); err != nil {
		return nil, err
	}
	h, err := bgpsim.BuildHierarchyOpts(rng.New(seed), bgpsim.HierarchyOpts{NMid: p.Int("mids"), NStub: p.Int("stubs")})
	if err != nil {
		return nil, err
	}
	st, err := GenFlapStorm(h, seed^streamSalt, p.Int("ticks"), p.Int("per-tick"), p.Int("hold"))
	if err != nil {
		return nil, err
	}
	m, err := NewBGPMachine(ctx, h.Topo, experiment.WorkersFrom(ctx))
	if err != nil {
		return nil, err
	}
	series, err := ReplayCtx(ctx, st, m)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	series.Table(res, "E17", "Flap storm vs. incremental convergence")
	totEvents, totCells, minShare := 0.0, 0.0, 1.0
	for _, row := range series.Rows {
		totEvents += row[0]
		totCells += row[1]
		if row[3] < minShare {
			minShare = row[3]
		}
	}
	_, totalCells := m.State().Tables().ReachableCells()
	sum := res.AddTable("E17-totals", "Flap storm totals",
		"events", "cells-touched", "table-cells", "min-reach-share")
	sum.AddRow(experiment.I(int(totEvents)), experiment.I(int(totCells)),
		experiment.I(totalCells), experiment.F3(minShare))
	return res, nil
}

// churnStream generates the member churn E18 and E21 replay from their
// params. GenCNChurn refuses a fail-prob outside [0, 1]; here that is a bad
// param.
func churnStream(p experiment.Values, seed uint64, ticks int) (Stream, error) {
	failProb := p.Float("fail-prob")
	if failProb < 0 || failProb > 1 {
		return Stream{}, fmt.Errorf("%w %q = %v, want in [0, 1]", experiment.ErrBadParam, "fail-prob", failProb)
	}
	return GenCNChurn(p.Int("members"), seed^streamSalt, ticks, failProb, p.Int("repair-after"))
}

// runE18 replays member churn through the community-network machine.
func runE18(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	sched, err := schedulerByName(p.String("scheduler"))
	if err != nil {
		return nil, err
	}
	st, err := churnStream(p, seed, p.Int("ticks"))
	if err != nil {
		return nil, err
	}
	m, err := NewCNMachine(cn.ChurnConfig{
		Members:        p.Int("members"),
		HeavyFrac:      p.Float("heavy-frac"),
		CapacityFactor: p.Float("capacity-factor"),
		Seed:           seed,
	}, sched)
	if err != nil {
		return nil, err
	}
	series, err := ReplayCtx(ctx, st, m)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	series.Table(res, "E18", "CN churn under maintenance policy")
	minUp, minShare, satSum := float64(p.Int("members")), 1.0, 0.0
	for _, row := range series.Rows {
		if row[0] < minUp {
			minUp = row[0]
		}
		if row[3] < minShare {
			minShare = row[3]
		}
		satSum += row[4]
	}
	sum := res.AddTable("E18-totals", "Churn summary",
		"scheduler", "min-up", "min-served-share", "mean-light-sat")
	sum.AddRow(sched.Name(), experiment.I(int(minUp)),
		experiment.F3(minShare), experiment.F3(satSum/float64(len(series.Rows))))
	return res, nil
}

// schedulerByName maps the E18 scheduler parameter to a discipline.
func schedulerByName(name string) (cn.Scheduler, error) {
	switch name {
	case "proportional":
		return cn.Proportional{}, nil
	case "maxmin":
		return cn.MaxMin{}, nil
	case "cpr":
		return &cn.CPR{}, nil
	default:
		return nil, fmt.Errorf("%w %q: unknown scheduler %q (want proportional, maxmin, or cpr)", experiment.ErrBadParam, "scheduler", name)
	}
}

// runE19 replays a staged rollout plus regulation through the IXP machine.
func runE19(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	if err := checkRegulateAt(p); err != nil {
		return nil, err
	}
	nComp, ticks := p.Int("competitors"), p.Int("ticks")
	f, demands, comps, err := mxMarket(nComp)
	if err != nil {
		return nil, err
	}

	rollout, err := GenStagedRollout(ixp.MXExchange, comps, ixp.Open, seed^streamSalt,
		p.Int("start"), p.Int("wave-every"), p.Int("wave-size"), ticks)
	if err != nil {
		return nil, err
	}
	fixed := Stream{Horizon: ticks, Events: []Event{
		{At: 0, Kind: KindIXPJoin, Name: ixp.MXExchange, ASN: ixp.MXIncumbent, Policy: ixp.Restrictive},
		{At: p.Int("regulate-at"), Kind: KindRegulate, Name: "MX"},
	}}
	// One competitor churns off and back onto the exchange after regulation,
	// exercising session retraction mid-stream — but only if the staged
	// rollout actually got that competitor onto the exchange by then.
	joinedAt := -1
	for _, e := range rollout.Events {
		if e.Kind == KindIXPJoin && e.ASN == comps[0] {
			joinedAt = e.At
			break
		}
	}
	if at := p.Int("regulate-at") + 2; joinedAt >= 0 && at > joinedAt && at+1 < ticks {
		fixed.Events = append(fixed.Events,
			Event{At: at, Kind: KindIXPLeave, Name: ixp.MXExchange, ASN: comps[0]},
			Event{At: at + 1, Kind: KindIXPJoin, Name: ixp.MXExchange, ASN: comps[0], Policy: ixp.Open})
	}

	m, err := NewIXPMachine(ctx, f, demands, "MX", experiment.WorkersFrom(ctx))
	if err != nil {
		return nil, err
	}
	st, err := Merge(rollout, fixed)
	if err != nil {
		return nil, err
	}
	series, err := ReplayCtx(ctx, st, m)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	series.Table(res, "E19", "Staged mandatory-peering rollout")
	first, last := series.Rows[0], series.Rows[len(series.Rows)-1]
	sum := res.AddTable("E19-totals", "Rollout summary",
		"domestic-initial", "domestic-final", "sessions-final", "members-final")
	sum.AddRow(experiment.F3(first[2]), experiment.F3(last[2]),
		experiment.I(int(last[1])), experiment.I(int(last[0])))
	return res, nil
}

package timeline

// Composed mega-scenarios: E20 (mandatory-peering rollout under routing
// pressure: timeline → bgpsim → ixp), E21 (regional outage cascade: bgpsim
// reach-loss driving cn demand under a scheduler discipline), and E22
// (stakeholder response closing the loop through survey/par). Each couples
// two domains through Compose with cascade rules, replays one merged stream,
// and renders per-part time series plus the cascade injection log — the
// cross-domain dynamics the paper's §3–§4 describe, flowing through the same
// registry/runner/cache/daemon path as every other scenario.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bgpsim"
	"repro/internal/cn"
	"repro/internal/experiment"
	"repro/internal/ixp"
	"repro/internal/rng"
)

// mxMarket builds ixp's Mexican market with nComp competitors (an empty
// exchange) and the demand matrix the Mexican scenarios (E19, E20, E22)
// measure: every ordered pair of MX eyeballs, the incumbent and the
// competitors, exchanges one unit. Pure construction — no RNG — so every
// scenario sharing it builds the identical world.
func mxMarket(nComp int) (*ixp.Fabric, []ixp.Demand, []bgpsim.ASN, error) {
	f, comps, err := ixp.NewMXMarket(nComp)
	if err != nil {
		return nil, nil, nil, err
	}
	eyeballs := append([]bgpsim.ASN{ixp.MXIncumbent}, comps...)
	var demands []ixp.Demand
	for _, src := range eyeballs {
		for _, dst := range eyeballs {
			if src != dst {
				demands = append(demands, ixp.Demand{Src: src, Prefix: f.Topo.Origins(dst)[0], Volume: 1})
			}
		}
	}
	return f, demands, comps, nil
}

// checkRegulateAt refuses a regulation tick that the stream's horizon does
// not reach. The schema bounds regulate-at below; its upper bound is ticks.
func checkRegulateAt(p experiment.Values) error {
	if at, ticks := p.Int("regulate-at"), p.Int("ticks"); at >= ticks {
		return fmt.Errorf("%w %q = %d, want below ticks=%d", experiment.ErrBadParam, "regulate-at", at, ticks)
	}
	return nil
}

// checkStormSize refuses a flap storm too large for one stream: up to
// 2·ticks·per-tick events (a down and an up per flap) beyond MaxEvents. The
// schema bounds ticks and per-tick one at a time; this is their product.
func checkStormSize(p experiment.Values) error {
	if ticks, perTick := p.Int("ticks"), p.Int("per-tick"); perTick > MaxEvents/(2*ticks) {
		return fmt.Errorf("%w %q = %d: up to 2·ticks·per-tick events exceed %d at ticks=%d",
			experiment.ErrBadParam, "per-tick", perTick, MaxEvents, ticks)
	}
	return nil
}

func init() {
	experiment.Register(experiment.Def{
		ID:    "E20",
		Title: "Coupled rollout: routing pressure joins the exchange",
		Claim: "When a flap storm degrades transit reachability, cascade pressure pushes competitors onto the exchange ahead of the staged rollout schedule: the coupled economy reaches full membership and higher domestic share earlier than the uncoupled control.",
		Seed:  42,
		Params: experiment.Schema{
			{Name: "mids", Kind: experiment.Int, Default: 4, Min: experiment.Bound(1), Doc: "mid-tier ASes in the routing hierarchy"},
			{Name: "stubs", Kind: experiment.Int, Default: 10, Min: experiment.Bound(1), Doc: "stub ASes (each originates a prefix)"},
			{Name: "per-tick", Kind: experiment.Int, Default: 2, Min: experiment.Bound(0), Doc: "flap attempts per tick"},
			{Name: "hold", Kind: experiment.Int, Default: 3, Min: experiment.Bound(1), Doc: "ticks a flapped link/prefix stays down"},
			{Name: "competitors", Kind: experiment.Int, Default: 6, Min: experiment.Bound(1), Max: experiment.Bound(64), Doc: "competitor ASes rolling onto the IXP"},
			{Name: "start", Kind: experiment.Int, Default: 2, Min: experiment.Bound(0), Doc: "tick of the first scheduled join wave"},
			{Name: "wave-every", Kind: experiment.Int, Default: 3, Min: experiment.Bound(1), Doc: "ticks between join waves"},
			{Name: "wave-size", Kind: experiment.Int, Default: 1, Min: experiment.Bound(1), Doc: "joins per wave"},
			{Name: "regulate-at", Kind: experiment.Int, Default: 12, Min: experiment.Bound(0), Doc: "tick mandatory peering takes effect"},
			{Name: "press-below", Kind: experiment.Float, Default: 0.97, Doc: "reach-share below which routing pressure fires"},
			{Name: "ticks", Kind: experiment.Int, Default: 16, Min: experiment.Bound(1), Max: experiment.Bound(MaxHorizon), Doc: "ticks to replay"},
		},
		Run: runE20,
	})
	experiment.Register(experiment.Def{
		ID:    "E21",
		Title: "Regional outage cascade into the community network",
		Claim: "A regional transit outage propagates across domains: BGP reach-loss triggers a demand surge in the community network, and the CPR discipline holds light-user satisfaction through the surge that proportional sharing would sacrifice.",
		Seed:  42,
		Params: experiment.Schema{
			{Name: "mids", Kind: experiment.Int, Default: 4, Min: experiment.Bound(1), Doc: "mid-tier ASes in the routing hierarchy"},
			{Name: "stubs", Kind: experiment.Int, Default: 10, Min: experiment.Bound(1), Doc: "stub ASes (each originates a prefix)"},
			{Name: "region", Kind: experiment.Int, Default: 3, Min: experiment.Bound(1), Doc: "stubs in the outage region"},
			{Name: "out-at", Kind: experiment.Int, Default: 6, Min: experiment.Bound(0), Doc: "tick the regional outage begins"},
			{Name: "out-len", Kind: experiment.Int, Default: 8, Min: experiment.Bound(1), Doc: "ticks the outage lasts"},
			{Name: "members", Kind: experiment.Int, Default: 24, Min: experiment.Bound(2), Doc: "community members sharing the uplink"},
			{Name: "fail-prob", Kind: experiment.Float, Default: 0.04, Doc: "per-member background failure probability per tick"},
			{Name: "repair-after", Kind: experiment.Int, Default: 4, Min: experiment.Bound(1), Doc: "ticks until a failed member is repaired"},
			{Name: "heavy-frac", Kind: experiment.Float, Default: 0.2, Doc: "fraction of heavy users"},
			{Name: "capacity-factor", Kind: experiment.Float, Default: 0.6, Doc: "capacity / mean offered load"},
			{Name: "scheduler", Kind: experiment.String, Default: "cpr", Doc: "scheduling discipline: proportional, maxmin, or cpr"},
			{Name: "surge", Kind: experiment.Float, Default: 2.5, Doc: "demand scale while reachability is degraded"},
			{Name: "reach-thr", Kind: experiment.Float, Default: 0.95, Doc: "reach-share below which demand surges"},
			{Name: "ticks", Kind: experiment.Int, Default: 28, Min: experiment.Bound(1), Max: experiment.Bound(MaxHorizon), Doc: "ticks to replay"},
		},
		Run: runE21,
	})
	experiment.Register(experiment.Def{
		ID:    "E22",
		Title: "Stakeholder response closes the loop",
		Claim: "Poor traffic locality depresses community-operator attitudes; the stratified survey — biased toward visible operators — still detects the drop, a one-shot regulation follows, and forced incumbent peering restores both locality and attitude while marginal stakeholders enter the evaluation phase.",
		Seed:  42,
		Params: experiment.Schema{
			{Name: "competitors", Kind: experiment.Int, Default: 6, Min: experiment.Bound(1), Max: experiment.Bound(64), Doc: "competitor ASes rolling onto the IXP"},
			{Name: "start", Kind: experiment.Int, Default: 1, Min: experiment.Bound(0), Doc: "tick of the first join wave"},
			{Name: "wave-every", Kind: experiment.Int, Default: 2, Min: experiment.Bound(1), Doc: "ticks between join waves"},
			{Name: "wave-size", Kind: experiment.Int, Default: 2, Min: experiment.Bound(1), Doc: "joins per wave"},
			{Name: "sample-per-stratum", Kind: experiment.Int, Default: 25, Min: experiment.Bound(1), Doc: "survey contacts per stratum per tick"},
			{Name: "noise", Kind: experiment.Float, Default: 0.05, Doc: "survey response noise"},
			{Name: "respond-below", Kind: experiment.Float, Default: 0.45, Doc: "measured attitude below which regulation fires"},
			{Name: "mood-spread", Kind: experiment.Float, Default: 0.6, Doc: "attitude shift per unit of domestic-share deviation from 0.5"},
			{Name: "ticks", Kind: experiment.Int, Default: 12, Min: experiment.Bound(1), Max: experiment.Bound(MaxHorizon), Doc: "ticks to replay"},
		},
		Run: runE22,
	})
}

// runE20 replays the coupled rollout (flap storm + staged joins + cascade
// pressure) and an uncoupled control of the same world and stream, then
// compares them.
func runE20(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	if err := checkRegulateAt(p); err != nil {
		return nil, err
	}
	if err := checkStormSize(p); err != nil {
		return nil, err
	}
	nComp, ticks := p.Int("competitors"), p.Int("ticks")
	pressBelow := p.Float("press-below")
	h, err := bgpsim.BuildHierarchyOpts(rng.New(seed), bgpsim.HierarchyOpts{NMid: p.Int("mids"), NStub: p.Int("stubs")})
	if err != nil {
		return nil, err
	}

	// The merged stream is shared by both runs; the worlds must be fresh per
	// run (replay mutates them), so each routes over its own clone of h. The
	// control composes the same parts with no cascade rules — the uncoupled
	// economy.
	build := func(coupled bool) (*Composition, []bgpsim.ASN, error) {
		routing, err := NewBGPMachine(ctx, h.Topo.Clone(), experiment.WorkersFrom(ctx))
		if err != nil {
			return nil, nil, err
		}
		f, demands, comps, err := mxMarket(nComp)
		if err != nil {
			return nil, nil, err
		}
		attachment, err := NewIXPMachine(ctx, f, demands, "MX", experiment.WorkersFrom(ctx))
		if err != nil {
			return nil, nil, err
		}
		var rules []CascadeRule
		if coupled {
			rules = []CascadeRule{{
				Name:  "outage-pressure",
				From:  "routing",
				Delay: 1,
				Once:  true,
				Fire: func(o Obs) []Event {
					share, ok := o.Value("reach-share")
					if !ok || share >= pressBelow {
						return nil
					}
					evs := make([]Event, 0, len(comps))
					for _, c := range comps {
						evs = append(evs, Event{Kind: KindIXPPressure, Name: ixp.MXExchange, ASN: c, Policy: ixp.Open})
					}
					return evs
				},
			}}
		}
		comp, err := Compose([]Part{{Name: "routing", M: routing}, {Name: "attachment", M: attachment}}, rules)
		return comp, comps, err
	}
	coupled, comps, err := build(true)
	if err != nil {
		return nil, err
	}
	control, _, err := build(false)
	if err != nil {
		return nil, err
	}

	// Stream: the storm over the hierarchy, the staged rollout and scheduled
	// regulation over the exchange.
	storm, err := GenFlapStorm(h, seed^streamSalt, ticks, p.Int("per-tick"), p.Int("hold"))
	if err != nil {
		return nil, err
	}
	rollout, err := GenStagedRollout(ixp.MXExchange, comps, ixp.Open, seed^streamSalt,
		p.Int("start"), p.Int("wave-every"), p.Int("wave-size"), ticks)
	if err != nil {
		return nil, err
	}
	// The schedule is a plan, not a guarantee: cascade pressure may get a
	// competitor onto the exchange before its wave. Soften the scheduled
	// joins to pressure events (idempotent joins) so the plan and the
	// cascade compose.
	for i, e := range rollout.Events {
		if e.Kind == KindIXPJoin {
			rollout.Events[i].Kind = KindIXPPressure
		}
	}
	fixed := Stream{Horizon: ticks, Events: []Event{
		{At: 0, Kind: KindIXPJoin, Name: ixp.MXExchange, ASN: ixp.MXIncumbent, Policy: ixp.Restrictive},
		{At: p.Int("regulate-at"), Kind: KindRegulate, Name: "MX"},
	}}
	st, err := Merge(storm, rollout, fixed)
	if err != nil {
		return nil, err
	}

	coupledOut, err := coupled.ReplayCtx(ctx, st)
	if err != nil {
		return nil, err
	}
	controlOut, err := control.ReplayCtx(ctx, st)
	if err != nil {
		return nil, err
	}

	res := &experiment.Result{}
	coupledOut.Tables(res, "E20", "Coupled rollout")
	sum := res.AddTable("E20-vs-control", "Coupled vs. uncoupled rollout",
		"run", "members-final", "sessions-final", "domestic-final", "pressure-events")
	for _, r := range []struct {
		name string
		out  *ComposedSeries
	}{{"coupled", coupledOut}, {"control", controlOut}} {
		att := r.out.Series[1]
		last := att.Rows[len(att.Rows)-1]
		sum.AddRow(r.name, experiment.I(int(last[0])), experiment.I(int(last[1])),
			experiment.F3(last[2]), experiment.I(len(r.out.Injected)))
	}
	return res, nil
}

// runE21 replays a scripted regional outage through the routing part while a
// cascade rule re-asserts the community network's demand scale every tick:
// surge while reachability is degraded, baseline otherwise.
func runE21(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	ticks := p.Int("ticks")
	region, outAt, outLen := p.Int("region"), p.Int("out-at"), p.Int("out-len")
	h, err := bgpsim.BuildHierarchyOpts(rng.New(seed), bgpsim.HierarchyOpts{NMid: p.Int("mids"), NStub: p.Int("stubs")})
	if err != nil {
		return nil, err
	}
	if region < 1 || region > len(h.Stubs) {
		return nil, fmt.Errorf("%w %q = %d, want in [1, stubs=%d]", experiment.ErrBadParam, "region", region, len(h.Stubs))
	}
	if outAt < 0 || outLen < 1 || outAt+outLen >= ticks {
		return nil, fmt.Errorf("%w: outage out-at=%d out-len=%d does not fit before ticks=%d", experiment.ErrBadParam, outAt, outLen, ticks)
	}
	surge, reachThr := p.Float("surge"), p.Float("reach-thr")
	if surge <= 0 || surge > MaxDemandScale {
		return nil, fmt.Errorf("%w %q = %v, want in (0, %d]", experiment.ErrBadParam, "surge", surge, MaxDemandScale)
	}
	sched, err := schedulerByName(p.String("scheduler"))
	if err != nil {
		return nil, err
	}

	// The outage: every provider link of the region's stubs goes down at
	// out-at and is restored out-len ticks later.
	outage := Stream{Horizon: ticks}
	for _, stub := range h.Stubs[:region] {
		for _, prov := range h.Topo.Providers(stub) {
			down := bgpsim.Delta{Kind: bgpsim.DeltaLinkDown, A: prov, B: stub}
			up := bgpsim.Delta{Kind: bgpsim.DeltaLinkUp, A: prov, B: stub}
			outage.Events = append(outage.Events,
				Event{At: outAt, Kind: KindBGP, Delta: down},
				Event{At: outAt + outLen, Kind: KindBGP, Delta: up})
		}
	}
	churn, err := churnStream(p, seed, ticks)
	if err != nil {
		return nil, err
	}
	st, err := Merge(outage, churn)
	if err != nil {
		return nil, err
	}
	if len(st.Events) > MaxEvents {
		return nil, fmt.Errorf("%w %q = %d: churn and outage make %d events, over %d",
			experiment.ErrBadParam, "ticks", ticks, len(st.Events), MaxEvents)
	}

	routing, err := NewBGPMachine(ctx, h.Topo, experiment.WorkersFrom(ctx))
	if err != nil {
		return nil, err
	}
	community, err := NewCNMachine(cn.ChurnConfig{
		Members:        p.Int("members"),
		HeavyFrac:      p.Float("heavy-frac"),
		CapacityFactor: p.Float("capacity-factor"),
		Seed:           seed,
	}, sched)
	if err != nil {
		return nil, err
	}
	// The rule tracks the scale it last asserted so the injection log records
	// transitions (surge onset, recovery) instead of a per-tick drumbeat; the
	// demand scale is sticky in the community machine, so asserting only the
	// changes replays identically.
	lastScale := 1.0
	comp, err := Compose(
		[]Part{{Name: "routing", M: routing}, {Name: "community", M: community}},
		[]CascadeRule{{
			Name:  "demand-coupling",
			From:  "routing",
			Delay: 1,
			Fire: func(o Obs) []Event {
				share, ok := o.Value("reach-share")
				if !ok {
					return nil
				}
				scale := 1.0
				if share < reachThr {
					scale = surge
				}
				if scale == lastScale {
					return nil
				}
				lastScale = scale
				return []Event{{Kind: KindCNDemand, Value: scale}}
			},
		}},
	)
	if err != nil {
		return nil, err
	}
	out, err := comp.ReplayCtx(ctx, st)
	if err != nil {
		return nil, err
	}

	res := &experiment.Result{}
	out.Tables(res, "E21", "Regional outage cascade")
	comm := out.Series[1]
	minSat, minShare := 1.0, 1.0
	for _, row := range comm.Rows {
		if row[4] < minSat {
			minSat = row[4]
		}
		if row[3] < minShare {
			minShare = row[3]
		}
	}
	surgeOnsets := 0
	for _, e := range out.Injected {
		if e.Kind == KindCNDemand && e.Value > 1 {
			surgeOnsets++
		}
	}
	sum := res.AddTable("E21-totals", "Outage cascade summary",
		"scheduler", "surge-onsets", "min-served-share", "min-light-sat")
	sum.AddRow(sched.Name(), experiment.I(surgeOnsets),
		experiment.F3(minShare), experiment.F3(minSat))
	return res, nil
}

// runE22 replays the closed loop: attachment locality moves stakeholder
// attitudes; the measured attitude, once below the response threshold, fires
// a one-shot regulation back into the attachment domain.
func runE22(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	nComp, ticks := p.Int("competitors"), p.Int("ticks")
	spread, respondBelow, noise := p.Float("mood-spread"), p.Float("respond-below"), p.Float("noise")
	if respondBelow < 0 || respondBelow > 1 {
		return nil, fmt.Errorf("%w %q = %v, want in [0, 1]", experiment.ErrBadParam, "respond-below", respondBelow)
	}
	if noise < 0 {
		return nil, fmt.Errorf("%w %q = %v, want at least 0", experiment.ErrBadParam, "noise", noise)
	}
	f, demands, comps, err := mxMarket(nComp)
	if err != nil {
		return nil, err
	}
	attachment, err := NewIXPMachine(ctx, f, demands, "MX", experiment.WorkersFrom(ctx))
	if err != nil {
		return nil, err
	}
	stakeholders, err := NewStakeholderMachine(seed^streamSalt,
		p.Int("sample-per-stratum"), noise, respondBelow)
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
	}}
	st, err := Merge(rollout, fixed)
	if err != nil {
		return nil, err
	}

	// The mood shift is quantized to millis (legible logs, exact replay) and
	// only re-asserted when it changes — the shift is sticky in the
	// stakeholder machine, so transitions replay identically to a drumbeat.
	lastShift := math.NaN()
	comp, err := Compose(
		[]Part{{Name: "attachment", M: attachment}, {Name: "stakeholders", M: stakeholders}},
		[]CascadeRule{
			{
				Name:  "service-mood",
				From:  "attachment",
				Delay: 1,
				Fire: func(o Obs) []Event {
					domestic, ok := o.Value("domestic")
					if !ok {
						return nil
					}
					shift := math.Round(spread*(domestic-0.5)*1000) / 1000
					if shift < -1 {
						shift = -1
					}
					if shift > 1 {
						shift = 1
					}
					if shift == lastShift {
						return nil
					}
					lastShift = shift
					return []Event{{Kind: KindStakeShift, Value: shift}}
				},
			},
			{
				Name:  "backlash-regulation",
				From:  "stakeholders",
				Delay: 1,
				Once:  true,
				Fire: func(o Obs) []Event {
					measured, ok := o.Value("measured")
					if !ok || measured >= respondBelow {
						return nil
					}
					return []Event{{Kind: KindRegulate, Name: "MX"}}
				},
			},
		},
	)
	if err != nil {
		return nil, err
	}
	out, err := comp.ReplayCtx(ctx, st)
	if err != nil {
		return nil, err
	}

	res := &experiment.Result{}
	out.Tables(res, "E22", "Stakeholder response loop")
	att, stake := out.Series[0], out.Series[1]
	attitudeMin := 1.0
	for _, row := range stake.Rows {
		if row[0] < attitudeMin {
			attitudeMin = row[0]
		}
	}
	regulateTick := -1
	for _, e := range out.Injected {
		if e.Kind == KindRegulate {
			regulateTick = e.At
			break
		}
	}
	lastAtt := att.Rows[len(att.Rows)-1]
	firstStake, lastStake := stake.Rows[0], stake.Rows[len(stake.Rows)-1]
	sum := res.AddTable("E22-totals", "Loop summary",
		"attitude-initial", "attitude-min", "attitude-final",
		"regulate-tick", "domestic-final", "engagement-final")
	sum.AddRow(experiment.F3(firstStake[0]), experiment.F3(attitudeMin), experiment.F3(lastStake[0]),
		experiment.I(regulateTick), experiment.F3(lastAtt[2]), experiment.F3(lastStake[3]))
	return res, nil
}

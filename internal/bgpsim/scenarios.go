package bgpsim

import (
	"context"

	"repro/internal/experiment"
)

// Scenario registrations for the routing-security experiments: E14
// (route-leak blast radius) and E16 (exact-prefix hijack capture), both over
// the generated provider hierarchy and the compiled routing engine.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E14",
		Title: "Route-leak blast radius",
		Claim: "A single mid-tier misconfiguration propagates through valley-free routing to a large share of the reachable ASes; stub leaks stay contained.",
		Seed:  5,
		Params: experiment.Schema{
			{Name: "mids", Kind: experiment.Int, Default: 8, Min: experiment.Bound(1), Doc: "mid-tier AS count in the generated hierarchy"},
			{Name: "stubs", Kind: experiment.Int, Default: 20, Min: experiment.Bound(1), Doc: "stub AS count in the generated hierarchy"},
		},
		Run: runE14,
	})
	experiment.Register(experiment.Def{
		ID:    "E16",
		Title: "Exact-prefix hijack capture",
		Claim: "MOAS hijack capture depends on the attacker's topological position: well-connected mids capture most of the table, stubs only their cone.",
		Seed:  5,
		Params: experiment.Schema{
			{Name: "mids", Kind: experiment.Int, Default: 8, Min: experiment.Bound(1), Doc: "mid-tier AS count in the generated hierarchy"},
			{Name: "stubs", Kind: experiment.Int, Default: 20, Min: experiment.Bound(1), Doc: "stub AS count in the generated hierarchy"},
		},
		Run: runE16,
	})
}

// runE14 measures leak blast radii across leaker positions.
func runE14(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	rows, err := RunLeakSweepCtx(ctx, p.Int("mids"), p.Int("stubs"), seed, experiment.WorkersFrom(ctx))
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E14", "Route-leak blast radius",
		"leaker", "asn", "providers", "affected", "affected-share")
	for _, r := range rows {
		t.AddRow(r.LeakerKind, experiment.I64(int64(r.LeakerASN)), experiment.I(r.Providers),
			experiment.I(r.Affected), experiment.F3(r.AffectedShare))
	}
	return res, nil
}

// runE16 measures hijack capture across attacker positions.
func runE16(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	rows, err := RunHijackSweepCtx(ctx, p.Int("mids"), p.Int("stubs"), seed, experiment.WorkersFrom(ctx))
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E16", "Exact-prefix hijack capture",
		"attacker", "asn", "captured", "captured-share")
	for _, r := range rows {
		t.AddRow(r.AttackerKind, experiment.I64(int64(r.AttackerASN)),
			experiment.I(r.Captured), experiment.F3(r.CapturedShare))
	}
	return res, nil
}

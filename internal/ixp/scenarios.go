package ixp

import (
	"context"

	"repro/internal/experiment"
)

// Scenario registrations for the interconnection experiments: E1 (mandatory
// peering vs ASN circumvention, with the E1b regulator counter-move) and E2
// (giant-IXP gravity, with the E2b remote-peering economics). Registered in
// init(), so any binary linking this package resolves them by ID.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E1",
		Title: "Mandatory peering vs ASN circumvention",
		Claim: "Mandated incumbent peering is circumvented through shell ASNs: session counts rise while traffic locality stays flat until users migrate to the member AS.",
		Params: experiment.Schema{
			{Name: "competitors", Kind: experiment.Int, Default: 6, Min: experiment.Bound(1), Doc: "number of competitor ISPs at the exchange"},
			{Name: "incumbent-share", Kind: experiment.Float, Default: 0.6, Doc: "incumbent's user share"},
			{Name: "max-shells", Kind: experiment.Int, Default: 6, Doc: "max shell ASNs to sweep in the circumvented regime"},
			{Name: "migrated-shares", Kind: experiment.String, Default: "0,0.25,0.5,0.75,1", Doc: "comma-separated migrated-user shares for the E1b policy sweep"},
		},
		Run: runE1,
	})
	experiment.Register(experiment.Def{
		ID:    "E2",
		Title: "Giant-IXP gravity",
		Claim: "Content gravity pulls Global-South traffic to giant exchanges until local content presence crosses a threshold; remote-peering adoption flips at port cost = volume x transit price.",
		Seed:  42,
		Params: experiment.Schema{
			{Name: "isps", Kind: experiment.Int, Default: 60, Doc: "number of Global-South ISPs"},
			{Name: "local-ixps", Kind: experiment.Int, Default: 6, Min: experiment.Bound(1), Doc: "number of local exchanges"},
			{Name: "presences", Kind: experiment.String, Default: "0,0.2,0.4,0.6,0.8,1", Doc: "comma-separated local content-presence levels to sweep"},
			{Name: "econ-isps", Kind: experiment.Int, Default: 40, Min: experiment.Bound(1), Doc: "E2b: Global-South ISPs in the economics model"},
			{Name: "econ-ixps", Kind: experiment.Int, Default: 4, Min: experiment.Bound(1), Doc: "E2b: local exchanges in the economics model"},
			{Name: "content-presence", Kind: experiment.Float, Default: 0.5, Doc: "E2b: local content presence"},
			{Name: "content-volume", Kind: experiment.Float, Default: 10.0, Doc: "E2b: traffic volume toward the giant IXP's content"},
			{Name: "transit-price", Kind: experiment.Float, Default: 2.0, Doc: "E2b: transit price per traffic unit"},
			{Name: "econ-seed", Kind: experiment.Uint, Default: uint64(9), Doc: "E2b: economics model seed"},
			{Name: "port-costs", Kind: experiment.String, Default: "5,15,19,21,30,80", Doc: "E2b: comma-separated remote port costs to sweep"},
		},
		Run: runE2,
	})
}

// runE1 reproduces the Telmex case: the circumvention sweep plus the
// regulator's user-migration counter-move.
func runE1(ctx context.Context, p experiment.Values, _ uint64) (*experiment.Result, error) {
	workers := experiment.WorkersFrom(ctx)
	res := &experiment.Result{}

	rows, err := CircumventionSweepCtx(ctx, p.Int("competitors"), p.Float("incumbent-share"), p.Int("max-shells"), workers)
	if err != nil {
		return nil, err
	}
	t := res.AddTable("E1", "Mandatory peering vs ASN circumvention",
		"scenario", "shells", "sessions", "locality", "incumbent-locality")
	for _, r := range rows {
		t.AddRow(r.Mode.String(), experiment.I(r.Shells), experiment.I(r.IXPSessions),
			experiment.F3(r.DomesticShare), experiment.F3(r.IncumbentLocal))
	}

	migrations, err := p.Floats("migrated-shares")
	if err != nil {
		return nil, err
	}
	pol, err := PolicySweepCtx(ctx, p.Int("competitors"), p.Float("incumbent-share"), migrations, workers)
	if err != nil {
		return nil, err
	}
	tb := res.AddTable("E1b", "Regulator counter-move: migrate users to the member AS",
		"migrated-share", "locality", "incumbent-locality")
	for i, r := range pol {
		tb.AddRow(experiment.F3(migrations[i]), experiment.F3(r.DomesticShare), experiment.F3(r.IncumbentLocal))
	}
	return res, nil
}

// runE2 reproduces the DE-CIX case: the gravity sweep plus the
// remote-peering economics crossover.
func runE2(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	workers := experiment.WorkersFrom(ctx)
	res := &experiment.Result{}

	presences, err := p.Floats("presences")
	if err != nil {
		return nil, err
	}
	rows, err := GravitySweepCtx(ctx, p.Int("isps"), p.Int("local-ixps"), presences, seed, workers)
	if err != nil {
		return nil, err
	}
	t := res.AddTable("E2", "Giant-IXP gravity",
		"content-presence", "giant-share", "local-share", "transit-share", "remote-peered")
	for _, r := range rows {
		t.AddRow(experiment.F3(r.ContentPresence), experiment.F3(r.GiantIXPShare),
			experiment.F3(r.LocalIXPShare), experiment.F3(r.TransitShare), experiment.I(r.RemotePeered))
	}

	costs, err := p.Floats("port-costs")
	if err != nil {
		return nil, err
	}
	econ, err := EconomicSweepCtx(ctx, EconConfig{
		SouthISPs:           p.Int("econ-isps"),
		LocalIXPs:           p.Int("econ-ixps"),
		ContentPresence:     p.Float("content-presence"),
		ContentVolume:       p.Float("content-volume"),
		TransitPricePerUnit: p.Float("transit-price"),
		Seed:                p.Uint("econ-seed"),
	}, costs)
	if err != nil {
		return nil, err
	}
	tb := res.AddTable("E2b", "Remote-peering economics (crossover at port cost 20)",
		"port-cost", "remote-peered", "giant-share", "transit-share", "mean-cost")
	for _, r := range econ {
		tb.AddRow(experiment.FP(r.RemotePortCost, 1), experiment.I(r.RemotePeered),
			experiment.F3(r.GiantIXPShare), experiment.F3(r.TransitShare), experiment.F3(r.MeanCost))
	}
	return res, nil
}

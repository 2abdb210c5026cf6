package par

import (
	"context"

	"repro/internal/experiment"
)

// Scenario registrations for the participatory-action-research experiments:
// E4 (community-driven problem discovery) and E10 (iterative co-design).

func init() {
	experiment.Register(experiment.Def{
		ID:    "E4",
		Title: "Problem discovery",
		Claim: "Community partnerships surface marginal problems that visibility-ranked agendas structurally miss, at comparable mean impact.",
		Seed:  1,
		Params: experiment.Schema{
			{Name: "problems", Kind: experiment.Int, Default: 400, Min: experiment.Bound(1), Doc: "problem population size"},
			{Name: "marginal-frac", Kind: experiment.Float, Default: 0.4, Doc: "fraction of problems that are marginal"},
			{Name: "visibility-suppression", Kind: experiment.Float, Default: 0.15, Doc: "marginal problems' visibility multiplier"},
			{Name: "select", Kind: experiment.Int, Default: 40, Min: experiment.Bound(1), Doc: "agenda size each pipeline picks"},
			{Name: "partnerships", Kind: experiment.Int, Default: 8, Doc: "community partnerships the PAR pipeline forms"},
			{Name: "surface-prob", Kind: experiment.Float, Default: 0.7, Doc: "chance an engaged community surfaces a given problem"},
		},
		Run: runE4,
	})
	experiment.Register(experiment.Def{
		ID:    "E10",
		Title: "Iterative co-design",
		Claim: "Iterative feedback rounds converge the design onto community needs; the one-shot build plateaus at its initial error.",
		Seed:  1,
		Params: experiment.Schema{
			{Name: "dimensions", Kind: experiment.Int, Default: 6, Min: experiment.Bound(1), Doc: "design-space dimensionality"},
			{Name: "iterations", Kind: experiment.Int, Default: 12, Min: experiment.Bound(1), Doc: "feedback rounds"},
			{Name: "step-size", Kind: experiment.Float, Default: 0.35, Doc: "gap fraction closed per correct-feedback round"},
			{Name: "feedback-noise", Kind: experiment.Float, Default: 0.15, Doc: "probability a per-dimension signal is wrong"},
			{Name: "initial-error", Kind: experiment.Float, Default: 0.4, Doc: "starting per-dimension offset from the true need"},
		},
		Run: runE10,
	})
}

// e4Config maps E4's params onto the discovery model.
func e4Config(p experiment.Values, seed uint64) DiscoveryConfig {
	return DiscoveryConfig{
		Problems:              p.Int("problems"),
		MarginalFrac:          p.Float("marginal-frac"),
		VisibilitySuppression: p.Float("visibility-suppression"),
		Select:                p.Int("select"),
		Partnerships:          p.Int("partnerships"),
		SurfaceProb:           p.Float("surface-prob"),
		Seed:                  seed,
	}
}

// runE4 compares the visibility-ranked and PAR discovery pipelines.
func runE4(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	rows, err := RunDiscovery(e4Config(p, seed))
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E4", "Problem discovery",
		"pipeline", "marginal-share", "marginal-pop", "mean-impact")
	for _, r := range rows {
		t.AddRow(r.Pipeline, experiment.F3(r.MarginalShare),
			experiment.F3(r.MarginalPopShare), experiment.F3(r.MeanAgendaImpact))
	}
	return res, nil
}

// e10Config maps E10's params onto the co-design model.
func e10Config(p experiment.Values, seed uint64) IterateConfig {
	return IterateConfig{
		Dimensions:    p.Int("dimensions"),
		Iterations:    p.Int("iterations"),
		StepSize:      p.Float("step-size"),
		FeedbackNoise: p.Float("feedback-noise"),
		InitialError:  p.Float("initial-error"),
		Seed:          seed,
	}
}

// runE10 tracks design fit across co-design iterations.
func runE10(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	rows, err := RunIteration(e10Config(p, seed))
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E10", "Iterative co-design",
		"iteration", "iterative-fit", "one-shot-fit")
	for _, r := range rows {
		t.AddRow(experiment.I(r.Iteration), experiment.F3(r.IterativeFit), experiment.F3(r.OneShotFit))
	}
	return res, nil
}

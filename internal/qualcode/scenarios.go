package qualcode

import (
	"context"

	"repro/internal/experiment"
)

// Scenario registration for E6: inter-rater reliability under codebook
// refinement.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E6",
		Title: "Inter-rater reliability vs codebook refinement",
		Claim: "Codebook-refinement iterations raise coder accuracy, and every reliability statistic (kappa, Fleiss, Krippendorff alpha, agreement) climbs with it.",
		Seed:  7,
		Params: experiment.Schema{
			{Name: "iterations", Kind: experiment.Int, Default: 6, Doc: "codebook refinement iterations"},
			{Name: "coders", Kind: experiment.Int, Default: 3, Min: experiment.Bound(2), Doc: "independent coders"},
			{Name: "base-accuracy", Kind: experiment.Float, Default: 0.55, Doc: "iteration-0 coder accuracy"},
			{Name: "gain", Kind: experiment.Float, Default: 0.45, Doc: "error-rate shrink factor per iteration"},
		},
		Run: runE6,
	})
}

// runE6 produces the reliability curve.
func runE6(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	rows, err := ReliabilityCurve(p.Int("iterations"), p.Int("coders"),
		p.Float("base-accuracy"), p.Float("gain"), seed)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E6", "Inter-rater reliability vs codebook refinement",
		"iteration", "accuracy", "mean-kappa", "fleiss", "kripp-alpha", "agreement")
	for _, r := range rows {
		t.AddRow(experiment.I(r.Iteration), experiment.F3(r.CoderAccuracy), experiment.F3(r.MeanKappa),
			experiment.F3(r.FleissKappa), experiment.F3(r.KrippAlpha), experiment.F3(r.Agreement))
	}
	return res, nil
}

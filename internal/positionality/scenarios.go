package positionality

import (
	"context"

	"repro/internal/experiment"
)

// Scenario registration for E9: how lens strength shifts the research
// agenda.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E9",
		Title: "Agenda divergence vs lens strength",
		Claim: "As researcher lens strength grows, proponent and skeptic agendas diverge, concentrated in the contested topic's share of each agenda.",
		Seed:  1,
		Params: experiment.Schema{
			{Name: "items", Kind: experiment.Int, Default: 300, Min: experiment.Bound(1), Doc: "candidate-problem population size"},
			{Name: "contested-frac", Kind: experiment.Float, Default: 0.35, Doc: "fraction of items touching the contested topic"},
			{Name: "select", Kind: experiment.Int, Default: 30, Min: experiment.Bound(1), Doc: "agenda size each researcher picks"},
			{Name: "strengths", Kind: experiment.String, Default: "0,0.2,0.4,0.6,0.8,1", Doc: "comma-separated lens strengths to sweep"},
		},
		Run: runE9,
	})
}

// runE9 sweeps lens strengths.
func runE9(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	strengths, err := p.Floats("strengths")
	if err != nil {
		return nil, err
	}
	rows, err := RunLens(LensConfig{
		Items:              p.Int("items"),
		ContestedTopicFrac: p.Float("contested-frac"),
		Select:             p.Int("select"),
		Strengths:          strengths,
		Seed:               seed,
	})
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E9", "Agenda divergence vs lens strength",
		"strength", "divergence", "contested-prop", "contested-skep")
	for _, r := range rows {
		t.AddRow(experiment.F3(r.Strength), experiment.F3(r.Divergence),
			experiment.F3(r.ContestedShareProponent), experiment.F3(r.ContestedShareSkeptic))
	}
	return res, nil
}

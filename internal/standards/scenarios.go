package standards

import (
	"context"
	"fmt"

	"repro/internal/experiment"
)

// Scenario registration for E11: practitioner engagement in the standards
// process.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E11",
		Title: "Practitioner engagement in standards",
		Claim: "Operator seats in open working groups slow standardization per RFC but raise final fit and deployment; closed consortia standardize fast and deploy narrowly.",
		Seed:  1,
		Params: experiment.Schema{
			{Name: "shares", Kind: experiment.String, Default: "0,0.15,0.3,0.45,0.6", Doc: "comma-separated practitioner seat shares to sweep"},
			{Name: "drafts", Kind: experiment.Int, Default: 40, Min: experiment.Bound(1), Doc: "drafts entering the process"},
			{Name: "rounds", Kind: experiment.Int, Default: 30, Min: experiment.Bound(1), Doc: "working-group cycles simulated"},
			{Name: "seats", Kind: experiment.Int, Default: 8, Min: experiment.Bound(1), Doc: "per-round review capacity"},
			{Name: "operators", Kind: experiment.Int, Default: 200, Min: experiment.Bound(1), Doc: "deployment population size"},
			{Name: "patience", Kind: experiment.Int, Default: 10, Doc: "rounds a draft survives without adoption"},
			{Name: "consortium-share", Kind: experiment.Float, Default: 0.25, Doc: "operator share inside the closed consortium"},
		},
		Run: runE11,
	})
}

// e11Config maps E11's params onto one working-group process. It leaves
// PractitionerShare at zero: Sweep sets it per row.
func e11Config(p experiment.Values, seed uint64) Config {
	return Config{
		Drafts:          p.Int("drafts"),
		Rounds:          p.Int("rounds"),
		Seats:           p.Int("seats"),
		ConsortiumShare: p.Float("consortium-share"),
		Operators:       p.Int("operators"),
		PatienceRounds:  p.Int("patience"),
		Seed:            seed,
	}
}

// runE11 sweeps practitioner shares plus the closed-consortium
// counterfactual appended by Sweep.
func runE11(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	shares, err := p.Floats("shares")
	if err != nil {
		return nil, err
	}
	rows, err := Sweep(shares, e11Config(p, seed))
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E11", "Practitioner engagement in standards",
		"process", "rfcs", "rounds-to-rfc", "final-fit", "deploy-per-rfc")
	for _, r := range rows {
		name := fmt.Sprintf("open %.0f%%", 100*r.PractitionerShare)
		if r.Closed {
			name = "closed consortium"
		}
		t.AddRow(name, experiment.I(r.RFCs), experiment.FP(r.MeanRoundsToRFC, 1),
			experiment.F3(r.MeanFinalFit), experiment.F3(r.MeanDeployPerRFC))
	}
	return res, nil
}

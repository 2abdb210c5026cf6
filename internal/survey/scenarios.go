package survey

import (
	"context"

	"repro/internal/experiment"
)

// Scenario registration for E8: survey reach across sampling designs.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E8",
		Title: "Survey reach",
		Claim: "Random sampling under-reaches hard-to-reach strata; stratified and snowball designs trade bias for marginal-population coverage.",
		Seed:  1,
		Params: experiment.Schema{
			{Name: "ties", Kind: experiment.Int, Default: 6, Doc: "social ties per person (snowball referral graph)"},
			{Name: "budget", Kind: experiment.Int, Default: 300, Min: experiment.Bound(1), Doc: "contact budget shared by every design"},
			{Name: "waves", Kind: experiment.Int, Default: 4, Doc: "snowball referral waves"},
			{Name: "seeds", Kind: experiment.Int, Default: 40, Min: experiment.Bound(0), Doc: "snowball seed respondents"},
			{Name: "max-referrals", Kind: experiment.Int, Default: 3, Doc: "referrals per respondent"},
			{Name: "response-noise", Kind: experiment.Float, Default: 0.05, Doc: "response-propensity noise"},
		},
		Run: runE8,
	})
}

// e8Config maps E8's params onto the default strata, reporting the two
// operator strata as the hard-to-reach ones.
func e8Config(p experiment.Values, seed uint64) E8Config {
	return E8Config{
		Strata:         DefaultStrata(),
		TiesPerPerson:  p.Int("ties"),
		Budget:         p.Int("budget"),
		MarginalStrata: []string{"community-operator", "rural-operator"},
		Waves:          p.Int("waves"),
		Seeds:          p.Int("seeds"),
		MaxReferrals:   p.Int("max-referrals"),
		ResponseNoise:  p.Float("response-noise"),
		Seed:           seed,
	}
}

// runE8 fields the three designs on one synthetic population.
func runE8(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	rows, err := RunE8(e8Config(p, seed))
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E8", "Survey reach",
		"design", "respondents", "marginal-share", "marginal-pop", "bias")
	for _, r := range rows {
		t.AddRow(string(r.Design), experiment.I(r.Respondents),
			experiment.F3(r.MarginalShare), experiment.F3(r.MarginalPop), experiment.FSigned(r.Bias, 3))
	}
	return res, nil
}

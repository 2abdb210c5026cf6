package focusgroup

import (
	"context"

	"repro/internal/experiment"
)

// Scenario registration for E13: focus-group facilitation strategies.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E13",
		Title: "Focus-group facilitation",
		Claim: "Gated facilitation equalizes speaking time and surfaces the quiet quartile's insights that free-for-all discussion leaves unheard.",
		Seed:  7,
		Params: experiment.Schema{
			{Name: "turns", Kind: experiment.Int, Default: 150, Min: experiment.Bound(1), Doc: "speaking turns per session"},
		},
		Run: runE13,
	})
}

// runE13 compares facilitation strategies on the default participant panel.
func runE13(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	rows, err := Compare(DefaultParticipants(), p.Int("turns"), seed)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E13", "Focus-group facilitation",
		"strategy", "speaking-jain", "insight-cov", "quiet-cov", "interventions")
	for _, r := range rows {
		t.AddRow(r.Strategy.String(), experiment.F3(r.SpeakingJain),
			experiment.F3(r.InsightCoverage), experiment.F3(r.QuietCoverage), experiment.I(r.Interventions))
	}
	return res, nil
}

package diary

import (
	"context"

	"repro/internal/experiment"
)

// Scenario registration for E12: diary studies triangulated with technology
// probes, under daily and signal-contingent prompting.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E12",
		Title: "Diaries + technology probes",
		Claim: "Probes and diaries cover complementary slices of ground truth; signal-contingent prompting slows compliance decay, and non-instrumentable activities reach the record only through diaries.",
		Seed:  1,
		Params: experiment.Schema{
			{Name: "days", Kind: experiment.Int, Default: 42, Min: experiment.Bound(1), Doc: "study length in days"},
			{Name: "participants", Kind: experiment.Int, Default: 24, Min: experiment.Bound(1), Doc: "study participants"},
			{Name: "base-adherence", Kind: experiment.Float, Default: 0.9, Doc: "day-1 probability of writing when prompted"},
			{Name: "adherence-decay", Kind: experiment.Float, Default: 0.97, Doc: "per-day multiplicative compliance decay"},
			{Name: "prompt-boost", Kind: experiment.Float, Default: 1.25, Doc: "adherence multiplier on signal-contingent prompted days"},
		},
		Run: runE12,
	})
}

// e12Config maps E12's params onto a study of the default activities under
// daily prompting; runE12 switches the prompting per row.
func e12Config(p experiment.Values, seed uint64) Config {
	return Config{
		Participants:   p.Int("participants"),
		Days:           p.Int("days"),
		Activities:     DefaultActivities(),
		BaseAdherence:  p.Float("base-adherence"),
		AdherenceDecay: p.Float("adherence-decay"),
		PromptBoost:    p.Float("prompt-boost"),
		Seed:           seed,
	}
}

// runE12 simulates both prompting regimes and reconciles each against
// ground truth.
func runE12(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	cfg := e12Config(p, seed)
	res := &experiment.Result{}
	t := res.AddTable("E12", "Diaries + technology probes",
		"prompting", "diary-cov", "probe-cov", "combined", "human-only-via-diary")
	for _, prompting := range []struct {
		name string
		mode Prompting
	}{{"daily", DailyPrompt}, {"signal-contingent", SignalContingent}} {
		c := cfg
		c.Prompting = prompting.mode
		ds, err := Simulate(c)
		if err != nil {
			return nil, err
		}
		cov := Reconcile(c, ds)
		t.AddRow(prompting.name, experiment.F3(cov.DiaryOnly), experiment.F3(cov.ProbeOnly),
			experiment.F3(cov.Combined), experiment.F3(cov.NonInstrumentableDiary))
	}
	return res, nil
}

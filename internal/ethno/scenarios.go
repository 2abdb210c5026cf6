package ethno

import (
	"context"
	"fmt"

	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/rng"
)

// Scenario registrations: E7 (fieldwork scheduling under a fixed
// researcher-day budget) plus two auxiliary studies, resolvable by ID but
// out of the standard report: E7's single-site reflection-gain sweep and
// the triangulation of trace alarms against field notes.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E7",
		Title: "Fieldwork scheduling",
		Claim: "Under a fixed day budget, patchwork scheduling covers more sites with more between-visit reflection at modest travel overhead, trading depth per visit.",
		Params: experiment.Schema{
			{Name: "sites", Kind: experiment.Int, Default: 4, Min: experiment.Bound(1), Doc: "comparable field sites available"},
			{Name: "budget-days", Kind: experiment.Float, Default: 60.0, Doc: "researcher-day budget per strategy"},
			{Name: "patchwork-visits", Kind: experiment.Int, Default: 4, Min: experiment.Bound(1), Doc: "visit count of the patchwork plan"},
			{Name: "rapid-visits", Kind: experiment.Int, Default: 10, Min: experiment.Bound(1), Doc: "visit count of the rapid plan"},
		},
		Run: runE7,
	})
	experiment.Register(experiment.Def{
		ID:    "ethno-reflection",
		Title: "Reflection-gain sensitivity",
		Claim: "On a single site, where coverage cannot help, patchwork visits beat one continuous stay only once between-visit reflection improves extraction enough to pay for the repeated travel.",
		Aux:   true,
		Params: experiment.Schema{
			{Name: "budget-days", Kind: experiment.Float, Default: 60.0, Doc: "researcher-day budget per strategy"},
			{Name: "patchwork-visits", Kind: experiment.Int, Default: 4, Min: experiment.Bound(1), Doc: "visit count of the patchwork plan"},
			{Name: "gains", Kind: experiment.String, Default: "0,0.05,0.1,0.15,0.2,0.3", Doc: "comma-separated reflection gains to sweep"},
		},
		Run: runReflection,
	})
	experiment.Register(experiment.Def{
		ID:    "ethno-triangulation",
		Title: "Trace and field-note triangulation",
		Claim: "A trace tells when something happened and field notes tell what it was: detector alarms are scored against injected truth and joined with the fieldwork that can explain them.",
		Seed:  5,
		Aux:   true,
		Params: experiment.Schema{
			{Name: "days", Kind: experiment.Int, Default: 220, Min: experiment.Bound(41), Doc: "trace length in days"},
			{Name: "events", Kind: experiment.Int, Default: 3, Min: experiment.Bound(0), Doc: "injected disturbances"},
			{Name: "notes", Kind: experiment.String, Default: "", Doc: "comma-separated field-note days (empty: none)"},
			{Name: "window", Kind: experiment.Float, Default: 3.0, Doc: "triangulation window in days"},
		},
		Run: runTriangulation,
	})
}

// e7Config maps E7's params onto the accrual model at its default rates.
// The model is deterministic given its configuration; the seed is unused.
func e7Config(p experiment.Values, _ uint64) E7Config {
	return E7Config{
		Sites:           p.Int("sites"),
		BudgetDays:      p.Float("budget-days"),
		PatchworkVisits: p.Int("patchwork-visits"),
		RapidVisits:     p.Int("rapid-visits"),
		Params:          DefaultParams(),
	}
}

// runE7 compares the scheduling strategies.
func runE7(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	rows, err := RunE7(e7Config(p, seed))
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E7", "Fieldwork scheduling",
		"strategy", "visits", "insight", "sites", "reflections", "travel-overhead")
	for _, r := range rows {
		t.AddRow(string(r.Strategy), experiment.I(r.Visits), experiment.FP(r.Insight, 1),
			experiment.I(r.SitesCovered), experiment.I(r.Reflections), experiment.F3(r.TravelOverhead))
	}
	return res, nil
}

// runReflection sweeps the reflection gain on a single site, isolating the
// reflexivity mechanism from E7's coverage advantage: the ratio of
// patchwork to continuous insight crosses 1 where reflection alone starts
// paying for the repeated travel. The seed is unused.
func runReflection(_ context.Context, p experiment.Values, _ uint64) (*experiment.Result, error) {
	gains, err := p.Floats("gains")
	if err != nil {
		return nil, err
	}
	// Only the continuous and patchwork rows are read, so the rapid plan
	// is left at its one-visit floor.
	cfg := E7Config{
		Sites:           1,
		BudgetDays:      p.Float("budget-days"),
		PatchworkVisits: p.Int("patchwork-visits"),
		Params:          DefaultParams(),
	}
	res := &experiment.Result{}
	t := res.AddTable("ethno-reflection", "Reflection-gain sensitivity, single site",
		"gain", "patchwork/continuous")
	for _, g := range gains {
		cfg.Params.ReflectGain = g
		rows, err := RunE7(cfg)
		if err != nil {
			return nil, err
		}
		if rows[0].Insight == 0 {
			return nil, fmt.Errorf("%w %q = %g leaves the continuous plan no insight", experiment.ErrBadParam, "budget-days", cfg.BudgetDays)
		}
		t.AddRow(experiment.FP(g, 2), experiment.FP(rows[1].Insight/rows[0].Insight, 2))
	}
	return res, nil
}

// runTriangulation injects disturbances into a synthetic latency trace,
// runs both anomaly detectors over it, scores each against the injected
// truth, and triangulates its alarms against the given field-note days.
func runTriangulation(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	days, n := p.Int("days"), p.Int("events")
	var notes []FieldNote
	if p.String("notes") != "" {
		noteDays, err := p.Floats("notes")
		if err != nil {
			return nil, err
		}
		for _, d := range noteDays {
			notes = append(notes, FieldNote{Day: d})
		}
	}

	r := rng.New(seed)
	events := make([]measure.Event, n)
	for i := range events {
		events[i] = measure.Event{
			Day:       20 + r.Intn(days-40),
			Duration:  2 + r.Intn(4),
			Magnitude: 25 + 25*r.Float64(),
			Label:     fmt.Sprintf("disturbance-%d", i+1),
		}
	}
	series, err := measure.Generate(measure.GenConfig{
		Metric: measure.LatencyMs, Days: days, Base: 40, Noise: 2,
		Events: events, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}

	res := &experiment.Result{}
	te := res.AddTable("ethno-triangulation-truth", "Injected disturbances",
		"disturbance", "day", "duration")
	for _, e := range events {
		te.AddRow(e.Label, experiment.I(e.Day), experiment.I(e.Duration))
	}
	td := res.AddTable("ethno-triangulation-alarms", "Detector alarms",
		"detector", "day", "score")
	ts := res.AddTable("ethno-triangulation", "Detector accuracy and fieldwork triangulation",
		"detector", "alarms", "recall", "precision", "mean-delay", "false-alarms", "explained", "explained-share")
	for _, d := range []struct {
		name string
		dets []measure.Detection
	}{
		{"zscore", measure.ZScoreDetect(series, 14, 4)},
		{"cusum", measure.CUSUMDetect(series, 30, 0.5, 5)},
	} {
		anomalies := make([]Anomaly, len(d.dets))
		for i, det := range d.dets {
			td.AddRow(d.name, experiment.I(det.Day), experiment.FP(det.Score, 1))
			anomalies[i] = Anomaly{Day: float64(det.Day)}
		}
		ev := measure.Evaluate(events, d.dets, 2)
		tri := Triangulate(notes, anomalies, p.Float("window"))
		ts.AddRow(d.name, experiment.I(len(d.dets)), experiment.FP(ev.Recall, 2),
			experiment.FP(ev.Precision, 2), experiment.FP(ev.MeanDelay, 1), experiment.I(ev.FalseAlarms),
			experiment.I(tri.Explained), experiment.FP(tri.ExplainedShare(), 2))
	}
	return res, nil
}

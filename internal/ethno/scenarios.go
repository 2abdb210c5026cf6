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
			{Name: "sites", Kind: experiment.Int, Default: 4, Doc: "comparable field sites available"},
			{Name: "budget-days", Kind: experiment.Float, Default: 60.0, Doc: "researcher-day budget per strategy"},
			{Name: "patchwork-visits", Kind: experiment.Int, Default: 4, Doc: "visit count of the patchwork plan"},
			{Name: "rapid-visits", Kind: experiment.Int, Default: 10, Doc: "visit count of the rapid plan"},
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
			{Name: "patchwork-visits", Kind: experiment.Int, Default: 4, Doc: "visit count of the patchwork plan"},
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
			{Name: "days", Kind: experiment.Int, Default: 220, Doc: "trace length in days (> 40)"},
			{Name: "events", Kind: experiment.Int, Default: 3, Doc: "injected disturbances"},
			{Name: "notes", Kind: experiment.String, Default: "", Doc: "comma-separated field-note days (empty: none)"},
			{Name: "window", Kind: experiment.Float, Default: 3.0, Doc: "triangulation window in days"},
		},
		Run: runTriangulation,
	})
}

// runE7 compares the scheduling strategies. The model is deterministic given
// its configuration; the seed is unused.
func runE7(_ context.Context, p experiment.Values, _ uint64) (*experiment.Result, error) {
	cfg := DefaultE7Config()
	cfg.Sites = p.Int("sites")
	cfg.BudgetDays = p.Float("budget-days")
	cfg.PatchworkVisits = p.Int("patchwork-visits")
	cfg.RapidVisits = p.Int("rapid-visits")
	rows, err := RunE7(cfg)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E7", "Fieldwork scheduling",
		"strategy", "visits", "insight", "sites", "reflections", "travel-overhead")
	for _, r := range rows {
		t.AddRow(experiment.S(string(r.Strategy)), experiment.I(r.Visits), experiment.FP(r.Insight, 1),
			experiment.I(r.SitesCovered), experiment.I(r.Reflections), experiment.F3(r.TravelOverhead))
	}
	return res, nil
}

// runReflection sweeps the reflection gain on a single site, isolating the
// reflexivity mechanism from E7's coverage advantage: the ratio of
// patchwork to continuous insight crosses 1 where reflection alone starts
// paying for the repeated travel. The seed is unused.
func runReflection(_ context.Context, p experiment.Values, _ uint64) (*experiment.Result, error) {
	gains, err := experiment.ParseFloats(p.String("gains"))
	if err != nil {
		return nil, err
	}
	cfg := DefaultE7Config()
	cfg.Sites = 1
	cfg.BudgetDays = p.Float("budget-days")
	cfg.PatchworkVisits = p.Int("patchwork-visits")
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
			return nil, fmt.Errorf("ethno: budget-days %g leaves the continuous plan no insight", cfg.BudgetDays)
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
	if days <= 40 || n < 0 {
		return nil, fmt.Errorf("ethno: triangulation needs days > 40 and events >= 0, got days=%d events=%d", days, n)
	}
	var notes []FieldNote
	if s := p.String("notes"); s != "" {
		noteDays, err := experiment.ParseFloats(s)
		if err != nil {
			return nil, fmt.Errorf("ethno: notes: %w", err)
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
		te.AddRow(experiment.S(e.Label), experiment.I(e.Day), experiment.I(e.Duration))
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
			td.AddRow(experiment.S(d.name), experiment.I(det.Day), experiment.FP(det.Score, 1))
			anomalies[i] = Anomaly{Day: float64(det.Day)}
		}
		ev := measure.Evaluate(events, d.dets, 2)
		tri := Triangulate(notes, anomalies, p.Float("window"))
		ts.AddRow(experiment.S(d.name), experiment.I(len(d.dets)), experiment.FP(ev.Recall, 2),
			experiment.FP(ev.Precision, 2), experiment.FP(ev.MeanDelay, 1), experiment.I(ev.FalseAlarms),
			experiment.I(tri.Explained), experiment.FP(tri.ExplainedShare(), 2))
	}
	return res, nil
}

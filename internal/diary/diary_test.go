package diary

import (
	"testing"

	"repro/internal/experiment"
)

// reportConfig is the report's E12 configuration: e12Config over the
// registered schema defaults and default seed.
func reportConfig(tb testing.TB) Config {
	tb.Helper()
	s, ok := experiment.Get("E12")
	if !ok {
		tb.Fatal("scenario E12 is not registered")
	}
	return e12Config(s.Params().Defaults(), s.DefaultSeed())
}

// studyConfig is the report's E12 configuration cut to the four-week study
// the dataset-shape tests were written against.
func studyConfig(tb testing.TB) Config {
	tb.Helper()
	cfg := reportConfig(tb)
	cfg.Days = 28
	return cfg
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestSimulateShape(t *testing.T) {
	ds, err := Simulate(studyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Entries) == 0 || len(ds.Probes) == 0 || len(ds.Truth) == 0 {
		t.Fatalf("degenerate dataset: %d entries, %d probes, %d truth days",
			len(ds.Entries), len(ds.Probes), len(ds.Truth))
	}
	cfg := studyConfig(t)
	for _, e := range ds.Entries {
		if e.Participant < 0 || e.Participant >= cfg.Participants || e.Day < 0 || e.Day >= cfg.Days {
			t.Fatalf("entry out of range: %+v", e)
		}
	}
}

func TestProbesOnlyLogInstrumentable(t *testing.T) {
	cfg := studyConfig(t)
	ds, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	instr := map[string]bool{}
	for _, a := range cfg.Activities {
		instr[a.Kind] = a.Instrumentable
	}
	for _, p := range ds.Probes {
		if !instr[p.Kind] {
			t.Fatalf("probe logged non-instrumentable %q", p.Kind)
		}
	}
}

func TestDiaryEntriesOnlyReportExperienced(t *testing.T) {
	cfg := studyConfig(t)
	ds, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ds.Entries {
		truth := ds.Truth[[2]int{e.Participant, e.Day}]
		for _, k := range e.Reported {
			if !truth[k] {
				t.Fatalf("participant %d reported unexperienced %q on day %d", e.Participant, k, e.Day)
			}
		}
	}
}

func TestReconcileCombinedBeatsEither(t *testing.T) {
	cfg := studyConfig(t)
	ds, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cov := Reconcile(cfg, ds)
	if cov.TruthTriples == 0 {
		t.Fatal("no ground truth")
	}
	// The ref-[7] claim: combining diaries and probes recreates more of the
	// experience than either source alone.
	if !(cov.Combined > cov.DiaryOnly && cov.Combined > cov.ProbeOnly) {
		t.Errorf("combined %g should beat diary %g and probe %g",
			cov.Combined, cov.DiaryOnly, cov.ProbeOnly)
	}
	// Probes see nothing of the human-only experiences; diaries do.
	if !(cov.NonInstrumentableDiary > 0.3) {
		t.Errorf("diary coverage of non-instrumentable = %g, want substantial", cov.NonInstrumentableDiary)
	}
	// Probes are perfect on what they can see, so probe coverage equals the
	// instrumentable share of truth (roughly): sanity bounds.
	if cov.ProbeOnly <= 0.3 || cov.ProbeOnly >= 0.9 {
		t.Errorf("probe coverage = %g out of expected band", cov.ProbeOnly)
	}
}

func TestComplianceDecayShowsInWeeklyCoverage(t *testing.T) {
	cfg := reportConfig(t)
	cfg.Days = 56
	cfg.AdherenceDecay = 0.93
	ds, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	weekly := weeklyDiaryCoverage(cfg, ds)
	if len(weekly) != 8 {
		t.Fatalf("weeks = %d", len(weekly))
	}
	if !(weekly[len(weekly)-1] < weekly[0]) {
		t.Errorf("coverage did not decay: week1 %g vs last %g", weekly[0], weekly[len(weekly)-1])
	}
}

func TestSignalContingentConcentratesOnEventfulDays(t *testing.T) {
	base := reportConfig(t)
	base.AdherenceDecay = 0.95

	daily := base
	daily.Prompting = DailyPrompt
	dsDaily, err := Simulate(daily)
	if err != nil {
		t.Fatal(err)
	}

	sc := base
	sc.Prompting = SignalContingent
	dsSC, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}

	// Signal-contingent writes fewer entries (only probe-fired days)...
	if !(len(dsSC.Entries) < len(dsDaily.Entries)) {
		t.Errorf("signal-contingent entries %d should be fewer than daily %d",
			len(dsSC.Entries), len(dsDaily.Entries))
	}
	// ...but each entry is at least as informative on average (eventful
	// days + prompt boost): reported activities per entry.
	perEntry := func(ds *Dataset) float64 {
		if len(ds.Entries) == 0 {
			return 0
		}
		n := 0
		for _, e := range ds.Entries {
			n += len(e.Reported)
		}
		return float64(n) / float64(len(ds.Entries))
	}
	if !(perEntry(dsSC) >= perEntry(dsDaily)) {
		t.Errorf("signal-contingent yield/entry %g should match or beat daily %g",
			perEntry(dsSC), perEntry(dsDaily))
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, _ := Simulate(studyConfig(t))
	b, _ := Simulate(studyConfig(t))
	if len(a.Entries) != len(b.Entries) || len(a.Probes) != len(b.Probes) {
		t.Fatal("nondeterministic dataset sizes")
	}
	for i := range a.Entries {
		if a.Entries[i].Participant != b.Entries[i].Participant || a.Entries[i].Day != b.Entries[i].Day {
			t.Fatal("nondeterministic entries")
		}
	}
}

func TestPromptingString(t *testing.T) {
	if DailyPrompt.String() != "daily" || SignalContingent.String() != "signal-contingent" {
		t.Error("prompting strings wrong")
	}
}

func BenchmarkSimulateReconcile(b *testing.B) {
	cfg := studyConfig(b)
	for i := 0; i < b.N; i++ {
		ds, err := Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = Reconcile(cfg, ds)
	}
}

// weeklyDiaryCoverage returns per-week diary coverage of ground truth,
// exposing compliance decay.
func weeklyDiaryCoverage(cfg Config, ds *Dataset) []float64 {
	weeks := (cfg.Days + 6) / 7
	hit := make([]float64, weeks)
	total := make([]float64, weeks)
	diary := make(map[[2]int]map[string]bool)
	for _, e := range ds.Entries {
		key := [2]int{e.Participant, e.Day}
		m, ok := diary[key]
		if !ok {
			m = make(map[string]bool)
			diary[key] = m
		}
		for _, k := range e.Reported {
			m[k] = true
		}
	}
	for key, kinds := range ds.Truth {
		w := key[1] / 7
		for k := range kinds {
			total[w]++
			if diary[key][k] {
				hit[w]++
			}
		}
	}
	out := make([]float64, weeks)
	for w := range out {
		if total[w] > 0 {
			out[w] = hit[w] / total[w]
		}
	}
	return out
}

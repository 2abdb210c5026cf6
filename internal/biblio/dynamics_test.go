package biblio

import (
	"testing"

	"repro/internal/experiment"
)

// reportCFPConfig is the report's E15 configuration: e15Config over the
// registered schema defaults and default seed.
func reportCFPConfig(tb testing.TB) CFPConfig {
	tb.Helper()
	s, ok := experiment.Get("E15")
	if !ok {
		tb.Fatal("scenario E15 is not registered")
	}
	return e15Config(s.Params().Defaults(), s.DefaultSeed())
}

// lockInConfig is the report's E15 configuration run for 30 years with no
// intervention: the biased venue left to settle.
func lockInConfig(tb testing.TB) CFPConfig {
	tb.Helper()
	cfg := reportCFPConfig(tb)
	cfg.Years = 30
	cfg.InterventionYear = -1
	return cfg
}

func TestRunCFPValidation(t *testing.T) {
	if _, err := RunCFP(CFPConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestCFPBiasPlusConformityLocksIn(t *testing.T) {
	biased := lockInConfig(t)
	rows, err := RunCFP(biased)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != biased.Years {
		t.Fatalf("rows = %d", len(rows))
	}
	lockedIn := finalQualShare(rows, 5)

	blind := lockInConfig(t)
	blind.QualWeight = 1
	blindRows, err := RunCFP(blind)
	if err != nil {
		t.Fatal(err)
	}
	fair := finalQualShare(blindRows, 5)

	// The discounted venue ends far below the method-blind one — and below
	// what researcher affinity alone (mean 0.5) would produce.
	if !(lockedIn < fair/2) {
		t.Errorf("locked-in share %g should be far below method-blind %g", lockedIn, fair)
	}
	if !(lockedIn < 0.2) {
		t.Errorf("locked-in share %g should collapse under bias+conformity", lockedIn)
	}
	if fair < 0.35 {
		t.Errorf("method-blind share %g should reflect affinity (~0.5)", fair)
	}
}

func TestCFPInterventionRecovers(t *testing.T) {
	cfg := reportCFPConfig(t)
	rows, err := RunCFP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := finalQualShare(rows[:20], 5)
	after := finalQualShare(rows, 5)
	if !(after > 2*before) {
		t.Errorf("CFP change should recover the share: before %g, after %g", before, after)
	}
	// Recovery is not instantaneous: the year right after the intervention
	// is still depressed relative to the settled level (conformity lags).
	atSwitch := rows[20].AcceptedQualShare
	if !(atSwitch < after) {
		t.Errorf("share at intervention %g should lag settled level %g (hysteresis)", atSwitch, after)
	}
	for _, row := range rows[:20] {
		if row.QualWeightInEffect != cfg.QualWeight {
			t.Fatal("weight applied too early")
		}
	}
	for _, row := range rows[20:] {
		if row.QualWeightInEffect != 1 {
			t.Fatal("intervention not applied")
		}
	}
}

func TestCFPDeterministic(t *testing.T) {
	a, _ := RunCFP(lockInConfig(t))
	b, _ := RunCFP(lockInConfig(t))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func BenchmarkRunCFP(b *testing.B) {
	cfg := lockInConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := RunCFP(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// finalQualShare returns the mean accepted qualitative share over the last
// k years of a run (the settled equilibrium).
func finalQualShare(rows []CFPYear, k int) float64 {
	if len(rows) == 0 {
		return 0
	}
	if k > len(rows) {
		k = len(rows)
	}
	s := 0.0
	for _, r := range rows[len(rows)-k:] {
		s += r.AcceptedQualShare
	}
	return s / float64(k)
}

package standards

import (
	"testing"

	"repro/internal/experiment"
)

// reportParams returns E11's registered schema defaults and default seed:
// the params the report runs.
func reportParams(tb testing.TB) (experiment.Values, uint64) {
	tb.Helper()
	s, ok := experiment.Get("E11")
	if !ok {
		tb.Fatal("scenario E11 is not registered")
	}
	return s.Params().Defaults(), s.DefaultSeed()
}

// runConfig is the report's E11 configuration as one open process with 30%
// practitioner seats, the share a single Run holds fixed.
func runConfig(tb testing.TB) Config {
	tb.Helper()
	cfg := e11Config(reportParams(tb))
	cfg.PractitionerShare = 0.3
	return cfg
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestRunProducesRFCs(t *testing.T) {
	cfg := runConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RFCs == 0 {
		t.Fatal("no RFCs produced")
	}
	if res.RFCs+res.Abandoned != cfg.Drafts {
		t.Errorf("accounting: %d RFCs + %d abandoned != %d drafts",
			res.RFCs, res.Abandoned, cfg.Drafts)
	}
	if res.MeanRoundsToRFC <= 0 {
		t.Errorf("rounds to RFC = %g", res.MeanRoundsToRFC)
	}
	if res.DeploymentShare <= 0 || res.DeploymentShare > 1 {
		t.Errorf("deployment share = %g", res.DeploymentShare)
	}
}

func TestPractitionersRaiseFitAndDeployment(t *testing.T) {
	low := runConfig(t)
	low.PractitionerShare = 0.05
	high := runConfig(t)
	high.PractitionerShare = 0.6

	lowRes, err := Run(low)
	if err != nil {
		t.Fatal(err)
	}
	highRes, err := Run(high)
	if err != nil {
		t.Fatal(err)
	}
	if !(highRes.MeanFinalFit > lowRes.MeanFinalFit+0.1) {
		t.Errorf("fit: practitioner-rich %g should clearly beat poor %g",
			highRes.MeanFinalFit, lowRes.MeanFinalFit)
	}
	if !(highRes.MeanDeploymentPerRFC > lowRes.MeanDeploymentPerRFC) {
		t.Errorf("deployment per RFC: %g should beat %g",
			highRes.MeanDeploymentPerRFC, lowRes.MeanDeploymentPerRFC)
	}
}

func TestClosedProcessFastButNarrow(t *testing.T) {
	open := runConfig(t)
	open.PractitionerShare = 0.4
	closed := runConfig(t)
	closed.Closed = true

	openRes, err := Run(open)
	if err != nil {
		t.Fatal(err)
	}
	closedRes, err := Run(closed)
	if err != nil {
		t.Fatal(err)
	}
	// The consortium standardizes faster...
	if !(closedRes.MeanRoundsToRFC < openRes.MeanRoundsToRFC) {
		t.Errorf("closed rounds %g should be below open %g",
			closedRes.MeanRoundsToRFC, openRes.MeanRoundsToRFC)
	}
	// ...but deployment is capped by the consortium's reach.
	if !(closedRes.DeploymentShare <= closed.ConsortiumShare+1e-9) {
		t.Errorf("closed deployment %g exceeds consortium share %g",
			closedRes.DeploymentShare, closed.ConsortiumShare)
	}
	if !(openRes.DeploymentShare > 2*closedRes.DeploymentShare) {
		t.Errorf("open deployment %g should dwarf closed %g",
			openRes.DeploymentShare, closedRes.DeploymentShare)
	}
}

func TestSweepShape(t *testing.T) {
	p, seed := reportParams(t)
	shares, err := p.Floats("shares")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Sweep(shares, e11Config(p, seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(shares)+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !rows[len(rows)-1].Closed {
		t.Error("last row should be the closed counterfactual")
	}
	first, last := rows[0], rows[len(shares)-1]
	if !(last.MeanFinalFit > first.MeanFinalFit) {
		t.Errorf("fit should rise with practitioner share: %g -> %g",
			first.MeanFinalFit, last.MeanFinalFit)
	}
	if !(last.MeanDeployPerRFC > first.MeanDeployPerRFC) {
		t.Errorf("per-RFC deployment should rise with practitioner share: %g -> %g",
			first.MeanDeployPerRFC, last.MeanDeployPerRFC)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, _ := Run(runConfig(t))
	b, _ := Run(runConfig(t))
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestStateString(t *testing.T) {
	if Individual.String() != "individual" || RFC.String() != "rfc" || Abandoned.String() != "abandoned" {
		t.Error("state strings wrong")
	}
}

func BenchmarkRun(b *testing.B) {
	cfg := runConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package ixp

import (
	"context"
	"math"
	"testing"
)

func TestE1NoRegulationLocalityMatchesCompetitorPairs(t *testing.T) {
	row, err := RunCircumventionCtx(context.Background(), CircumventionConfig{
		Competitors: 4, IncumbentShare: 0.6, Mode: NoRegulation,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only competitor↔competitor demand is local. Each competitor holds
	// 0.1 share; pair volume = share^2. Local = 4*3*0.01 = 0.12.
	// Total = sum over ordered distinct pairs of share products.
	shares := []float64{0.6, 0.1, 0.1, 0.1, 0.1}
	var total, local float64
	for i, si := range shares {
		for j, sj := range shares {
			if i == j {
				continue
			}
			total += si * sj
			if i > 0 && j > 0 {
				local += si * sj
			}
		}
	}
	want := local / total
	if math.Abs(row.DomesticShare-want) > 1e-9 {
		t.Errorf("no-regulation locality = %g, want %g", row.DomesticShare, want)
	}
	if row.IncumbentLocal != 0 {
		t.Errorf("incumbent locality = %g, want 0", row.IncumbentLocal)
	}
}

func TestE1CompliantLocalityIsFull(t *testing.T) {
	row, err := RunCircumventionCtx(context.Background(), CircumventionConfig{
		Competitors: 4, IncumbentShare: 0.6, Mode: RegulationCompliant,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.DomesticShare != 1 {
		t.Errorf("compliant locality = %g, want 1", row.DomesticShare)
	}
	if row.IncumbentLocal != 1 {
		t.Errorf("compliant incumbent locality = %g, want 1", row.IncumbentLocal)
	}
}

func TestE1CircumventionDefeatsRegulation(t *testing.T) {
	noReg, err := RunCircumventionCtx(context.Background(), CircumventionConfig{
		Competitors: 4, IncumbentShare: 0.6, Mode: NoRegulation,
	})
	if err != nil {
		t.Fatal(err)
	}
	for shells := 1; shells <= 4; shells++ {
		row, err := RunCircumventionCtx(context.Background(), CircumventionConfig{
			Competitors: 4, IncumbentShare: 0.6, Shells: shells, Mode: RegulationCircumvented,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The paper's claim: the incumbent looks compliant (sessions exist)
		// but locality for incumbent traffic does not improve.
		if row.IXPSessions <= noReg.IXPSessions {
			t.Errorf("shells=%d: sessions %d should exceed no-regulation %d",
				shells, row.IXPSessions, noReg.IXPSessions)
		}
		if row.IncumbentLocal != 0 {
			t.Errorf("shells=%d: incumbent traffic became local (%g) despite circumvention",
				shells, row.IncumbentLocal)
		}
		if math.Abs(row.DomesticShare-noReg.DomesticShare) > 1e-9 {
			t.Errorf("shells=%d: locality %g differs from no-regulation %g",
				shells, row.DomesticShare, noReg.DomesticShare)
		}
	}
}

func TestE1SweepOrdering(t *testing.T) {
	rows, err := CircumventionSweepCtx(context.Background(), 5, 0.5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2+3 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if rows[0].Mode != NoRegulation || rows[1].Mode != RegulationCompliant {
		t.Error("sweep order wrong")
	}
	if !(rows[1].DomesticShare > rows[0].DomesticShare) {
		t.Error("compliance should raise locality")
	}
	for _, r := range rows[2:] {
		if r.Mode != RegulationCircumvented {
			t.Error("tail rows should be circumvention")
		}
		if r.DomesticShare >= rows[1].DomesticShare {
			t.Error("circumvention should not reach compliant locality")
		}
	}
}

func TestE2GravityExtremes(t *testing.T) {
	// No local content: everything at the giant IXP.
	row0, err := RunGravityCtx(context.Background(), GravityConfig{SouthISPs: 20, LocalIXPs: 4, ContentPresence: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if row0.GiantIXPShare < 0.99 {
		t.Errorf("p=0 giant share = %g, want ~1", row0.GiantIXPShare)
	}
	if row0.RemotePeered != 20 {
		t.Errorf("p=0 remote peered = %d, want 20", row0.RemotePeered)
	}
	// Full local content: everything local.
	row1, err := RunGravityCtx(context.Background(), GravityConfig{SouthISPs: 20, LocalIXPs: 4, ContentPresence: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if row1.LocalIXPShare < 0.99 {
		t.Errorf("p=1 local share = %g, want ~1", row1.LocalIXPShare)
	}
	if row1.RemotePeered != 0 {
		t.Errorf("p=1 remote peered = %d, want 0", row1.RemotePeered)
	}
}

func TestE2SweepMonotoneTrend(t *testing.T) {
	presences := []float64{0, 0.25, 0.5, 0.75, 1}
	rows, err := GravitySweepCtx(context.Background(), 40, 5, presences, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(presences) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Giant share decreases (weakly) and local share increases (weakly)
	// between the extremes; allow sampling noise in the middle but the
	// endpoints must order strictly.
	if !(rows[0].GiantIXPShare > rows[len(rows)-1].GiantIXPShare) {
		t.Errorf("giant share did not fall: %g -> %g",
			rows[0].GiantIXPShare, rows[len(rows)-1].GiantIXPShare)
	}
	if !(rows[0].LocalIXPShare < rows[len(rows)-1].LocalIXPShare) {
		t.Errorf("local share did not rise: %g -> %g",
			rows[0].LocalIXPShare, rows[len(rows)-1].LocalIXPShare)
	}
	for _, r := range rows {
		sum := r.GiantIXPShare + r.LocalIXPShare + r.TransitShare
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("shares sum to %g at p=%g", sum, r.ContentPresence)
		}
	}
}

func TestE2TransitBypassWithoutRemotePeering(t *testing.T) {
	// Ablation: if remote peering is never used (simulate by forcing all
	// content present via p=1 but then checking the other branch), traffic
	// with no local content would ride transit. Here we instead verify the
	// giant IXP substitutes for Tier-1: with remote peering the transit
	// share at p=0 is zero.
	row, err := RunGravityCtx(context.Background(), GravityConfig{SouthISPs: 10, LocalIXPs: 2, ContentPresence: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if row.TransitShare != 0 {
		t.Errorf("transit share = %g, want 0 (DE-CIX as Tier-1 alternative)", row.TransitShare)
	}
}

func TestPolicySweepMigrationRestoresLocality(t *testing.T) {
	migrations := []float64{0, 0.25, 0.5, 0.75, 1}
	rows, err := PolicySweepCtx(context.Background(), 4, 0.6, migrations, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(migrations) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Incumbent locality tracks the migrated share (the migrated users sit
	// behind the AS whose sessions the law forces).
	for i, m := range migrations {
		got := rows[i].IncumbentLocal
		if math.Abs(got-m) > 0.12 {
			t.Errorf("migration %.2f: incumbent locality %.3f should track migrated share", m, got)
		}
	}
	// Overall locality is strictly increasing in migration.
	for i := 1; i < len(rows); i++ {
		if !(rows[i].DomesticShare > rows[i-1].DomesticShare) {
			t.Errorf("locality not increasing at migration %.2f: %.3f <= %.3f",
				migrations[i], rows[i].DomesticShare, rows[i-1].DomesticShare)
		}
	}
	// Full migration recovers compliant-level locality.
	if rows[len(rows)-1].DomesticShare < 0.99 {
		t.Errorf("full migration locality = %.3f, want ~1", rows[len(rows)-1].DomesticShare)
	}
}

func TestMigrationZeroMatchesClassicCircumvention(t *testing.T) {
	classic, err := RunCircumventionCtx(context.Background(), CircumventionConfig{
		Competitors: 4, IncumbentShare: 0.6, Shells: 2, Mode: RegulationCircumvented,
	})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := RunCircumventionCtx(context.Background(), CircumventionConfig{
		Competitors: 4, IncumbentShare: 0.6, Shells: 2, Mode: RegulationCircumvented,
		MigratedShare: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if classic != zero {
		t.Errorf("MigratedShare=0 changed behaviour: %+v vs %+v", classic, zero)
	}
}

func TestE1Deterministic(t *testing.T) {
	a, err := RunCircumventionCtx(context.Background(), CircumventionConfig{Competitors: 6, IncumbentShare: 0.55, Shells: 2, Mode: RegulationCircumvented})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCircumventionCtx(context.Background(), CircumventionConfig{Competitors: 6, IncumbentShare: 0.55, Shells: 2, Mode: RegulationCircumvented})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic rows: %+v vs %+v", a, b)
	}
}

func TestE2Deterministic(t *testing.T) {
	cfg := GravityConfig{SouthISPs: 30, LocalIXPs: 4, ContentPresence: 0.5, Seed: 11}
	a, err := RunGravityCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGravityCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic rows: %+v vs %+v", a, b)
	}
}

func TestModeString(t *testing.T) {
	if NoRegulation.String() != "no-regulation" ||
		RegulationCompliant.String() != "regulation-compliant" ||
		RegulationCircumvented.String() != "regulation-circumvented" {
		t.Error("mode strings wrong")
	}
}

func TestE2PathLengthSeparatesRegimes(t *testing.T) {
	// Peering regimes (giant or local) have 2-AS paths; a no-remote-peering
	// transit regime has 3-AS paths. Simulate the transit regime through
	// the economic model's "not worth it" branch analog: compare mean path
	// length between full local presence (all peering) and an economic run
	// where remote peering is priced out.
	peered, err := RunGravityCtx(context.Background(), GravityConfig{SouthISPs: 20, LocalIXPs: 4, ContentPresence: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(peered.MeanPathLen-2) > 1e-9 {
		t.Errorf("fully peered mean path length = %g, want 2", peered.MeanPathLen)
	}
	mixed, err := RunGravityCtx(context.Background(), GravityConfig{SouthISPs: 20, LocalIXPs: 4, ContentPresence: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Remote peering keeps paths short even with no local content.
	if math.Abs(mixed.MeanPathLen-2) > 1e-9 {
		t.Errorf("remote-peered mean path length = %g, want 2", mixed.MeanPathLen)
	}
}

// The *SweepWorkers variants must return exactly the rows the serial sweep
// produces, for any worker count: results land at their task index and each
// configuration run is independent.
func TestSweepsParallelMatchSerial(t *testing.T) {
	for _, workers := range []int{4, 0} {
		serialC, err := CircumventionSweepCtx(context.Background(), 4, 0.6, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		parC, err := CircumventionSweepCtx(context.Background(), 4, 0.6, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(parC) != len(serialC) {
			t.Fatalf("circumvention rows = %d, want %d", len(parC), len(serialC))
		}
		for i := range serialC {
			if parC[i] != serialC[i] {
				t.Errorf("circumvention row %d differs with workers=%d: %+v vs %+v", i, workers, parC[i], serialC[i])
			}
		}

		migrations := []float64{0, 0.25, 0.5, 0.75, 1}
		serialP, err := PolicySweepCtx(context.Background(), 4, 0.6, migrations, 1)
		if err != nil {
			t.Fatal(err)
		}
		parP, err := PolicySweepCtx(context.Background(), 4, 0.6, migrations, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serialP {
			if parP[i] != serialP[i] {
				t.Errorf("policy row %d differs with workers=%d", i, workers)
			}
		}

		presences := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
		serialG, err := GravitySweepCtx(context.Background(), 40, 3, presences, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		parG, err := GravitySweepCtx(context.Background(), 40, 3, presences, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serialG {
			if parG[i] != serialG[i] {
				t.Errorf("gravity row %d differs with workers=%d", i, workers)
			}
		}

		base := EconConfig{
			SouthISPs: 40, LocalIXPs: 3, ContentPresence: 0.4,
			ContentVolume: 10, TransitPricePerUnit: 2, Seed: 7,
		}
		portCosts := []float64{1, 10, 19, 20, 21, 40}
		serialE, err := EconomicSweepCtx(context.Background(), base, portCosts, 1)
		if err != nil {
			t.Fatal(err)
		}
		parE, err := EconomicSweepCtx(context.Background(), base, portCosts, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serialE {
			if parE[i] != serialE[i] {
				t.Errorf("economic row %d differs with workers=%d", i, workers)
			}
		}
	}
}

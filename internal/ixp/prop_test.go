package ixp_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ixp"
	"repro/internal/proptest"
)

// Property suite for the IXP experiments: every measured row stays inside
// its semantic ranges (shares in [0,1], session counts consistent with the
// fabric's membership combinatorics, path lengths plausible), and the
// parallel sweeps are bit-identical to their serial forms for any worker
// count.

func TestPropCircumventionRowInvariants(t *testing.T) {
	proptest.Run(t, 601, 30, func(g *proptest.G) error {
		cfg := ixp.CircumventionConfig{
			Competitors:    g.IntRange(1, 6),
			IncumbentShare: g.Float64Range(0.1, 0.9),
			Mode:           ixp.RegulationMode(g.Intn(3)),
		}
		if cfg.Mode == ixp.RegulationCircumvented {
			cfg.Shells = g.IntRange(1, 5)
			cfg.MigratedShare = g.Float64Range(0, 0.5)
		}
		row, err := ixp.RunCircumventionCtx(context.Background(), cfg)
		if err != nil {
			return fmt.Errorf("%+v: %w", cfg, err)
		}
		if row.Mode != cfg.Mode || row.Shells != cfg.Shells {
			return fmt.Errorf("row echoes wrong config: %+v for %+v", row, cfg)
		}
		// All competitors join the open exchange, so the competitor clique
		// alone yields C(n,2) sessions; other members only add more.
		minSessions := cfg.Competitors * (cfg.Competitors - 1) / 2
		if row.IXPSessions < minSessions {
			return fmt.Errorf("IXPSessions = %d < competitor clique %d (%+v)", row.IXPSessions, minSessions, cfg)
		}
		for name, v := range map[string]float64{
			"DomesticShare":  row.DomesticShare,
			"IncumbentLocal": row.IncumbentLocal,
		} {
			if math.IsNaN(v) || v < 0 || v > 1+1e-9 {
				return fmt.Errorf("%s = %v out of [0,1] (%+v)", name, v, cfg)
			}
		}
		// Determinism: the scenario has no hidden randomness at all.
		row2, err := ixp.RunCircumventionCtx(context.Background(), cfg)
		if err != nil {
			return err
		}
		if row2 != row {
			return fmt.Errorf("same config, different rows: %+v vs %+v", row, row2)
		}
		return nil
	})
}

func TestPropGravityRowInvariants(t *testing.T) {
	proptest.Run(t, 602, 30, func(g *proptest.G) error {
		cfg := ixp.GravityConfig{
			SouthISPs:        g.IntRange(1, 8),
			LocalIXPs:        g.IntRange(1, 4),
			ContentPresence:  g.Float64(),
			RemotePeerAlways: g.Bool(0.3),
			Seed:             g.Uint64(),
		}
		row, err := ixp.RunGravityCtx(context.Background(), cfg)
		if err != nil {
			return fmt.Errorf("%+v: %w", cfg, err)
		}
		shares := row.GiantIXPShare + row.LocalIXPShare + row.TransitShare
		if shares > 0 && !proptest.ApproxEq(shares, 1, 1e-9) {
			return fmt.Errorf("shares sum to %v, want 1 (%+v)", shares, row)
		}
		for name, v := range map[string]float64{
			"GiantIXPShare": row.GiantIXPShare,
			"LocalIXPShare": row.LocalIXPShare,
			"TransitShare":  row.TransitShare,
		} {
			if math.IsNaN(v) || v < 0 || v > 1+1e-9 {
				return fmt.Errorf("%s = %v out of [0,1]", name, v)
			}
		}
		if row.RemotePeered < 0 || row.RemotePeered > cfg.SouthISPs {
			return fmt.Errorf("RemotePeered = %d out of [0,%d]", row.RemotePeered, cfg.SouthISPs)
		}
		if cfg.RemotePeerAlways && row.RemotePeered != cfg.SouthISPs {
			return fmt.Errorf("RemotePeerAlways but only %d/%d remote-peered", row.RemotePeered, cfg.SouthISPs)
		}
		// Any delivered content path has at least source and origin hops.
		if shares > 0 && row.MeanPathLen < 2 {
			return fmt.Errorf("MeanPathLen = %v < 2 with traffic delivered", row.MeanPathLen)
		}
		return nil
	})
}

func TestPropSweepsWorkerInvariant(t *testing.T) {
	ctx := context.Background()
	proptest.Run(t, 603, 12, func(g *proptest.G) error {
		competitors := g.IntRange(1, 5)
		share := g.Float64Range(0.2, 0.8)
		maxShells := g.IntRange(1, 4)
		presences := g.FloatsIn(1, 5, 0, 1)
		seed := g.Uint64()
		serialC, err := ixp.CircumventionSweepCtx(ctx, competitors, share, maxShells, 1)
		if err != nil {
			return err
		}
		serialG, err := ixp.GravitySweepCtx(ctx, 3, 2, presences, seed, 1)
		if err != nil {
			return err
		}
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			fannedC, err := ixp.CircumventionSweepCtx(ctx, competitors, share, maxShells, workers)
			if err != nil {
				return err
			}
			if len(serialC) != len(fannedC) {
				return fmt.Errorf("circumvention sweep lengths differ: %d vs %d", len(serialC), len(fannedC))
			}
			for i := range serialC {
				if serialC[i] != fannedC[i] {
					return fmt.Errorf("circumvention row %d differs at workers=%d:\n %+v\n %+v",
						i, workers, serialC[i], fannedC[i])
				}
			}
			fannedG, err := ixp.GravitySweepCtx(ctx, 3, 2, presences, seed, workers)
			if err != nil {
				return err
			}
			for i := range serialG {
				if serialG[i] != fannedG[i] {
					return fmt.Errorf("gravity row %d differs at workers=%d:\n %+v\n %+v",
						i, workers, serialG[i], fannedG[i])
				}
			}
		}
		return nil
	})
}

package ixp

import (
	"context"
	"fmt"

	"repro/internal/parallel"
)

// EconConfig parameterizes the economic variant of the gravity experiment:
// instead of a fixed behavioural rule ("remote-peer when content is absent
// locally"), each South ISP makes a cost decision. Remote peering at the
// giant exchange costs a port fee; reaching content over paid transit costs
// per unit of traffic. The ISP remote-peers when the transit bill it avoids
// exceeds the port fee — so the sweep over port cost exposes the crossover
// where the giant IXP empties out.
type EconConfig struct {
	SouthISPs int
	LocalIXPs int
	// ContentPresence is the local hyperscaler PoP probability.
	ContentPresence float64
	// ContentVolume is each ISP's content traffic volume per period.
	ContentVolume float64
	// TransitPricePerUnit is the cost of carrying one volume unit over
	// paid transit.
	TransitPricePerUnit float64
	// RemotePortCost is the flat per-period cost of a remote port at the
	// giant exchange.
	RemotePortCost float64
	Seed           uint64
}

// EconRow is one measured point of the economic sweep.
type EconRow struct {
	RemotePortCost float64
	RemotePeered   int
	GiantIXPShare  float64
	LocalIXPShare  float64
	TransitShare   float64
	// MeanCost is the average per-ISP spend (port fees + transit bills).
	MeanCost float64
}

// RunEconomicCtx runs one configuration: ISPs without local content compare
// the transit bill (volume × price) against the remote port fee and pick
// the cheaper option; ISPs with local content always peer locally (free).
// ctx cancels the underlying gravity convergence; the row is identical
// whenever ctx never cancels.
func RunEconomicCtx(ctx context.Context, cfg EconConfig) (EconRow, error) {
	if cfg.SouthISPs <= 0 || cfg.LocalIXPs <= 0 {
		return EconRow{}, fmt.Errorf("ixp: economic config incomplete")
	}
	gravityCfg := GravityConfig{
		SouthISPs:       cfg.SouthISPs,
		LocalIXPs:       cfg.LocalIXPs,
		ContentPresence: cfg.ContentPresence,
		Seed:            cfg.Seed,
	}
	// Decide adoption economically: remote peering is worthwhile iff the
	// avoided transit bill exceeds the port cost.
	remoteWorthIt := cfg.ContentVolume*cfg.TransitPricePerUnit > cfg.RemotePortCost

	// Reuse the gravity scenario builder twice: the deterministic rule in
	// RunGravityCtx matches "remote-peer when content absent locally", which
	// is exactly the worth-it case; when not worth it, nobody remote-peers
	// and content-absent ISPs ride transit. We emulate the latter with a
	// presence-1 run restricted to content-present ISPs plus a transit
	// residue computed analytically from the same PoP placement.
	row, err := RunGravityCtx(ctx, gravityCfg)
	if err != nil {
		return EconRow{}, err
	}
	out := EconRow{RemotePortCost: cfg.RemotePortCost}
	if remoteWorthIt {
		out.RemotePeered = row.RemotePeered
		out.GiantIXPShare = row.GiantIXPShare
		out.LocalIXPShare = row.LocalIXPShare
		out.TransitShare = row.TransitShare
		out.MeanCost = float64(row.RemotePeered) * cfg.RemotePortCost / float64(cfg.SouthISPs)
		return out, nil
	}
	// Not worth it: the ISPs that would have remote-peered use transit
	// instead; locally-covered ISPs are unaffected.
	transitISPs := row.RemotePeered
	out.RemotePeered = 0
	out.LocalIXPShare = row.LocalIXPShare
	out.GiantIXPShare = 0
	out.TransitShare = row.GiantIXPShare + row.TransitShare
	out.MeanCost = float64(transitISPs) * cfg.ContentVolume * cfg.TransitPricePerUnit / float64(cfg.SouthISPs)
	return out, nil
}

// EconomicSweepCtx sweeps the remote port cost and returns one row per
// price point, exposing the adoption crossover at portCost = volume ×
// transit price. The price points fan out across at most workers goroutines
// (workers <= 0 means GOMAXPROCS); rows are written by index, so the output
// is identical for every worker count. ctx is checked between price points.
func EconomicSweepCtx(ctx context.Context, base EconConfig, portCosts []float64, workers int) ([]EconRow, error) {
	return parallel.Map(ctx, len(portCosts), workers, func(i int) (EconRow, error) {
		cfg := base
		cfg.RemotePortCost = portCosts[i]
		return RunEconomicCtx(ctx, cfg)
	})
}

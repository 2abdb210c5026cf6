package ixp

import (
	"context"
	"fmt"
)

// EconConfig parameterizes the economic variant of the gravity experiment:
// instead of a fixed behavioural rule ("remote-peer when content is absent
// locally"), each South ISP makes a cost decision. Remote peering at the
// giant exchange costs a port fee; reaching content over paid transit costs
// per unit of traffic. The ISP remote-peers when the transit bill it avoids
// exceeds the port fee — so the sweep over port cost exposes the crossover
// where the giant IXP empties out. The port fee is the swept variable, so
// it is not part of the config (see EconomicSweepCtx).
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
	Seed                uint64
}

// EconRow is one measured point of the economic sweep.
type EconRow struct {
	// RemotePortCost is the flat per-period cost of a remote port at the
	// giant exchange.
	RemotePortCost float64
	RemotePeered   int
	GiantIXPShare  float64
	LocalIXPShare  float64
	TransitShare   float64
	// MeanCost is the average per-ISP spend (port fees + transit bills).
	MeanCost float64
}

// EconomicSweepCtx sweeps the remote port cost and returns one row per
// price point, exposing the adoption crossover at portCost = volume ×
// transit price. The gravity world does not depend on the port cost, so it
// is built and converged once; each row is that world's cost decision: ISPs
// without local content compare the transit bill (volume × price) against
// the port fee and pick the cheaper option, while ISPs with local content
// always peer locally (free). ctx cancels the convergence; the rows are
// identical whenever ctx never cancels.
func EconomicSweepCtx(ctx context.Context, base EconConfig, portCosts []float64) ([]EconRow, error) {
	if base.SouthISPs <= 0 || base.LocalIXPs <= 0 {
		return nil, fmt.Errorf("ixp: economic config incomplete")
	}
	// RunGravityCtx remote-peers exactly the ISPs without local content: the
	// adopters whenever remote peering is worth it.
	g, err := RunGravityCtx(ctx, GravityConfig{
		SouthISPs:       base.SouthISPs,
		LocalIXPs:       base.LocalIXPs,
		ContentPresence: base.ContentPresence,
		Seed:            base.Seed,
	})
	if err != nil {
		return nil, err
	}
	isps := float64(base.SouthISPs)
	transitBill := base.ContentVolume * base.TransitPricePerUnit
	rows := make([]EconRow, len(portCosts))
	for i, cost := range portCosts {
		if transitBill > cost {
			rows[i] = EconRow{
				RemotePortCost: cost,
				RemotePeered:   g.RemotePeered,
				GiantIXPShare:  g.GiantIXPShare,
				LocalIXPShare:  g.LocalIXPShare,
				TransitShare:   g.TransitShare,
				MeanCost:       float64(g.RemotePeered) * cost / isps,
			}
			continue
		}
		// Not worth it: the ISPs that would have remote-peered ride transit
		// instead; locally covered ISPs are unaffected. MeanCost keeps the
		// n × volume × price evaluation order: n × transitBill can round
		// differently.
		rows[i] = EconRow{
			RemotePortCost: cost,
			LocalIXPShare:  g.LocalIXPShare,
			TransitShare:   g.GiantIXPShare + g.TransitShare,
			MeanCost:       float64(g.RemotePeered) * base.ContentVolume * base.TransitPricePerUnit / isps,
		}
	}
	return rows, nil
}

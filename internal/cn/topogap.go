package cn

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/stats"
)

// placements are the two gateway choices the topology studies compare on
// one seeded mesh: the arbitrary node-0 gateway and the 1-median.
var placements = []struct {
	name  string
	build func(n int, radius float64, r *rng.Rand) (*Network, error)
}{
	{"default", BuildMesh},
	{"optimized", BuildOptimizedMesh},
}

// TopoGapRow summarizes achievable max-min rates for one hop-distance
// quartile of the mesh under one gateway placement.
type TopoGapRow struct {
	Placement string // "default" or "optimized"
	Quartile  int    // 1 = nearest members, 4 = farthest
	MeanRate  float64
	MeanHops  float64
}

// TopoGapExperiment quantifies the layer the scheduler experiments cannot
// see: even a perfectly fair gateway discipline can only deliver what each
// member's multi-hop path supports. It computes max-min rates at unit link
// capacity by hop quartile under the arbitrary (node-0) gateway and under
// the 1-median placement, showing that placement — a community decision,
// not a protocol — is what narrows the near/far gap.
func TopoGapExperiment(members int, radius float64, seed uint64) ([]TopoGapRow, error) {
	if members < 8 {
		return nil, fmt.Errorf("cn: topology gap needs >= 8 members")
	}
	var rows []TopoGapRow
	for _, pl := range placements {
		net, err := pl.build(members, radius, rng.New(seed))
		if err != nil {
			return nil, err
		}
		rates, err := net.MaxMinRates(1)
		if err != nil {
			return nil, err
		}
		type mh struct {
			hops int
			rate float64
		}
		var ms []mh
		for i := 0; i < net.G.N(); i++ {
			if i == net.Gateway {
				continue
			}
			ms = append(ms, mh{hops: net.HopsToGateway(i), rate: rates[i]})
		}
		sort.Slice(ms, func(a, b int) bool { return ms[a].hops < ms[b].hops })
		per := (len(ms) + 3) / 4
		for q := 0; q < 4; q++ {
			lo := q * per
			hi := lo + per
			if lo >= len(ms) {
				break
			}
			if hi > len(ms) {
				hi = len(ms)
			}
			var rs, hs []float64
			for _, m := range ms[lo:hi] {
				rs = append(rs, m.rate)
				hs = append(hs, float64(m.hops))
			}
			rows = append(rows, TopoGapRow{
				Placement: pl.name,
				Quartile:  q + 1,
				MeanRate:  stats.Mean(rs),
				MeanHops:  stats.Mean(hs),
			})
		}
	}
	return rows, nil
}

// NearFarGap returns, for one placement's rows, the ratio of the nearest
// quartile's mean rate to the farthest quartile's (>= 1; 1 = no gap).
func NearFarGap(rows []TopoGapRow, placement string) float64 {
	var near, far float64
	for _, r := range rows {
		if r.Placement != placement {
			continue
		}
		switch r.Quartile {
		case 1:
			near = r.MeanRate
		case 4:
			far = r.MeanRate
		}
	}
	if far == 0 {
		return 0
	}
	return near / far
}

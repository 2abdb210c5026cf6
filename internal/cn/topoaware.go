package cn

import (
	"fmt"
	"slices"

	"repro/internal/stats"
)

// TopoAwareResult extends the scheduler comparison with the topology layer:
// each member's granted airtime is additionally capped by what its multi-hop
// path can carry (the max-min rate from the airtime model), and satisfaction
// is reported separately for the near and far halves of the mesh.
type TopoAwareResult struct {
	Scheduler string
	NearSat   float64 // mean satisfaction, nearest half by hops
	FarSat    float64 // mean satisfaction, farthest half
	// Gap is NearSat/FarSat (>= 1 when far members do worse).
	Gap float64
}

// SimulateTopologyAware steps a fresh ChurnSim over cfg through sched for
// epochs epochs, every member up, and clamps every member's allocation at its
// topology-supported rate (scaled so the mesh's aggregate matches the
// gateway capacity). It exposes the inequality the gateway-only model hides:
// even a fair scheduler cannot serve a member past what its path supports.
func SimulateTopologyAware(cfg ChurnConfig, epochs int, sched Scheduler) (TopoAwareResult, error) {
	if cfg.Members < 4 {
		return TopoAwareResult{}, fmt.Errorf("cn: topology-aware sim needs >= 4 members")
	}
	s, err := NewChurnSim(cfg, sched)
	if err != nil {
		return TopoAwareResult{}, err
	}

	// Topology rates, rescaled so their sum equals the gateway capacity —
	// the two layers then describe the same total resource.
	rawRates, err := s.net.MaxMinRates(1)
	if err != nil {
		return TopoAwareResult{}, err
	}
	var rateSum float64
	for _, x := range rawRates {
		rateSum += x
	}
	caps := make([]float64, cfg.Members)
	for i := range caps {
		caps[i] = rawRates[i+1] / rateSum * s.capacity
	}

	// Near/far split by hop count: near is every member at or below the
	// median hop count. When the median is also the farthest hop count that
	// leaves no far member, so near stops one hop short of it; when every
	// member is equally far there is no split, and both halves are the whole
	// mesh.
	hops := make([]int, cfg.Members)
	minHop, maxHop := 0, 0
	for i := range hops {
		hops[i] = s.net.HopsToGateway(i + 1)
		if i == 0 || hops[i] < minHop {
			minHop = hops[i]
		}
		if hops[i] > maxHop {
			maxHop = hops[i]
		}
	}
	split := medianInt(hops)
	if split == maxHop {
		split--
	}

	var nearSats, farSats []float64
	for e := 0; e < epochs; e++ {
		air, alloc, _, _ := s.step()
		for i := range alloc {
			if alloc[i] > caps[i] {
				alloc[i] = caps[i] // the path cannot carry more
			}
			if air[i] <= 0 {
				continue
			}
			sat := alloc[i] / air[i]
			if sat > 1 {
				sat = 1
			}
			if minHop == maxHop || hops[i] <= split {
				nearSats = append(nearSats, sat)
			}
			if minHop == maxHop || hops[i] > split {
				farSats = append(farSats, sat)
			}
		}
	}
	res := TopoAwareResult{
		Scheduler: sched.Name(),
		NearSat:   stats.Mean(nearSats),
		FarSat:    stats.Mean(farSats),
	}
	if res.FarSat > 0 {
		res.Gap = res.NearSat / res.FarSat
	}
	return res, nil
}

// medianInt returns the upper median of xs, leaving xs as it is.
func medianInt(xs []int) int {
	cp := slices.Clone(xs)
	slices.Sort(cp)
	return cp[len(cp)/2]
}

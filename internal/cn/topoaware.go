package cn

import (
	"fmt"

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

// SimulateTopologyAware runs the same demand process as Simulate but clamps
// every member's allocation at its topology-supported rate (scaled so the
// mesh's aggregate matches the gateway capacity). It exposes the inequality
// the gateway-only model hides: even a fair scheduler cannot serve a member
// past what its path supports.
func SimulateTopologyAware(cfg SimConfig, sched Scheduler) (TopoAwareResult, error) {
	if cfg.Members < 4 {
		return TopoAwareResult{}, fmt.Errorf("cn: topology-aware sim needs >= 4 members")
	}
	setup, err := newSimSetup(cfg.Members, cfg.HeavyFrac, cfg.CapacityFactor, cfg.Seed)
	if err != nil {
		return TopoAwareResult{}, err
	}
	net, model, demandRNG, capacity := setup.net, setup.model, setup.demandRNG, setup.capacity

	// Topology rates, rescaled so their sum equals the gateway capacity —
	// the two layers then describe the same total resource.
	rawRates, err := net.MaxMinRates(1)
	if err != nil {
		return TopoAwareResult{}, err
	}
	var rateSum float64
	for _, x := range rawRates {
		rateSum += x
	}
	caps := make([]float64, cfg.Members)
	for i := range caps {
		caps[i] = rawRates[i+1] / rateSum * capacity
	}

	// Near/far split by hop count: near is every member at or below the
	// median hop count. When the median is also the farthest hop count that
	// leaves no far member, so near stops one hop short of it; when every
	// member is equally far there is no split, and both halves are the whole
	// mesh.
	hops := make([]int, cfg.Members)
	minHop, maxHop := 0, 0
	for i := range hops {
		hops[i] = net.HopsToGateway(i + 1)
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

	sched.Reset(cfg.Members)
	var nearSats, farSats []float64
	for e := 0; e < cfg.Epochs; e++ {
		bytesDemand, _ := model.Sample(demandRNG)
		airDemand := make([]float64, cfg.Members)
		for i := range bytesDemand {
			airDemand[i] = bytesDemand[i] * net.PathETX[i+1]
		}
		alloc := sched.Allocate(airDemand, capacity)
		for i := range alloc {
			if alloc[i] > caps[i] {
				alloc[i] = caps[i] // the path cannot carry more
			}
			if airDemand[i] <= 0 {
				continue
			}
			sat := alloc[i] / airDemand[i]
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

func medianInt(xs []int) int {
	cp := append([]int(nil), xs...)
	for i := 0; i < len(cp); i++ {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[len(cp)/2]
}

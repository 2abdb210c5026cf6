package cn

import (
	"fmt"
	"math"
)

// linkKey identifies an undirected mesh link.
type linkKey struct{ a, b int }

func mkLink(u, v int) linkKey {
	if u > v {
		u, v = v, u
	}
	return linkKey{a: u, b: v}
}

// linkETX returns the ETX weight of the (u,v) edge, or an error if absent.
func (n *Network) linkETX(u, v int) (float64, error) {
	for _, e := range n.G.Neighbors(u) {
		if e.To == v {
			return e.Weight, nil
		}
	}
	return 0, fmt.Errorf("cn: no link %d-%d", u, v)
}

// MaxMinRates computes the max-min fair per-member byte rates when every
// member's traffic follows its gateway route and each link can carry
// linkCapacity units of airtime per epoch (one unit = one ETX-weighted
// byte). Member i consumes w_e airtime on every link e of its path per
// byte, where w_e is the link's ETX, so lossier and longer paths are more
// expensive. The allocation is progressive filling: all rates grow together
// until a link saturates, members crossing it freeze, and the rest
// continue. rates[gateway] is 0.
//
// This is the topology-level truth underneath the scheduler experiments:
// no gateway-side discipline can give a member more than its path supports.
func (n *Network) MaxMinRates(linkCapacity float64) ([]float64, error) {
	if linkCapacity <= 0 {
		return nil, fmt.Errorf("cn: link capacity must be positive")
	}
	nNodes := n.G.N()
	// Per-member path links and their weights.
	type memberPath struct {
		links []linkKey
		w     map[linkKey]float64
	}
	paths := make([]memberPath, nNodes)
	for i := 0; i < nNodes; i++ {
		if i == n.Gateway {
			continue
		}
		route := n.RouteToGateway(i)
		if route == nil {
			return nil, fmt.Errorf("cn: node %d unrouted", i)
		}
		mp := memberPath{w: make(map[linkKey]float64)}
		for h := 0; h+1 < len(route); h++ {
			etx, err := n.linkETX(route[h], route[h+1])
			if err != nil {
				return nil, err
			}
			k := mkLink(route[h], route[h+1])
			mp.links = append(mp.links, k)
			mp.w[k] = etx
		}
		paths[i] = mp
	}

	// Progressive filling with an absolute common rate t: every active
	// member holds rate t; a link's constraint is
	// fixedLoad_e + t·coeff_e <= capacity, where fixedLoad_e is frozen
	// members' consumption.
	rates := make([]float64, nNodes)
	frozen := make([]bool, nNodes)
	frozen[n.Gateway] = true
	fixedLoad := make(map[linkKey]float64)
	t := 0.0

	for {
		coeff := make(map[linkKey]float64)
		activeAny := false
		for i := 0; i < nNodes; i++ {
			if frozen[i] {
				continue
			}
			activeAny = true
			for _, k := range paths[i].links {
				coeff[k] += paths[i].w[k]
			}
		}
		if !activeAny {
			break
		}
		tNext := math.Inf(1)
		var bottleneck linkKey
		haveBottleneck := false
		for k, c := range coeff {
			if c <= 0 {
				continue
			}
			slack := linkCapacity - fixedLoad[k]
			if slack < 0 {
				slack = 0
			}
			tm := slack / c
			if tm < tNext {
				tNext = tm
				bottleneck = k
				haveBottleneck = true
			}
		}
		if !haveBottleneck || math.IsInf(tNext, 1) {
			break
		}
		if tNext < t {
			tNext = t // numeric guard: rates never shrink
		}
		for i := 0; i < nNodes; i++ {
			if !frozen[i] {
				rates[i] = tNext
			}
		}
		for i := 0; i < nNodes; i++ {
			if frozen[i] {
				continue
			}
			if _, uses := paths[i].w[bottleneck]; uses {
				frozen[i] = true
				for _, k := range paths[i].links {
					fixedLoad[k] += rates[i] * paths[i].w[k]
				}
			}
		}
		t = tNext
	}
	return rates, nil
}

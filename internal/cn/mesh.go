// Package cn simulates a community wireless mesh network: a geometric mesh
// topology with lossy links (ETX link metrics), a single scarce backhaul
// gateway, per-member demand, and three capacity-sharing disciplines —
// unmanaged proportional sharing, max-min fair queueing, and the
// common-pool-resource credit scheme community networks use to manage
// congestion socially (Johnson et al., CSCW 2021; paper §4).
//
// The simulator also includes the volunteer-maintenance model that the
// community-network literature identifies as the other scarce resource
// ("The Network Is an Excuse": hardware maintenance sustains the community).
package cn

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Network is a connected mesh with a designated gateway node. PathETX[i] is
// the cumulative expected-transmission-count cost of node i's route to the
// gateway: the airtime multiplier every byte from i pays on the shared
// medium.
type Network struct {
	G       *graph.Graph
	Pos     [][2]float64
	Gateway int
	PathETX []float64
	parent  []int
}

// BuildMesh places n nodes uniformly in the unit square, connects nodes
// within radius, converts link distance into an ETX metric (longer links
// lose more frames: 1 for adjacent nodes, 3 at radius), and routes every
// node to the gateway (node 0) via minimum-ETX paths. It retries placement
// up to 32 times; if no draw connects, it bridges the components of the
// last draw (see bridgeComponents), so the mesh is always connected.
func BuildMesh(n int, radius float64, r *rng.Rand) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("cn: mesh needs at least 2 nodes, got %d", n)
	}
	if !(radius > 0) {
		// A radius of 0 or NaN links no two nodes, and every bridge would
		// cost an infinite or NaN ETX; a negative one is no radio range.
		return nil, fmt.Errorf("cn: mesh radius %g is not positive", radius)
	}
	var g *graph.Graph
	var pos [][2]float64
	connected := false
	for attempt := 0; attempt < 32 && !connected; attempt++ {
		g, pos = graph.RandomGeometric(n, radius, r.Split())
		connected = g.GiantComponentSize() == n
	}
	if !connected {
		if err := bridgeComponents(g, pos); err != nil {
			return nil, err
		}
	}
	// Re-weight edges: ETX grows quadratically from 1 (adjacent) to 3 (at
	// max radius), a standard loss-vs-distance shape; a bridge, longer than
	// radius, costs more than 3.
	etxG := graph.New(n, false)
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				frac := e.Weight / radius
				etx := 1 + 2*frac*frac
				if err := etxG.AddEdge(u, e.To, etx); err != nil {
					return nil, err
				}
			}
		}
	}
	dist, prev := etxG.Dijkstra(0)
	return &Network{G: etxG, Pos: pos, Gateway: 0, PathETX: dist, parent: prev}, nil
}

// bridgeComponents connects the geometric graph g in place. Starting from
// the gateway's component (node 0's), it repeatedly adds the shortest link,
// weighted by its length, from a node already reached to one not yet
// reached, which reaches that node's whole component. Ties break in node
// index order, so the bridges are a function of the draw alone.
func bridgeComponents(g *graph.Graph, pos [][2]float64) error {
	n := g.N()
	label, _ := g.Components()
	reached := make([]bool, n)
	near := make([]float64, n) // per node not reached: squared distance to its nearest reached node
	from := make([]int, n)     // ... and that node
	for i := range near {
		near[i] = math.Inf(1)
	}
	reach := func(c int) {
		var fresh []int
		for v := 0; v < n; v++ {
			if label[v] == c {
				reached[v] = true
				fresh = append(fresh, v)
			}
		}
		for _, u := range fresh {
			for v := 0; v < n; v++ {
				dx, dy := pos[u][0]-pos[v][0], pos[u][1]-pos[v][1]
				if d2 := dx*dx + dy*dy; !reached[v] && d2 < near[v] {
					near[v], from[v] = d2, u
				}
			}
		}
	}
	reach(label[0])
	for {
		v := -1
		for w := 0; w < n; w++ {
			if !reached[w] && (v < 0 || near[w] < near[v]) {
				v = w
			}
		}
		if v < 0 {
			return nil
		}
		if err := g.AddEdge(from[v], v, math.Sqrt(near[v])); err != nil {
			return err
		}
		reach(label[v])
	}
}

// RouteToGateway returns node i's path to the gateway (i first), or nil for
// the gateway itself.
func (n *Network) RouteToGateway(i int) []int {
	if i == n.Gateway {
		return nil
	}
	p := graph.Path(n.parent, n.Gateway, i)
	if p == nil {
		return nil
	}
	// graph.Path runs gateway→i; reverse to i→gateway.
	for a, b := 0, len(p)-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
	return p
}

// HopsToGateway returns the hop count of node i's gateway route.
func (n *Network) HopsToGateway(i int) int {
	p := n.RouteToGateway(i)
	if p == nil {
		return 0
	}
	return len(p) - 1
}

// MeanPathETX returns the average gateway-path ETX over non-gateway nodes,
// a one-number summary of mesh quality.
func (n *Network) MeanPathETX() float64 {
	sum, cnt := 0.0, 0
	for i, d := range n.PathETX {
		if i == n.Gateway || math.IsInf(d, 1) {
			continue
		}
		sum += d
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

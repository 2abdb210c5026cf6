package cn

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

// lineNetwork hand-builds a path mesh 0-1-2-...-k with unit-ETX links and
// gateway 0.
func lineNetwork(t *testing.T, k int) *Network {
	t.Helper()
	g := graph.New(k+1, false)
	for i := 0; i < k; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	dist, prev := g.Dijkstra(0)
	return &Network{G: g, Gateway: 0, PathETX: dist, parent: prev}
}

func TestMaxMinRatesStar(t *testing.T) {
	// Star with 3 leaves, unit ETX: each leaf's own access link is its
	// bottleneck → rate = capacity each.
	g := graph.New(4, false)
	for i := 1; i <= 3; i++ {
		if err := g.AddEdge(0, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	dist, prev := g.Dijkstra(0)
	n := &Network{G: g, Gateway: 0, PathETX: dist, parent: prev}
	rates, err := n.MaxMinRates(1)
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 0 {
		t.Errorf("gateway rate = %g", rates[0])
	}
	for i := 1; i <= 3; i++ {
		if math.Abs(rates[i]-1) > 1e-9 {
			t.Errorf("leaf %d rate = %g, want 1", i, rates[i])
		}
	}
}

func TestMaxMinRatesLineSharedBottleneck(t *testing.T) {
	// Line 0-1-2: link (0,1) carries both members 1 and 2 → they share it
	// equally: r1 = r2 = 0.5. Member 2 additionally uses (1,2), which has
	// slack.
	n := lineNetwork(t, 2)
	rates, err := n.MaxMinRates(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[1]-0.5) > 1e-9 || math.Abs(rates[2]-0.5) > 1e-9 {
		t.Errorf("rates = %v, want 0.5 each", rates)
	}
}

func TestMaxMinRatesRespectCapacities(t *testing.T) {
	net, err := BuildMesh(25, 0.35, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	const cap = 2.0
	rates, err := net.MaxMinRates(cap)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute per-link load and check feasibility.
	load := make(map[linkKey]float64)
	for i := 0; i < net.G.N(); i++ {
		if i == net.Gateway {
			continue
		}
		route := net.RouteToGateway(i)
		for h := 0; h+1 < len(route); h++ {
			etx, err := net.linkETX(route[h], route[h+1])
			if err != nil {
				t.Fatal(err)
			}
			load[mkLink(route[h], route[h+1])] += rates[i] * etx
		}
	}
	for k, l := range load {
		if l > cap+1e-6 {
			t.Errorf("link %v overloaded: %g > %g", k, l, cap)
		}
	}
	// Every member gets something.
	for i, r := range rates {
		if i != net.Gateway && r <= 0 {
			t.Errorf("member %d starved", i)
		}
	}
}

func TestMaxMinRatesDepthInequality(t *testing.T) {
	// Structural claim: nodes farther from the gateway cannot out-rate
	// nearer ones under fair sharing — hop count correlates negatively
	// with rate.
	net, err := BuildMesh(40, 0.3, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	rates, err := net.MaxMinRates(1)
	if err != nil {
		t.Fatal(err)
	}
	var hops, rs []float64
	for i := 0; i < net.G.N(); i++ {
		if i == net.Gateway {
			continue
		}
		hops = append(hops, float64(net.HopsToGateway(i)))
		rs = append(rs, rates[i])
	}
	if corr := stats.Spearman(hops, rs); !(corr < -0.2) {
		t.Errorf("hop/rate correlation = %g, want clearly negative", corr)
	}
}

func TestAggregateCapacityScalesWithLinkCapacity(t *testing.T) {
	net, err := BuildMesh(20, 0.35, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := net.MaxMinRates(1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := net.MaxMinRates(2)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := stats.Sum(r1), stats.Sum(r2)
	if math.Abs(c2-2*c1) > 1e-6 {
		t.Errorf("capacity should scale linearly: %g vs 2x%g", c2, c1)
	}
}

func TestOptimizedGatewayRaisesAggregateCapacity(t *testing.T) {
	wins := 0
	for seed := uint64(1); seed <= 6; seed++ {
		def, err := BuildMesh(30, 0.32, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := BuildOptimizedMesh(30, 0.32, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := def.MaxMinRates(1)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := opt.MaxMinRates(1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Sum(ro) >= stats.Sum(rd)-1e-9 {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("optimized gateway matched/beat default only %d/6 times", wins)
	}
}

func TestMaxMinRatesValidation(t *testing.T) {
	n := lineNetwork(t, 2)
	if _, err := n.MaxMinRates(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func BenchmarkMaxMinRates(b *testing.B) {
	net, err := BuildMesh(50, 0.3, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.MaxMinRates(1); err != nil {
			b.Fatal(err)
		}
	}
}

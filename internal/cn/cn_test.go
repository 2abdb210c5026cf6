package cn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestBuildMeshConnected(t *testing.T) {
	net, err := BuildMesh(30, 0.35, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if net.G.N() != 30 {
		t.Fatalf("nodes = %d", net.G.N())
	}
	for i := 0; i < 30; i++ {
		if math.IsInf(net.PathETX[i], 1) {
			t.Errorf("node %d unreachable from gateway", i)
		}
	}
	if net.PathETX[net.Gateway] != 0 {
		t.Errorf("gateway ETX = %g", net.PathETX[net.Gateway])
	}
}

func TestBuildMeshTooSmall(t *testing.T) {
	if _, err := BuildMesh(1, 0.3, rng.New(1)); err == nil {
		t.Error("1-node mesh accepted")
	}
}

// meshConnected checks that every node of net routes to the gateway and
// reports whether net holds a bridge (an ETX above 3: a link longer than the
// radio range).
func meshConnected(t *testing.T, net *Network) (bridged bool) {
	t.Helper()
	if got := net.G.GiantComponentSize(); got != net.G.N() {
		t.Fatalf("giant component %d of %d nodes", got, net.G.N())
	}
	for i, d := range net.PathETX {
		if math.IsInf(d, 1) || math.IsNaN(d) {
			t.Fatalf("node %d unreachable from gateway", i)
		}
		for _, e := range net.G.Neighbors(i) {
			bridged = bridged || e.Weight > 3
		}
	}
	return bridged
}

func TestBuildMeshBridgesDisconnectedDraw(t *testing.T) {
	// Radius so small no 40-node placement connects: the mesh is the last
	// draw's few links plus bridges, a spanning tree.
	net, err := BuildMesh(40, 0.01, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !meshConnected(t, net) {
		t.Fatal("no bridge in a mesh whose draws cannot connect")
	}
	if net.G.M() != 39 {
		t.Errorf("links = %d, want a spanning tree of 39", net.G.M())
	}
	for _, r := range []float64{0, -0.35, math.NaN()} {
		if _, err := BuildMesh(5, r, rng.New(1)); err == nil {
			t.Errorf("radius %v accepted", r)
		}
	}
}

// TestSmallCommunitiesAlwaysConnect: the smallest communities draw the most
// disconnected placements, yet every seed builds a connected mesh, and some
// of them only through the bridging fallback.
func TestSmallCommunitiesAlwaysConnect(t *testing.T) {
	bridged := 0
	for seed := uint64(1); seed <= 200; seed++ {
		s, err := NewChurnSim(ChurnConfig{Members: 4, HeavyFrac: 0.2, CapacityFactor: 0.6, Seed: seed}, MaxMin{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if meshConnected(t, s.net) {
			bridged++
		}
	}
	if bridged == 0 {
		t.Error("no seed needed a bridge; the fallback went untested")
	}
}

func TestRouteToGateway(t *testing.T) {
	net, err := BuildMesh(25, 0.4, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 25; i++ {
		p := net.RouteToGateway(i)
		if len(p) < 2 {
			t.Fatalf("node %d path = %v", i, p)
		}
		if p[0] != i || p[len(p)-1] != net.Gateway {
			t.Errorf("path endpoints wrong: %v", p)
		}
		if net.HopsToGateway(i) != len(p)-1 {
			t.Errorf("hops mismatch for %d", i)
		}
	}
	if net.RouteToGateway(net.Gateway) != nil {
		t.Error("gateway route should be nil")
	}
}

func TestMeshETXAtLeastHopCount(t *testing.T) {
	net, err := BuildMesh(25, 0.4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 25; i++ {
		if net.PathETX[i] < float64(net.HopsToGateway(i))-1e-9 {
			t.Errorf("node %d: ETX %g below hop count %d", i, net.PathETX[i], net.HopsToGateway(i))
		}
	}
	if net.MeanPathETX() <= 0 {
		t.Error("mean path ETX should be positive")
	}
}

func TestProportionalUncongested(t *testing.T) {
	alloc := Proportional{}.Allocate([]float64{1, 2, 3}, 10)
	for i, want := range []float64{1, 2, 3} {
		if alloc[i] != want {
			t.Errorf("alloc[%d] = %g, want %g", i, alloc[i], want)
		}
	}
}

func TestProportionalCongested(t *testing.T) {
	alloc := Proportional{}.Allocate([]float64{1, 3}, 2)
	if math.Abs(alloc[0]-0.5) > 1e-9 || math.Abs(alloc[1]-1.5) > 1e-9 {
		t.Errorf("alloc = %v", alloc)
	}
}

func TestMaxMinProtectsSmallDemands(t *testing.T) {
	alloc := MaxMin{}.Allocate([]float64{1, 100}, 10)
	if alloc[0] != 1 {
		t.Errorf("small demand got %g, want 1", alloc[0])
	}
	if math.Abs(alloc[1]-9) > 1e-9 {
		t.Errorf("large demand got %g, want 9", alloc[1])
	}
}

func TestMaxMinEqualSplit(t *testing.T) {
	alloc := MaxMin{}.Allocate([]float64{50, 50, 50}, 30)
	for _, a := range alloc {
		if math.Abs(a-10) > 1e-9 {
			t.Errorf("alloc = %v, want equal 10s", alloc)
		}
	}
}

func TestWaterfillConservation(t *testing.T) {
	demand := []float64{5, 1, 7, 2}
	alloc := waterfill(demand, 8)
	sum := 0.0
	for i, a := range alloc {
		if a < 0 || a > demand[i]+1e-9 {
			t.Errorf("alloc[%d] = %g out of [0, %g]", i, a, demand[i])
		}
		sum += a
	}
	if math.Abs(sum-8) > 1e-9 {
		t.Errorf("allocated %g, want 8", sum)
	}
}

func TestCPRUncongestedFree(t *testing.T) {
	c := &CPR{}
	c.Reset(2)
	alloc := c.Allocate([]float64{1, 2}, 10)
	if alloc[0] != 1 || alloc[1] != 2 {
		t.Errorf("uncongested alloc = %v", alloc)
	}
	// Balances should be untouched by uncongested epochs (income only).
	b := c.Balances()
	if b[0] != 5 || b[1] != 5 {
		t.Errorf("balances = %v, want [5 5]", b)
	}
}

func TestCPRSaverCanBurst(t *testing.T) {
	c := &CPR{RolloverCap: 3}
	c.Reset(2)
	// Epoch 1-2: member 0 idle (saves credits), member 1 hogs.
	for e := 0; e < 2; e++ {
		c.Allocate([]float64{0, 100}, 10)
	}
	// Epoch 3: member 0 bursts. Its balance (15, capped) beats member 1's.
	alloc := c.Allocate([]float64{12, 100}, 10)
	if alloc[0] <= alloc[1] {
		t.Errorf("saver got %g, hog got %g; saver should win", alloc[0], alloc[1])
	}
	if alloc[0] < 7 {
		t.Errorf("saver burst allocation %g too small", alloc[0])
	}
}

func TestCPRNeverExceedsCapacity(t *testing.T) {
	c := &CPR{}
	c.Reset(3)
	r := rng.New(9)
	for e := 0; e < 50; e++ {
		demand := []float64{r.Pareto(1, 1.2), r.Pareto(1, 1.2), r.Pareto(1, 1.2)}
		alloc := c.Allocate(demand, 4)
		sum := 0.0
		for i, a := range alloc {
			if a > demand[i]+1e-9 || a < 0 {
				t.Fatalf("epoch %d: alloc %g vs demand %g", e, a, demand[i])
			}
			sum += a
		}
		if sum > 4+1e-9 {
			t.Fatalf("epoch %d: allocated %g > capacity", e, sum)
		}
	}
}

func TestCPRLeftoverRedistributed(t *testing.T) {
	c := &CPR{RolloverCap: 1}
	c.Reset(2)
	// Congested epoch where member 0's balance caps it below fair share:
	// income=5 each, balances 5/5. demand 20/20, capacity 10: both capped
	// at 5+5=10 → full utilization.
	alloc := c.Allocate([]float64{20, 20}, 10)
	if math.Abs(alloc[0]+alloc[1]-10) > 1e-9 {
		t.Errorf("capacity wasted: %v", alloc)
	}
}

func TestSimulateShapesE3(t *testing.T) {
	results, err := CompareSchedulers(ChurnConfig{Members: 30, HeavyFrac: 0.2, CapacityFactor: 0.6, Seed: 42}, 300)
	if err != nil {
		t.Fatal(err)
	}
	prop, maxmin, cpr := results[0], results[1], results[2]

	if prop.Scheduler != "proportional" || maxmin.Scheduler != "maxmin" || cpr.Scheduler != "cpr-credits" {
		t.Fatalf("scheduler order wrong: %v %v %v", prop.Scheduler, maxmin.Scheduler, cpr.Scheduler)
	}
	// Claim shape (paper §4 [28]): managed sharing protects light users'
	// small demands from heavy hitters, and the credit scheme additionally
	// beats per-epoch fair queueing on light users' burst satisfaction
	// (inter-temporal fairness).
	if !(maxmin.LightProtected > prop.LightProtected) {
		t.Errorf("maxmin light protection %g should beat proportional %g", maxmin.LightProtected, prop.LightProtected)
	}
	if !(cpr.LightProtected > prop.LightProtected) {
		t.Errorf("cpr light protection %g should beat proportional %g", cpr.LightProtected, prop.LightProtected)
	}
	if maxmin.LightProtected < 0.95 || cpr.LightProtected < 0.95 {
		t.Errorf("managed schemes should nearly always protect light users: maxmin %g cpr %g",
			maxmin.LightProtected, cpr.LightProtected)
	}
	if !(cpr.BurstSatisfaction > maxmin.BurstSatisfaction) {
		t.Errorf("cpr burst satisfaction %g should beat maxmin %g", cpr.BurstSatisfaction, maxmin.BurstSatisfaction)
	}
	if !(cpr.LightSatisfaction > prop.LightSatisfaction) {
		t.Errorf("cpr light satisfaction %g should beat proportional %g", cpr.LightSatisfaction, prop.LightSatisfaction)
	}
	if prop.CongestedEpochs == 0 {
		t.Error("scenario should be congested")
	}
	for _, res := range results {
		if res.Utilization < 0.5 || res.Utilization > 1+1e-9 {
			t.Errorf("%s utilization = %g out of range", res.Scheduler, res.Utilization)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := ChurnConfig{Members: 20, HeavyFrac: 0.25, CapacityFactor: 0.7, Seed: 5}
	a, err := Simulate(cfg, 100, &CPR{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, 100, &CPR{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(ChurnConfig{Members: 1, CapacityFactor: 1}, 10, MaxMin{}); err == nil {
		t.Error("1-member sim accepted")
	}
}

func TestDemandModelKinds(t *testing.T) {
	m := NewDemandModel(10, 0.3)
	heavy := 0
	for _, k := range m.Kinds {
		if k == HeavyUser {
			heavy++
		}
	}
	if heavy != 3 {
		t.Errorf("heavy users = %d, want 3", heavy)
	}
	if LightUser.String() != "light" || HeavyUser.String() != "heavy" {
		t.Error("kind strings wrong")
	}
}

func TestDemandModelHeavyExceedsLight(t *testing.T) {
	m := NewDemandModel(40, 0.5)
	r := rng.New(17)
	var lightSum, heavySum float64
	var lightN, heavyN int
	for e := 0; e < 200; e++ {
		d, _ := m.Sample(r)
		for i, k := range m.Kinds {
			if k == HeavyUser {
				heavySum += d[i]
				heavyN++
			} else {
				lightSum += d[i]
				lightN++
			}
		}
	}
	if heavySum/float64(heavyN) < 3*lightSum/float64(lightN) {
		t.Error("heavy users should demand much more than light users on average")
	}
}

// simulateMaintenance runs SimulateMaintenance on a config the test knows is
// valid.
func simulateMaintenance(t *testing.T, cfg MaintenanceConfig) MaintenanceResult {
	t.Helper()
	res, err := SimulateMaintenance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMaintenanceMoreVolunteersMoreAvailability(t *testing.T) {
	base := MaintenanceConfig{Nodes: 50, FailProb: 0.05, Epochs: 400, Seed: 21}
	few := base
	few.Volunteers = 1
	many := base
	many.Volunteers = 5
	rFew := simulateMaintenance(t, few)
	rMany := simulateMaintenance(t, many)
	if !(rMany.Availability > rFew.Availability) {
		t.Errorf("availability: %g volunteers=5 vs %g volunteers=1", rMany.Availability, rFew.Availability)
	}
	if !(rMany.MeanRepairDelay < rFew.MeanRepairDelay) {
		t.Errorf("repair delay: %g vs %g", rMany.MeanRepairDelay, rFew.MeanRepairDelay)
	}
}

func TestMaintenanceChurn(t *testing.T) {
	cfg := MaintenanceConfig{
		Nodes: 30, FailProb: 0.2, Volunteers: 1, TravelLimit: 3,
		Epochs: 200, Seed: 8,
	}
	res := simulateMaintenance(t, cfg)
	if res.Abandoned == 0 {
		t.Error("under-maintained network should churn members")
	}
	noChurn := cfg
	noChurn.TravelLimit = 0
	if simulateMaintenance(t, noChurn).Abandoned != 0 {
		t.Error("TravelLimit=0 should disable churn")
	}
}

func TestJainOfEqualSatisfactions(t *testing.T) {
	// Sanity link to the stats package used in scoring.
	if stats.Jain([]float64{0.5, 0.5, 0.5}) != 1 {
		t.Error("stats.Jain miswired")
	}
}

func BenchmarkSimulateCPR(b *testing.B) {
	cfg := ChurnConfig{Members: 30, HeavyFrac: 0.2, CapacityFactor: 0.6, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, 100, &CPR{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMaintenanceZeroVolunteersCollapses(t *testing.T) {
	res := simulateMaintenance(t, MaintenanceConfig{
		Nodes: 40, FailProb: 0.05, Volunteers: 0, Epochs: 400, Seed: 13,
	})
	if res.Availability > 0.3 {
		t.Errorf("availability without volunteers = %g, want collapse", res.Availability)
	}
}

func TestMaintenanceNoFailuresPerfect(t *testing.T) {
	res := simulateMaintenance(t, MaintenanceConfig{
		Nodes: 20, FailProb: 0, Volunteers: 1, Epochs: 100, Seed: 1,
	})
	if res.Availability != 1 || res.Abandoned != 0 {
		t.Errorf("failure-free network degraded: %+v", res)
	}
}

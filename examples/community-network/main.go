// community-network simulates a community wireless mesh under scarcity
// (paper §4): it builds the mesh, shows the routing structure, compares the
// three capacity-sharing disciplines, and sweeps the CPR scheme's rollover
// cap as an ablation.
//
// Run with:
//
//	go run ./examples/community-network
package main

import (
	"fmt"
	"log"

	"repro/internal/cn"
	"repro/internal/rng"
)

func main() {
	log.SetFlags(0)

	// The mesh itself.
	net, err := cn.BuildMesh(25, 0.35, rng.New(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d nodes, %d links, mean gateway-path ETX %.2f\n",
		net.G.N(), net.G.M(), net.MeanPathETX())
	far, farHops := 0, 0
	for i := 1; i < net.G.N(); i++ {
		if h := net.HopsToGateway(i); h > farHops {
			far, farHops = i, h
		}
	}
	fmt.Printf("farthest member: node %d at %d hops (route %v)\n\n",
		far, farHops, net.RouteToGateway(far))

	// Congestion management comparison.
	cfg := cn.ChurnConfig{Members: 30, HeavyFrac: 0.2, CapacityFactor: 0.6, Seed: 11}
	const epochs = 400
	results, err := cn.CompareSchedulers(cfg, epochs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("scheduler      light-protected  light-sat  burst-sat  heavy-sat")
	for _, r := range results {
		fmt.Printf("%-13s %15.3f  %9.3f  %9.3f  %9.3f\n",
			r.Scheduler, r.LightProtected, r.LightSatisfaction,
			r.BurstSatisfaction, r.HeavySatisfaction)
	}
	fmt.Println("\nReading: unmanaged proportional sharing lets heavy users crowd out")
	fmt.Println("everyone; max-min protects light users each epoch; the community")
	fmt.Println("credit scheme additionally lets light users burst on saved credits.")

	// Ablation: how much rollover does the credit scheme need?
	fmt.Println("\nCPR rollover-cap ablation (burst satisfaction of light users)")
	fmt.Println("rollover-cap  burst-sat  light-protected")
	for _, cap := range []float64{1, 2, 3, 5, 8} {
		res, err := cn.Simulate(cfg, epochs, &cn.CPR{RolloverCap: cap})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12.0f  %9.3f  %15.3f\n", cap, res.BurstSatisfaction, res.LightProtected)
	}

	// Sustainability: volunteers are the other scarce resource.
	fmt.Println("\nMaintenance: availability vs volunteer count (churn after 6 epochs down)")
	for v := 1; v <= 4; v++ {
		res, err := cn.SimulateMaintenance(cn.MaintenanceConfig{
			Nodes: 40, FailProb: 0.06, Volunteers: v, TravelLimit: 6,
			Epochs: 300, Seed: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  volunteers=%d  availability=%.3f  abandoned=%d\n",
			v, res.Availability, res.Abandoned)
	}
}

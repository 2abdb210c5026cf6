// ixp-regulation walks through the Telmex case study (paper §3) step by
// step with the bgpsim/ixp APIs: build the Mexican interconnection scene,
// apply mandatory peering, then watch an incumbent comply with the letter
// of the law through shell ASNs while its traffic keeps leaving the country.
//
// Run with:
//
//	go run ./examples/ixp-regulation
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bgpsim"
	"repro/internal/ixp"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	fmt.Println("== Scene: 1 incumbent (60% of users), 4 competitors, 1 IXP, foreign transit ==")

	show := func(title string, cfg ixp.CircumventionConfig) {
		row, err := ixp.RunCircumventionCtx(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s sessions=%2d  locality=%.3f  incumbent-locality=%.3f\n",
			title, row.IXPSessions, row.DomesticShare, row.IncumbentLocal)
	}

	base := ixp.CircumventionConfig{Competitors: 4, IncumbentShare: 0.6}

	cfg := base
	cfg.Mode = ixp.NoRegulation
	show("no regulation:", cfg)

	cfg = base
	cfg.Mode = ixp.RegulationCompliant
	show("mandatory peering:", cfg)

	for _, shells := range []int{1, 3, 6} {
		cfg = base
		cfg.Mode = ixp.RegulationCircumvented
		cfg.Shells = shells
		show(fmt.Sprintf("circumvented (%d shells):", shells), cfg)
	}

	// Zoom in: why the shells are useless. Build the 1-shell scenario and
	// inspect the actual AS path a competitor uses to reach the incumbent.
	fmt.Println("\n== Why circumvention works: valley-free export ==")
	cfg = base
	cfg.Mode = ixp.RegulationCircumvented
	cfg.Shells = 1
	fabric, _, err := ixp.BuildCircumventionScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := fabric.Topo.ConvergeCtx(ctx, 1)
	if err != nil {
		log.Fatal(err)
	}

	const comp0 = bgpsim.ASN(1000)
	path := rt.Path(comp0, "pfx-incumbent")
	fmt.Printf("competitor AS%d -> incumbent prefix: path %v\n", comp0, path)
	for _, hop := range path {
		info, _ := fabric.Topo.Info(hop)
		fmt.Printf("  AS%-5d %-12s country=%s org=%s\n", hop, info.Name, info.Country, info.Org)
	}
	fmt.Println("The shell AS peers at the exchange, but a customer may not re-export")
	fmt.Println("its provider's routes to peers, so the incumbent's prefixes never")
	fmt.Println("cross the IXP: competitors still reach it via the US transit.")

	// The shell's own prefix IS reachable over the exchange — the sessions
	// are real, just useless.
	shellPath := rt.Path(comp0, "pfx-shell0")
	fmt.Printf("\ncompetitor AS%d -> shell prefix: path %v (stays domestic)\n", comp0, shellPath)
}

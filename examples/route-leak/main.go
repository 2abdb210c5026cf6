// route-leak walks through the BGP-misconfiguration case the paper's §6.2.2
// uses to argue that a "technically mundane" protocol encodes social and
// economic dynamics: the same one-line leak is harmless from a stub and
// catastrophic from a well-connected mid-tier AS, purely because neighbors
// prefer customer routes.
//
// Run with:
//
//	go run ./examples/route-leak
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/bgpsim"
	"repro/internal/rng"
)

func main() {
	log.SetFlags(0)

	h, err := bgpsim.BuildHierarchyOpts(rng.New(5), bgpsim.HierarchyOpts{NMid: 8, NStub: 20})
	if err != nil {
		log.Fatal(err)
	}
	victim := h.Stubs[3]
	prefix := fmt.Sprintf("pfx-%d", victim)
	fmt.Printf("topology: %d tier-1s, %d mids, %d stubs; victim prefix %s\n\n",
		len(h.Tier1), len(h.Mids), len(h.Stubs), prefix)

	converge := func() *bgpsim.RoutingTables {
		rt, err := h.Topo.ConvergeCtx(context.Background(), 1)
		if err != nil {
			log.Fatal(err)
		}
		return rt
	}
	baseline := converge()
	fmt.Println("baseline (no leak): example paths to the victim")
	for _, n := range []bgpsim.ASN{h.Tier1[0], h.Mids[0], h.Stubs[0]} {
		fmt.Printf("  AS%-5d -> %v\n", n, baseline.Path(n, prefix))
	}

	fmt.Println("\nleak blast radius by leaker position:")
	fmt.Println("leaker  kind  providers  affected  affected-share")
	type result struct {
		asn      bgpsim.ASN
		kind     string
		affected int
		share    float64
	}
	var results []result
	try := func(kind string, leaker bgpsim.ASN) {
		h.Topo.MarkLeaker(leaker)
		rt := converge()
		affected, reachable := bgpsim.BlastRadius(rt, leaker, prefix)
		h.Topo.ClearLeaker(leaker)
		share := 0.0
		if reachable > 0 {
			share = float64(len(affected)) / float64(reachable)
		}
		results = append(results, result{asn: leaker, kind: kind, affected: len(affected), share: share})
		providers := 0
		for _, rel := range h.Topo.Neighbors(leaker) {
			if rel == bgpsim.FromProvider {
				providers++
			}
		}
		fmt.Printf("AS%-5d %-5s %9d  %8d  %14.3f\n", leaker, kind, providers, len(affected), share)
	}
	try("stub", h.Stubs[0])
	for _, m := range h.Mids {
		try("mid", m)
	}

	sort.Slice(results, func(i, j int) bool { return results[i].affected > results[j].affected })
	worst := results[0]
	fmt.Printf("\nworst leaker: AS%d captures %.0f%% of the network.\n", worst.asn, 100*worst.share)

	// Show one hijacked path end to end.
	h.Topo.MarkLeaker(worst.asn)
	rt := converge()
	affected, _ := bgpsim.BlastRadius(rt, worst.asn, prefix)
	if len(affected) > 0 {
		vic := affected[0]
		fmt.Printf("example: AS%d's path was %v, is now %v\n",
			vic, baseline.Path(vic, prefix), rt.Path(vic, prefix))
	}
	fmt.Println("\nMechanism: the leaker re-exports provider routes, its providers")
	fmt.Println("hear the victim from a *customer*, and customer routes win the")
	fmt.Println("decision process — the economics, not the protocol, move the traffic.")
}

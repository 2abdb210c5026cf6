package bgpsim

// The original synchronous whole-topology convergence loop, preserved
// verbatim in behavior as the test oracle for the engine equivalence tests
// (engine_test.go) and the allocation-baseline benchmarks.
// It is intentionally naive: every round rebuilds every table, re-derives
// and re-sorts every neighbor list, and copies every candidate AS path. The
// production engine in engine.go must stay bit-identical to it.

import "sort"

// better reports whether candidate should replace incumbent under standard
// BGP decision order: higher local pref (relationship), then shorter path,
// then lexicographically smaller path for determinism.
func better(cand, inc *Route) bool {
	if inc == nil {
		return true
	}
	if cand.Learned != inc.Learned {
		return cand.Learned > inc.Learned
	}
	if len(cand.Path) != len(inc.Path) {
		return len(cand.Path) < len(inc.Path)
	}
	// Deterministic tiebreak: lexicographically smaller path wins.
	for i := range cand.Path {
		if cand.Path[i] != inc.Path[i] {
			return cand.Path[i] < inc.Path[i]
		}
	}
	return false
}

func routesEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Learned != b.Learned || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// convergeReference computes the Gao–Rexford fixpoint with the original
// synchronous Bellman–Ford over nested maps and returns the raw tables.
// Used only by tests and benchmarks.
func (t *Topology) convergeReference() map[ASN]map[string]*Route {
	asns := t.ASNs()
	// Collect the universe of prefixes.
	prefixSet := make(map[string]bool)
	for _, n := range asns {
		for _, p := range t.ases[n].origins {
			prefixSet[p] = true
		}
	}
	prefixes := make([]string, 0, len(prefixSet))
	for p := range prefixSet {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)

	tables := make(map[ASN]map[string]*Route, len(t.ases))
	originSet := make(map[ASN]map[string]bool, len(t.ases))
	for _, n := range asns {
		tables[n] = make(map[string]*Route)
		os := make(map[string]bool)
		for _, p := range t.ases[n].origins {
			os[p] = true
		}
		originSet[n] = os
	}

	maxRounds := 4*len(asns) + 16
	for round := 0; round < maxRounds; round++ {
		changed := false
		next := make(map[ASN]map[string]*Route, len(asns))
		for _, n := range asns {
			neighborRel := t.Neighbors(n)
			nbrs := make([]ASN, 0, len(neighborRel))
			for nb := range neighborRel {
				nbrs = append(nbrs, nb)
			}
			sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })

			tbl := make(map[string]*Route, len(prefixes))
			for _, p := range prefixes {
				var best *Route
				if originSet[n][p] {
					best = &Route{Prefix: p, Path: []ASN{n}, Learned: Origin}
				}
				for _, nb := range nbrs {
					nbRoute := tables[nb][p]
					if nbRoute == nil {
						continue
					}
					// Export policy from nb's side: we receive everything if
					// we are nb's customer; otherwise only origin/customer
					// routes (valley-free). A leaker ignores the policy.
					weAreCustomer := t.ases[nb].customers[n]
					if !weAreCustomer && !t.ases[nb].leaker &&
						nbRoute.Learned != Origin && nbRoute.Learned != FromCustomer {
						continue
					}
					// Loop prevention: reject paths already containing us.
					loop := false
					for _, hop := range nbRoute.Path {
						if hop == n {
							loop = true
							break
						}
					}
					if loop {
						continue
					}
					cand := &Route{
						Prefix:  p,
						Path:    append([]ASN{n}, nbRoute.Path...),
						Learned: neighborRel[nb],
					}
					if better(cand, best) {
						best = cand
					}
				}
				if best != nil {
					tbl[p] = best
					if !routesEqual(best, tables[n][p]) {
						changed = true
					}
				} else if tables[n][p] != nil {
					changed = true
				}
			}
			next[n] = tbl
		}
		tables = next
		if !changed {
			break
		}
	}
	return tables
}

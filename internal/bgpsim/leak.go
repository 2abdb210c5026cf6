package bgpsim

// Route-leak support. The paper's §6.2.2 points at BGP misconfiguration
// (Mahajan et al.) as the canonical example of "social and economic
// dynamics" encoded in a technically simple protocol: a single customer
// re-exporting its provider's routes — a one-line configuration mistake —
// redirects traffic economically, because everyone *prefers* customer
// routes. MarkLeaker turns an AS into such a leaker; ConvergeWithLeaks
// computes the resulting routing, and BlastRadius measures how many ASes
// were pulled through the leaker.

// MarkLeaker flags n as violating export policy: it re-exports every route
// (including provider- and peer-learned ones) to all neighbors. Returns
// false if the AS is unknown.
func (t *Topology) MarkLeaker(n ASN) bool {
	a, ok := t.ases[n]
	if !ok {
		return false
	}
	a.leaker = true
	return true
}

// ClearLeaker removes the flag.
func (t *Topology) ClearLeaker(n ASN) {
	if a, ok := t.ases[n]; ok {
		a.leaker = false
	}
}

// IsLeaker reports whether n is flagged.
func (t *Topology) IsLeaker(n ASN) bool {
	a, ok := t.ases[n]
	return ok && a.leaker
}

// BlastRadius returns the ASes (other than the leaker) whose converged best
// path to prefix traverses leaker, sorted ascending, and the total AS count
// with a route to the prefix — the standard measure of a leak's reach.
func BlastRadius(rt *RoutingTables, leaker ASN, prefix string) (affected []ASN, reachable int) {
	pi, ok := rt.pfxIdx[prefix]
	if !ok {
		return nil, 0
	}
	col := rt.entries[int(pi)*len(rt.asns) : (int(pi)+1)*len(rt.asns)]
	nodes := rt.slabs[pi]
	li, known := rt.asIdx[leaker]
	// Dense indices are ascending ASNs, so affected comes out sorted.
	for i, en := range col {
		if en.head == nilRef {
			continue
		}
		reachable++
		if !known || int32(i) == li {
			continue // an unknown leaker is on no path
		}
		if chainContains(nodes, nodes[en.head].next, li) { // skip self hop
			affected = append(affected, rt.asns[i])
		}
	}
	return affected, reachable
}

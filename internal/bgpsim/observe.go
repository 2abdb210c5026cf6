package bgpsim

// Replay-support surface for the timeline engine (internal/timeline), next to
// ParseDelta/FormatDelta (parse.go) and Topology.ApplyDelta (incremental.go):
// two observation helpers — table-wide reachability counts for per-tick series
// and a state fingerprint that certifies Revert restored the exact pre-Apply
// state, shared path-chain refs included.

// Size returns the table dimensions: the number of ASes and of prefix
// columns currently converged.
func (rt *RoutingTables) Size() (ases, prefixes int) {
	return len(rt.asns), len(rt.prefixes)
}

// ReachableCells returns the number of routed cells of the table — the
// (AS, prefix) pairs holding a selected route — alongside the total cell
// count, in O(1): the tables keep the count current on every cell write.
// The ratio is the global reachability share the temporal experiments chart
// per tick.
func (rt *RoutingTables) ReachableCells() (reachable, total int) {
	return rt.reach, len(rt.entries)
}

// StateFingerprint hashes the live routing state: every cell's slab refs
// (the identity of the shared path-chain nodes, not just the hops they
// spell), every column's slab length, the prefix interning order, and the
// LIFO depth. Slabs are append-only below their length and Revert truncates
// them back, so equal fingerprints certify the tables are ref-exactly
// identical — the guarantee Revert makes and the timeline unwind property
// pins. It is a test-support probe that compares states of one build, not a
// cache key or a golden across versions: where the work queue appends path
// nodes can move slab refs without moving any route.
func (c *Converged) StateFingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
		mix(uint64(len(s)))
	}
	rt := c.Tables()
	mix(uint64(c.applied))
	mix(uint64(len(rt.asns)))
	for _, n := range rt.asns {
		mix(uint64(n))
	}
	mix(uint64(len(rt.prefixes)))
	for _, p := range rt.prefixes {
		mixStr(p)
	}
	for _, o := range rt.order {
		mix(uint64(o))
	}
	for _, slab := range rt.slabs {
		mix(uint64(len(slab)))
	}
	for _, en := range rt.entries {
		mix(uint64(uint32(en.head))<<32 | uint64(uint32(en.meta)))
	}
	return h
}

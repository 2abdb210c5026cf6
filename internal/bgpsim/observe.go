package bgpsim

// Replay-support surface for the timeline engine (internal/timeline), next to
// ParseDelta/FormatDelta (parse.go) and Topology.ApplyDelta (incremental.go):
// two observation helpers — table-wide reachability counts for per-tick series
// and a pointer-identity fingerprint that certifies Revert restored the
// exact pre-Apply state, shared path chains included.

import "fmt"

// Size returns the table dimensions: the number of ASes and of prefix
// columns currently converged.
func (rt *RoutingTables) Size() (ases, prefixes int) {
	return len(rt.asns), len(rt.prefixes)
}

// ReachableCells counts the routed cells of the table — the (AS, prefix)
// pairs holding a selected route — alongside the total cell count. The ratio
// is the global reachability share the temporal experiments chart per tick.
func (rt *RoutingTables) ReachableCells() (reachable, total int) {
	for i := range rt.entries {
		if rt.entries[i].head != nil {
			reachable++
		}
	}
	return reachable, len(rt.entries)
}

// StateFingerprint hashes the live routing state including the identity of
// the shared path-chain nodes (their addresses, not just the hops they
// spell), the prefix interning order, and the LIFO depth. Equal fingerprints
// within one process therefore certify the tables are pointer-exactly
// identical — the guarantee Revert makes and the timeline unwind property
// pins. The value is meaningful only within a single process run; it is a
// test-support probe, not a cache key.
func (c *Converged) StateFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= uint64(len(s)) ^ 0xff
		h *= prime64
	}
	mixInt := func(v int64) { mixStr(fmt.Sprintf("%d", v)) }
	mixInt(int64(c.applied))
	mixInt(int64(len(c.rt.asns)))
	for _, n := range c.rt.asns {
		mixInt(int64(n))
	}
	mixInt(int64(len(c.rt.prefixes)))
	for _, p := range c.rt.prefixes {
		mixStr(p)
	}
	for _, o := range c.rt.order {
		mixInt(int64(o))
	}
	for i := range c.rt.entries {
		en := &c.rt.entries[i]
		// %p folds the node address in: chains rebuilt with identical hops at
		// different addresses fingerprint differently, which is the point.
		mixStr(fmt.Sprintf("%d|%d|%p", en.learned, en.plen, en.head))
	}
	return h
}

// Package bgpsim implements an AS-level BGP simulator with Gao–Rexford
// routing policies: customer/provider and peer business relationships,
// valley-free route export, and standard best-path selection (local
// preference by relationship, then AS-path length, then lowest neighbor ASN).
//
// The simulator exists to reproduce the interconnection case studies in the
// paper's ethnography section: an incumbent circumventing mandatory-peering
// regulation by shuffling prefixes across ASNs (Telmex in Mexico), and the
// gravity of giant IXPs over Global-South traffic (DE-CIX vs Brazilian IXPs).
// Both reduce to questions about which AS-level paths exist once peering
// edges are added or withheld, which is exactly what a Gao–Rexford fixpoint
// computes.
//
// Usage:
//
//	t := bgpsim.NewTopology()
//	t.AddAS(1, bgpsim.ASInfo{Name: "Transit", Country: "US"})
//	t.AddAS(64500, bgpsim.ASInfo{Name: "Eyeball", Country: "MX"})
//	t.AddProviderCustomer(1, 64500)
//	t.Originate(64500, "10.0.0.0/8")
//	rt, err := t.ConvergeCtx(context.Background(), 1)
//	path := rt.Path(1, "10.0.0.0/8") // [1 64500]
package bgpsim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ASN identifies an autonomous system.
type ASN int

// Relationship classifies how a route was learned, which determines both
// local preference and export policy under Gao–Rexford. The engine packs it
// into the two low bits of a dense table cell (see entry in engine.go); the
// constant values and ordering are part of the public API.
type Relationship uint8

// Relationship values, ordered by local preference (higher is preferred).
const (
	FromProvider Relationship = iota // learned from a provider (pref 0)
	FromPeer                         // learned from a settlement-free peer (pref 1)
	FromCustomer                     // learned from a paying customer (pref 2)
	Origin                           // originated locally (pref 3)
)

// String returns a human-readable relationship name.
func (r Relationship) String() string {
	switch r {
	case FromProvider:
		return "provider"
	case FromPeer:
		return "peer"
	case FromCustomer:
		return "customer"
	case Origin:
		return "origin"
	default:
		return fmt.Sprintf("Relationship(%d)", int(r))
	}
}

// ASInfo carries the non-routing attributes of an AS that the experiments
// aggregate over: display name, ISO country, and the owning organization
// (several ASNs can belong to one org — the circumvention studies depend on
// exactly this).
type ASInfo struct {
	Name    string
	Country string
	Org     string
}

// as is the internal per-AS state.
type as struct {
	info      ASInfo
	providers map[ASN]bool
	customers map[ASN]bool
	peers     map[ASN]bool
	origins   []string
	// leaker marks an AS that re-exports everything to everyone (a route
	// leak); see leak.go.
	leaker bool
}

// Topology is a mutable AS-level interconnection graph. Add ASes and links,
// originate prefixes, then call ConvergeCtx to compute routing tables. The zero
// value is not usable; call NewTopology.
type Topology struct {
	ases map[ASN]*as
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{ases: make(map[ASN]*as)}
}

// Errors returned by topology mutation.
var (
	ErrUnknownAS   = errors.New("bgpsim: unknown AS")
	ErrDuplicateAS = errors.New("bgpsim: duplicate AS")
	ErrSelfLink    = errors.New("bgpsim: link endpoints must differ")
)

// AddAS registers an AS. It fails if the ASN is already present.
func (t *Topology) AddAS(n ASN, info ASInfo) error {
	if _, ok := t.ases[n]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateAS, n)
	}
	t.ases[n] = &as{
		info:      info,
		providers: make(map[ASN]bool),
		customers: make(map[ASN]bool),
		peers:     make(map[ASN]bool),
	}
	return nil
}

// Info returns the attributes of an AS and whether it exists.
func (t *Topology) Info(n ASN) (ASInfo, bool) {
	a, ok := t.ases[n]
	if !ok {
		return ASInfo{}, false
	}
	return a.info, true
}

// ASNs returns all registered ASNs in ascending order.
func (t *Topology) ASNs() []ASN {
	out := make([]ASN, 0, len(t.ases))
	for n := range t.ases {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *Topology) pair(a, b ASN) (*as, *as, error) {
	if a == b {
		return nil, nil, ErrSelfLink
	}
	x, ok := t.ases[a]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownAS, a)
	}
	y, ok := t.ases[b]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownAS, b)
	}
	return x, y, nil
}

// AddProviderCustomer records that provider sells transit to customer.
func (t *Topology) AddProviderCustomer(provider, customer ASN) error {
	p, c, err := t.pair(provider, customer)
	if err != nil {
		return err
	}
	p.customers[customer] = true
	c.providers[provider] = true
	return nil
}

// AddPeer records a settlement-free peering between a and b.
func (t *Topology) AddPeer(a, b ASN) error {
	x, y, err := t.pair(a, b)
	if err != nil {
		return err
	}
	x.peers[b] = true
	y.peers[a] = true
	return nil
}

// RemoveProviderCustomer deletes a provider-customer edge if present.
func (t *Topology) RemoveProviderCustomer(provider, customer ASN) {
	if p, ok := t.ases[provider]; ok {
		delete(p.customers, customer)
	}
	if c, ok := t.ases[customer]; ok {
		delete(c.providers, provider)
	}
}

// HasProviderCustomer reports whether provider sells transit to customer.
func (t *Topology) HasProviderCustomer(provider, customer ASN) bool {
	p, ok := t.ases[provider]
	return ok && p.customers[customer]
}

// RemovePeer deletes a peering edge if present.
func (t *Topology) RemovePeer(a, b ASN) {
	if x, ok := t.ases[a]; ok {
		delete(x.peers, b)
	}
	if y, ok := t.ases[b]; ok {
		delete(y.peers, a)
	}
}

// HasPeer reports whether a and b peer.
func (t *Topology) HasPeer(a, b ASN) bool {
	x, ok := t.ases[a]
	return ok && x.peers[b]
}

// Originate announces prefix from AS n. Multiple ASes originating the same
// prefix is allowed (anycast / MOAS) — each router picks its best route.
func (t *Topology) Originate(n ASN, prefix string) error {
	a, ok := t.ases[n]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownAS, n)
	}
	a.origins = append(a.origins, prefix)
	return nil
}

// hasOrigin reports whether n currently originates prefix.
func (t *Topology) hasOrigin(n ASN, prefix string) bool {
	a, ok := t.ases[n]
	if !ok {
		return false
	}
	for _, p := range a.origins {
		if p == prefix {
			return true
		}
	}
	return false
}

// Origins returns the prefixes originated by n.
func (t *Topology) Origins(n ASN) []string {
	a, ok := t.ases[n]
	if !ok {
		return nil
	}
	return append([]string(nil), a.origins...)
}

// Clone returns a deep copy of the topology: mutating either copy (links,
// origins, leaker flags) never affects the other. Used by the scenario
// parser to validate event sequences without disturbing the base topology.
func (t *Topology) Clone() *Topology {
	out := &Topology{ases: make(map[ASN]*as, len(t.ases))}
	for n, a := range t.ases {
		c := &as{
			info:      a.info,
			providers: make(map[ASN]bool, len(a.providers)),
			customers: make(map[ASN]bool, len(a.customers)),
			peers:     make(map[ASN]bool, len(a.peers)),
			origins:   append([]string(nil), a.origins...),
			leaker:    a.leaker,
		}
		for p := range a.providers {
			c.providers[p] = true
		}
		for p := range a.customers {
			c.customers[p] = true
		}
		for p := range a.peers {
			c.peers[p] = true
		}
		out.ases[n] = c
	}
	return out
}

// Providers returns n's providers in ascending order, so callers never
// depend on map order (nil if n is not in the topology).
func (t *Topology) Providers(n ASN) []ASN {
	a, ok := t.ases[n]
	if !ok {
		return nil
	}
	out := make([]ASN, 0, len(a.providers))
	for p := range a.providers {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Neighbors returns all neighbors of n with the relationship of each from
// n's perspective (what n would mark a route learned from that neighbor).
func (t *Topology) Neighbors(n ASN) map[ASN]Relationship {
	a, ok := t.ases[n]
	if !ok {
		return nil
	}
	out := make(map[ASN]Relationship, len(a.providers)+len(a.customers)+len(a.peers))
	for p := range a.providers {
		out[p] = FromProvider
	}
	for c := range a.customers {
		out[c] = FromCustomer
	}
	for p := range a.peers {
		out[p] = FromPeer
	}
	return out
}

// Route is a selected path to a prefix. Path[0] is the routing AS itself and
// Path[len-1] the origin AS.
type Route struct {
	Prefix  string
	Path    []ASN
	Learned Relationship
}

// RoutingTables holds the converged best route of every AS for every prefix.
// Internally the tables are dense: ASNs and prefixes are interned to indices
// and each (prefix, AS) cell stores the selected relationship, the path
// length, and the slab index of an immutable shared path chain in its
// column's slab (see engine.go). All accessors return copies; nothing handed
// out aliases engine state.
type RoutingTables struct {
	asns     []ASN
	asIdx    map[ASN]int32
	prefixes []string
	pfxIdx   map[string]int32
	entries  []entry      // prefix-major: entries[p*len(asns)+a]
	slabs    [][]pathNode // per column: the path nodes its cells refer to
	// order lists column indices in ascending prefix-string order. A cold
	// compile sorts prefixes so order starts as the identity; incremental
	// announcements of new prefixes append their column at the end of
	// entries and splice the index here, keeping accessors that enumerate
	// prefixes (Prefixes) byte-identical to a cold convergence.
	order []int32
	// reach counts the routed cells (head != nilRef). Cold convergence sets
	// it, Apply adds each rewritten column's net change, and Revert takes
	// that change back.
	reach int
}

// newRoutingTables allocates zeroed tables; the caller converges them and
// fills every column's slab.
func newRoutingTables(asns []ASN, prefixes []string) (*RoutingTables, error) {
	if len(asns) > maxASes {
		return nil, fmt.Errorf("bgpsim: %d ASes exceed the engine's bound of %d", len(asns), maxASes)
	}
	rt := &RoutingTables{
		asns:     asns,
		asIdx:    make(map[ASN]int32, len(asns)),
		prefixes: prefixes,
		pfxIdx:   make(map[string]int32, len(prefixes)),
		entries:  make([]entry, len(asns)*len(prefixes)),
		slabs:    make([][]pathNode, len(prefixes)),
		order:    make([]int32, len(prefixes)),
	}
	for i, n := range asns {
		rt.asIdx[n] = int32(i)
	}
	for i, p := range prefixes {
		rt.pfxIdx[p] = int32(i)
		rt.order[i] = int32(i)
	}
	return rt, nil
}

// addPrefixColumn appends a zeroed column for a new prefix and returns its
// dense index. The caller guarantees the prefix is not already present.
func (rt *RoutingTables) addPrefixColumn(prefix string) int32 {
	pi := int32(len(rt.prefixes))
	rt.prefixes = append(rt.prefixes, prefix)
	rt.pfxIdx[prefix] = pi
	rt.entries = append(rt.entries, make([]entry, len(rt.asns))...)
	rt.slabs = append(rt.slabs, make([]pathNode, 1)) // just the nil slot
	at := sort.Search(len(rt.order), func(i int) bool {
		return rt.prefixes[rt.order[i]] >= prefix
	})
	rt.order = append(rt.order, 0)
	copy(rt.order[at+1:], rt.order[at:])
	rt.order[at] = pi
	return pi
}

// dropLastPrefixColumn removes the most recently added column. Only valid
// immediately after addPrefixColumn (LIFO), which Converged.Revert enforces.
// Revert has restored every logged cell of the column to empty and taken
// back its routed-cell change by then, so the count needs no adjustment
// here, as on add.
func (rt *RoutingTables) dropLastPrefixColumn() {
	pi := int32(len(rt.prefixes) - 1)
	prefix := rt.prefixes[pi]
	rt.prefixes = rt.prefixes[:pi]
	delete(rt.pfxIdx, prefix)
	rt.entries = rt.entries[:int(pi)*len(rt.asns)]
	rt.slabs = rt.slabs[:pi]
	for i, o := range rt.order {
		if o == pi {
			rt.order = append(rt.order[:i], rt.order[i+1:]...)
			break
		}
	}
}

// lookup returns the column index and cell for (n, prefix); the cell is
// empty (head == nilRef) when either is unknown.
func (rt *RoutingTables) lookup(n ASN, prefix string) (int32, entry) {
	ai, ok := rt.asIdx[n]
	if !ok {
		return 0, entry{}
	}
	pi, ok := rt.pfxIdx[prefix]
	if !ok {
		return 0, entry{}
	}
	return pi, rt.entries[int(pi)*len(rt.asns)+int(ai)]
}

// materialize copies the path of a routed cell of column pi into a fresh
// slice of ASNs.
func (rt *RoutingTables) materialize(pi int32, en entry) []ASN {
	nodes := rt.slabs[pi]
	out := make([]ASN, 0, en.plen())
	for r := en.head; r != nilRef; r = nodes[r].next {
		out = append(out, rt.asns[nodes[r].as])
	}
	return out
}

// Route returns a copy of the best route at AS n for prefix, or nil if none.
// The caller owns the returned Route: mutating it, including its Path slice,
// never affects the converged tables or the result of other calls.
func (rt *RoutingTables) Route(n ASN, prefix string) *Route {
	pi, en := rt.lookup(n, prefix)
	if en.head == nilRef {
		return nil
	}
	return &Route{Prefix: prefix, Path: rt.materialize(pi, en), Learned: en.learned()}
}

// Path returns the AS path from n to prefix (n first, origin last), or nil
// when unreachable. The slice is a fresh copy owned by the caller.
func (rt *RoutingTables) Path(n ASN, prefix string) []ASN {
	pi, en := rt.lookup(n, prefix)
	if en.head == nilRef {
		return nil
	}
	return rt.materialize(pi, en)
}

// Reachable reports whether n has any route to prefix.
func (rt *RoutingTables) Reachable(n ASN, prefix string) bool {
	_, en := rt.lookup(n, prefix)
	return en.head != nilRef
}

// Prefixes returns the sorted prefixes in n's table.
func (rt *RoutingTables) Prefixes(n ASN) []string {
	ai, ok := rt.asIdx[n]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(rt.prefixes))
	for _, pi := range rt.order {
		if rt.entries[int(pi)*len(rt.asns)+int(ai)].head != nilRef {
			out = append(out, rt.prefixes[pi])
		}
	}
	return out
}

// ValleyFree reports whether path obeys the valley-free property in t:
// a (possibly empty) uphill customer→provider segment, at most one peer
// edge, then a (possibly empty) downhill provider→customer segment.
func (t *Topology) ValleyFree(path []ASN) bool {
	if len(path) < 2 {
		return true
	}
	// Phases: 0 = uphill, 1 = after the single peer edge or at apex,
	// edges from path[i] to path[i+1] in the *forward* (traffic) direction;
	// for route paths the traffic flows path[0] → origin.
	phase := 0
	for i := 0; i+1 < len(path); i++ {
		from, to := path[i], path[i+1]
		a, ok := t.ases[from]
		if !ok {
			return false
		}
		switch {
		case a.providers[to]: // going up
			if phase != 0 {
				return false
			}
		case a.peers[to]: // lateral: only once, ends uphill
			if phase != 0 {
				return false
			}
			phase = 1
		case a.customers[to]: // going down
			phase = 2
		default:
			return false // not adjacent
		}
	}
	return true
}

// WithdrawOrigin removes one origination of prefix from AS n (no-op when
// absent). Used by experiments that try attackers in turn.
func (t *Topology) WithdrawOrigin(n ASN, prefix string) {
	a, ok := t.ases[n]
	if !ok {
		return
	}
	out := a.origins[:0]
	for _, p := range a.origins {
		if p != prefix {
			out = append(out, p)
		}
	}
	a.origins = out
}

package bgpsim

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// oracleAS is the map-of-sets model of one AS that the topology oracle test
// holds beside the Topology under test: one set per relationship, exactly
// the representation a link list replaces.
type oracleAS struct {
	providers, customers, peers map[ASN]bool
	leaker                      bool
}

type oracleTopo map[ASN]*oracleAS

func newOracleAS() *oracleAS {
	return &oracleAS{providers: map[ASN]bool{}, customers: map[ASN]bool{}, peers: map[ASN]bool{}}
}

func (o oracleTopo) clone() oracleTopo {
	out := make(oracleTopo, len(o))
	for n, a := range o {
		out[n] = &oracleAS{
			providers: cloneSet(a.providers),
			customers: cloneSet(a.customers),
			peers:     cloneSet(a.peers),
			leaker:    a.leaker,
		}
	}
	return out
}

func cloneSet(s map[ASN]bool) map[ASN]bool {
	out := make(map[ASN]bool, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// rel resolves a's relationship to nb as Neighbors documents it: peer
// overrides customer, which overrides provider.
func (a *oracleAS) rel(nb ASN) Relationship {
	switch {
	case a.peers[nb]:
		return FromPeer
	case a.customers[nb]:
		return FromCustomer
	}
	return FromProvider
}

func (a *oracleAS) neighbors() map[ASN]Relationship {
	out := map[ASN]Relationship{}
	for nb := range a.providers {
		out[nb] = FromProvider
	}
	for nb := range a.customers {
		out[nb] = FromCustomer
	}
	for nb := range a.peers {
		out[nb] = FromPeer
	}
	return out
}

func (o oracleTopo) valleyFree(path []ASN) bool {
	phase := 0
	for i := 0; i+1 < len(path); i++ {
		a, ok := o[path[i]]
		if !ok {
			return false
		}
		to := path[i+1]
		switch {
		case a.providers[to]:
			if phase != 0 {
				return false
			}
		case a.peers[to]:
			if phase != 0 {
				return false
			}
			phase = 1
		case a.customers[to]:
			phase = 2
		default:
			return false
		}
	}
	return true
}

// topoOp is one random mutation applied to a Topology and to its oracle.
type topoOp struct {
	name string
	do   func(t *Topology, o oracleTopo, a, b ASN) error
}

func (o oracleTopo) pair(a, b ASN) (*oracleAS, *oracleAS, bool) {
	x, y := o[a], o[b]
	return x, y, a != b && x != nil && y != nil
}

var topoOps = []topoOp{
	{"add-as", func(t *Topology, o oracleTopo, a, _ ASN) error {
		if o[a] == nil {
			o[a] = newOracleAS()
		}
		return t.AddAS(a, ASInfo{Name: fmt.Sprint("AS", a)})
	}},
	{"add-p2c", func(t *Topology, o oracleTopo, a, b ASN) error {
		if x, y, ok := o.pair(a, b); ok {
			x.customers[b], y.providers[a] = true, true
		}
		return t.AddProviderCustomer(a, b)
	}},
	{"add-peer", func(t *Topology, o oracleTopo, a, b ASN) error {
		if x, y, ok := o.pair(a, b); ok {
			x.peers[b], y.peers[a] = true, true
		}
		return t.AddPeer(a, b)
	}},
	{"remove-p2c", func(t *Topology, o oracleTopo, a, b ASN) error {
		if x := o[a]; x != nil {
			delete(x.customers, b)
		}
		if y := o[b]; y != nil {
			delete(y.providers, a)
		}
		t.RemoveProviderCustomer(a, b)
		return nil
	}},
	{"remove-peer", func(t *Topology, o oracleTopo, a, b ASN) error {
		if x := o[a]; x != nil {
			delete(x.peers, b)
		}
		if y := o[b]; y != nil {
			delete(y.peers, a)
		}
		t.RemovePeer(a, b)
		return nil
	}},
	{"mark-leaker", func(t *Topology, o oracleTopo, a, _ ASN) error {
		if x := o[a]; x != nil {
			x.leaker = true
		}
		t.MarkLeaker(a)
		return nil
	}},
	{"clear-leaker", func(t *Topology, o oracleTopo, a, _ ASN) error {
		if x := o[a]; x != nil {
			x.leaker = false
		}
		t.ClearLeaker(a)
		return nil
	}},
}

// opErrWanted reports whether the oracle expects op on (a, b) to fail.
func opErrWanted(name string, o oracleTopo, a, b ASN, hadA bool) bool {
	switch name {
	case "add-as":
		return hadA
	case "add-p2c", "add-peer":
		_, _, ok := o.pair(a, b)
		return !ok
	}
	return false
}

// checkAgainstOracle compares every read of t with the oracle, and every
// compiled edge and per-AS flag with the oracle's derivation of it.
func checkAgainstOracle(t *testing.T, step string, top *Topology, o oracleTopo, pool []ASN, r *rng.Rand) {
	t.Helper()
	for _, a := range pool {
		oa := o[a]
		if got, want := top.Providers(a), oracleProviders(oa); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: Providers(%d) = %v, want %v", step, a, got, want)
		}
		got, want := top.Neighbors(a), map[ASN]Relationship(nil)
		if oa != nil {
			want = oa.neighbors()
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", step, a, got, want)
		}
		for _, b := range pool {
			if got, want := top.HasProviderCustomer(a, b), oa != nil && oa.customers[b]; got != want {
				t.Fatalf("%s: HasProviderCustomer(%d, %d) = %v, want %v", step, a, b, got, want)
			}
			if got, want := top.HasPeer(a, b), oa != nil && oa.peers[b]; got != want {
				t.Fatalf("%s: HasPeer(%d, %d) = %v, want %v", step, a, b, got, want)
			}
		}
	}
	for k := 0; k < 8; k++ {
		path := make([]ASN, 1+r.Intn(5))
		for i := range path {
			path[i] = pool[r.Intn(len(pool))]
		}
		if got, want := top.ValleyFree(path), len(path) < 2 || o.valleyFree(path); got != want {
			t.Fatalf("%s: ValleyFree(%v) = %v, want %v", step, path, got, want)
		}
	}
	e, err := top.compile()
	if err != nil {
		t.Fatalf("%s: compile: %v", step, err)
	}
	checkEdges(t, step, e, o)
}

func oracleProviders(a *oracleAS) []ASN {
	if a == nil {
		return nil
	}
	out := []ASN{}
	for p := range a.providers {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// checkEdges compares the engine's adjacency, core edges first, and its
// per-AS leaf and leaky flags with the oracle's derivation from the
// relationship sets.
func checkEdges(t *testing.T, step string, e *engine, o oracleTopo) {
	t.Helper()
	for i, n := range e.rt.asns {
		a := o[n]
		var core, leaves []neighborEdge
		nbs := a.neighbors()
		for _, nb := range e.rt.asns {
			r, ok := nbs[nb]
			if !ok {
				continue
			}
			ed := neighborEdge{
				idx:        e.rt.asIdx[nb],
				rel:        r,
				back:       o[nb].rel(n),
				receiveAll: o[nb].customers[n] || o[nb].leaker,
				sendAll:    a.customers[nb] || a.leaker,
			}
			if len(o[nb].customers) == 0 && !o[nb].leaker {
				leaves = append(leaves, ed)
			} else {
				core = append(core, ed)
			}
		}
		if want := append(core, leaves...); !slices.Equal(e.nbr[i], want) || int(e.ncore[i]) != len(core) {
			t.Fatalf("%s: edges of %d = %+v (%d core), want %+v (%d core)", step, n, e.nbr[i], e.ncore[i], want, len(core))
		}
		leaky := a.leaker
		for c := range a.customers {
			leaky = leaky || a.peers[c]
		}
		if e.leaf[i] != (len(a.customers) == 0 && !a.leaker) || e.leaky[i] != leaky {
			t.Fatalf("%s: %d leaf=%v leaky=%v, oracle customers=%v leaker=%v", step, n, e.leaf[i], e.leaky[i], a.customers, a.leaker)
		}
	}
}

// TestTopologyMatchesOracle applies seeded random sequences of AS and link
// additions, removals, leaker flags and clones to a Topology and to a
// map-of-sets oracle, and checks after every step that the topology's reads,
// its compiled adjacency, and an incrementally patched adjacency agree with
// the oracle. Adds repeat (a small ASN pool makes repeats common), so
// idempotence is pinned, and one provider-customer edge is overridden by a
// peering in every sequence.
func TestTopologyMatchesOracle(t *testing.T) {
	pool := []ASN{3, 7, 10, 11, 25, 40, 41, 99, 100, 1000}
	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.New(seed)
		top, o := NewTopology(), oracleTopo{}
		// Every sequence starts with an overridden edge: p2c, then a peering
		// on the same pair.
		for _, n := range pool[:2] {
			mustOp(t, top.AddAS(n, ASInfo{}))
			o[n] = newOracleAS()
		}
		mustOp(t, top.AddProviderCustomer(pool[0], pool[1]))
		o[pool[0]].customers[pool[1]], o[pool[1]].providers[pool[0]] = true, true
		mustOp(t, top.AddPeer(pool[0], pool[1]))
		o[pool[0]].peers[pool[1]], o[pool[1]].peers[pool[0]] = true, true
		checkAgainstOracle(t, fmt.Sprintf("seed %d override", seed), top, o, pool, r)

		for step := 0; step < 120; step++ {
			a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
			label := fmt.Sprintf("seed %d step %d", seed, step)
			if r.Intn(15) == 0 {
				// Continue on a clone and mutate the original: the clone must
				// not see it.
				old := top
				top, o = top.Clone(), o.clone()
				op := topoOps[1+r.Intn(len(topoOps)-1)]
				_ = op.do(old, oracleTopo{}, a, b)
				checkAgainstOracle(t, label+" clone", top, o, pool, r)
				continue
			}
			op := topoOps[r.Intn(len(topoOps))]
			_, hadA := o[a]
			wantErr := opErrWanted(op.name, o, a, b, hadA)
			if err := op.do(top, o, a, b); (err != nil) != wantErr {
				t.Fatalf("%s: %s(%d, %d) err = %v, want error %v", label, op.name, a, b, err, wantErr)
			}
			checkAgainstOracle(t, fmt.Sprintf("%s %s(%d, %d)", label, op.name, a, b), top, o, pool, r)
		}
		checkIncrementalEdges(t, seed, top, o, r)
	}
}

// checkIncrementalEdges converges top and applies random valid link and
// leak deltas through the Converged state, checking the patched adjacency
// against the oracle after each Apply and each Revert.
func checkIncrementalEdges(t *testing.T, seed uint64, top *Topology, o oracleTopo, r *rng.Rand) {
	t.Helper()
	c, err := top.ConvergeStateCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	asns := top.ASNs()
	if len(asns) < 2 {
		return
	}
	for step := 0; step < 40; step++ {
		a, b := asns[r.Intn(len(asns))], asns[r.Intn(len(asns))]
		d := Delta{Kind: DeltaLeakToggle, A: a}
		if a != b {
			d = Delta{A: a, B: b, Peer: r.Bool(0.5)}
			present := top.HasProviderCustomer(a, b)
			if d.Peer {
				present = top.HasPeer(a, b)
			}
			d.Kind = DeltaLinkUp
			if present {
				d.Kind = DeltaLinkDown
			}
		}
		before := o.clone()
		applyToOracle(o, d)
		p, err := c.Apply(d)
		if err != nil {
			t.Fatalf("seed %d: Apply(%s): %v", seed, FormatDelta(d), err)
		}
		checkEdges(t, fmt.Sprintf("seed %d apply %s", seed, FormatDelta(d)), c.e, o)
		if r.Bool(0.3) {
			c.Revert(p)
			o = before
			checkEdges(t, fmt.Sprintf("seed %d revert %s", seed, FormatDelta(d)), c.e, o)
		}
	}
}

func applyToOracle(o oracleTopo, d Delta) {
	x, y, up := o[d.A], o[d.B], d.Kind == DeltaLinkUp
	switch {
	case d.Kind == DeltaLeakToggle:
		x.leaker = !x.leaker
	case d.Peer:
		setMember(x.peers, d.B, up)
		setMember(y.peers, d.A, up)
	default:
		setMember(x.customers, d.B, up)
		setMember(y.providers, d.A, up)
	}
}

func setMember(s map[ASN]bool, n ASN, in bool) {
	if in {
		s[n] = true
	} else {
		delete(s, n)
	}
}

func mustOp(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompileAllocatesNoPerASObjects pins the allocation shape of compile:
// the adjacency and the origin lists are carved out of one backing array
// each, so compiling a fixed 1k-AS hierarchy allocates fewer objects than it
// has ASes. A per-AS neighbor map, edge slice or per-prefix origin slice
// would each cost at least one object per AS on this shape.
func TestCompileAllocatesNoPerASObjects(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(7), HierarchyOpts{NMid: 100, NStub: 897})
	if err != nil {
		t.Fatal(err)
	}
	n := len(h.Topo.ASNs())
	if n != 1000 {
		t.Fatalf("hierarchy has %d ASes, want 1000", n)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := h.Topo.compile(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= float64(n) {
		t.Fatalf("compile of %d ASes allocates %.0f objects, want fewer than one per AS", n, allocs)
	}
	t.Logf("compile of %d ASes: %.0f allocations", n, allocs)
}

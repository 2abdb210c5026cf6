package bgpsim

// Incremental re-convergence. The paper's routing case studies are deltas on
// a stable world — one ASN re-shuffled, one leaker appearing, one prefix
// hijacked — so re-running the full fixpoint per event wastes almost all of
// its work. ConvergeStateCtx keeps the compiled engine and the dense tables,
// path slabs included, alive; Apply patches the compiled form in place and
// re-converges only the affected prefix columns, seeding the change-driven
// work queue from the frontier of ASes whose inputs the delta touched
// instead of from every origin, and appending the path nodes it selects to
// each column's slab; Revert restores the exact pre-Apply state from a
// sparse undo log without re-converging at all, truncating every slab back
// to its pre-Apply length so the nodes Apply appended are reused. The undo
// record (Patch) is the size of what it undid: exact-size logs of the
// overwritten cells and one compact record per column that wrote, nothing
// for the columns that did not.
//
// Contract: after every Apply, the live tables are observably identical
// (Route/Path/Prefixes on every AS) to a cold ConvergeCtx of the mutated
// topology. That holds unconditionally, not just in expectation:
//
//   - When the effective provider→customer digraph is acyclic and no AS
//     violates valley-free export, Gao–Rexford guarantees a unique stable
//     state, so any quiescent state the frontier-seeded fixpoint reaches is
//     the cold one (engine.incrementalSafe). The gate is checked on both
//     sides of the delta: pre-delta safety certifies the live tables are a
//     true fixpoint to warm-start from, post-delta safety that the seeded
//     iteration can only quiesce on the unique stable state.
//   - Outside that regime — or if the seeded fixpoint hits the round cap —
//     Apply falls back to recomputing the affected columns cold, which is
//     bit-identical to the cold engine by construction, round cap included.
//     Leak toggles always take this path (a single leaker already admits
//     several stable states), which is why the leak sweep scopes its
//     applies to the one measured column (applyScoped).
//
// The frontier per delta kind: withdraw/announce touch one prefix column
// with the (ex-)origin AS as seed; a link add/remove touches every column
// with both endpoints as seeds (only their adjacency changed); a leak toggle
// touches every column with the leaker's neighbors as seeds (only the
// export edges toward the leaker changed). Everything further away changes
// only through its neighbors' tables, which the ordinary change-driven
// queue propagates.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// DeltaKind enumerates the topology mutations Apply understands.
type DeltaKind uint8

const (
	// DeltaWithdraw removes A's origination of Prefix.
	DeltaWithdraw DeltaKind = iota
	// DeltaAnnounce adds an origination of Prefix at A.
	DeltaAnnounce
	// DeltaLinkUp adds a link between A and B: provider(A)→customer(B)
	// transit, or settlement-free peering when Peer is set.
	DeltaLinkUp
	// DeltaLinkDown removes that link.
	DeltaLinkDown
	// DeltaLeakToggle flips A's route-leaker flag (see MarkLeaker).
	DeltaLeakToggle
)

// deltaKinds is the delta kind table: each kind's event-grammar keyword
// (see parse.go) and the kind that undoes it. Leak toggles are self-inverse.
var deltaKinds = [...]struct {
	keyword string
	inverse DeltaKind
}{
	DeltaWithdraw:   {"withdraw", DeltaAnnounce},
	DeltaAnnounce:   {"announce", DeltaWithdraw},
	DeltaLinkUp:     {"link+", DeltaLinkDown},
	DeltaLinkDown:   {"link-", DeltaLinkUp},
	DeltaLeakToggle: {"leak", DeltaLeakToggle},
}

// String returns the event-grammar keyword of the kind.
func (k DeltaKind) String() string {
	if int(k) < len(deltaKinds) {
		return deltaKinds[k].keyword
	}
	return fmt.Sprintf("DeltaKind(%d)", int(k))
}

// Delta is one topology event. A and Prefix serve withdraw/announce, A and B
// (plus Peer) the link kinds, and A alone the leak toggle.
type Delta struct {
	Kind   DeltaKind
	A, B   ASN
	Prefix string
	Peer   bool
}

// inverse returns the delta that undoes d (see deltaKinds).
func (d Delta) inverse() Delta {
	d.Kind = deltaKinds[d.Kind].inverse
	return d
}

// ErrBadDelta reports a delta that does not apply to the current topology
// (unknown AS, withdrawing an absent origin, adding a present link, ...).
var ErrBadDelta = fmt.Errorf("bgpsim: inapplicable delta")

// ApplyDelta validates d against the topology and mutates it. Validation is
// strict in both directions — a withdraw of an absent origin or a link-up of
// a present edge is an error, never a no-op — so every applied delta has a
// well-defined inverse, which Revert relies on and which lets the scenario
// parsers test-apply event sequences on a Clone before replaying them
// through Converged.Apply.
func (t *Topology) ApplyDelta(d Delta) error {
	switch d.Kind {
	case DeltaWithdraw:
		if !t.hasOrigin(d.A, d.Prefix) {
			return fmt.Errorf("%w: withdraw %d %s: not originated", ErrBadDelta, d.A, d.Prefix)
		}
		t.WithdrawOrigin(d.A, d.Prefix)
	case DeltaAnnounce:
		if _, ok := t.ases[d.A]; !ok {
			return fmt.Errorf("%w: %d", ErrUnknownAS, d.A)
		}
		if t.hasOrigin(d.A, d.Prefix) {
			return fmt.Errorf("%w: announce %d %s: already originated", ErrBadDelta, d.A, d.Prefix)
		}
		return t.Originate(d.A, d.Prefix)
	case DeltaLinkUp:
		if d.Peer {
			if t.HasPeer(d.A, d.B) {
				return fmt.Errorf("%w: link+ peer %d %d: already present", ErrBadDelta, d.A, d.B)
			}
			return t.AddPeer(d.A, d.B)
		}
		if t.HasProviderCustomer(d.A, d.B) {
			return fmt.Errorf("%w: link+ p2c %d %d: already present", ErrBadDelta, d.A, d.B)
		}
		return t.AddProviderCustomer(d.A, d.B)
	case DeltaLinkDown:
		if d.Peer {
			if !t.HasPeer(d.A, d.B) {
				return fmt.Errorf("%w: link- peer %d %d: not present", ErrBadDelta, d.A, d.B)
			}
			t.RemovePeer(d.A, d.B)
			return nil
		}
		if !t.HasProviderCustomer(d.A, d.B) {
			return fmt.Errorf("%w: link- p2c %d %d: not present", ErrBadDelta, d.A, d.B)
		}
		t.RemoveProviderCustomer(d.A, d.B)
	case DeltaLeakToggle:
		a, ok := t.ases[d.A]
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownAS, d.A)
		}
		a.leaker = !a.leaker
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadDelta, int(d.Kind))
	}
	return nil
}

// patchCol is the undo record of one re-converged prefix column that
// wrote, five int32 words: the column p; the count of clothing writes (see
// clothe), which change no route, at the head of its cells; its slab length
// before the apply appended to it (at most maxSlab); the end of its cells in
// its part's log, which start at the previous record's end; and the net
// change in routed cells its writes made.
type patchCol struct {
	p, clothed, slabLen, end, reach int32
}

// patchPart is the undo record of one fan-out chunk of an Apply: the records
// of the chunk's columns that wrote, in column order, and one log of their
// overwritten cells, back to back, each column's oldest first. Both are
// exact-size copies of the worker's scratch.
type patchPart struct {
	cols []patchCol
	log  []undoCell
}

// cells returns the logged cells of the part's k-th column.
func (pt *patchPart) cells(k int) []undoCell {
	start := int32(0)
	if k > 0 {
		start = pt.cols[k-1].end
	}
	return pt.log[start:pt.cols[k].end]
}

// Patch records everything needed to undo one Apply: the delta itself (its
// inverse undoes the structural mutation) and the overwritten table cells,
// one part per fan-out chunk that wrote, in chunk order. A patch holds 20
// bytes per column that wrote (its record) plus 8 per overwritten cell,
// clothing writes included, and nothing for the columns that did not.
// Patches are strictly LIFO: only the most recent unreverted patch may be
// reverted.
type Patch struct {
	delta       Delta
	parts       []patchPart
	addedPrefix bool // Apply created a new prefix column (dropped on Revert)
	c2pAcyclic  bool // the engine's c2pAcyclic before the apply (restored on Revert)
	seq         int
}

// Delta returns the delta this patch applied.
func (p *Patch) Delta() Delta { return p.delta }

// Cells returns the number of table cells the apply overwrote — the measured
// blast radius of the delta. Clothing a former leaf's bare cells rewrites
// them without changing a route, so it is not counted.
func (p *Patch) Cells() int {
	n := 0
	for _, pt := range p.parts {
		n += len(pt.log)
		for _, pc := range pt.cols {
			n -= int(pc.clothed)
		}
	}
	return n
}

// Converged is a reusable convergence state: the topology, its compiled
// engine, and the live routing tables, kept together so successive deltas
// re-converge incrementally instead of from scratch. Obtain one with
// ConvergeStateCtx; it is not safe for concurrent use.
type Converged struct {
	t       *Topology
	e       *engine // its rt is the live tables
	workers int
	// states recycles the per-worker convState scratch of fanOut across the
	// cold convergence and every Apply, so an event does not allocate it
	// afresh for every worker. It is a pointer to a pool whose New captures
	// only the AS count: the runtime keeps a used pool reachable for a
	// collection or two, and an embedded one would keep the dropped state of
	// every ConvergeCtx, tables included, alive with it.
	states  *sync.Pool
	applied int // LIFO depth, for Revert-order enforcement
}

// ConvergeStateCtx compiles t, converges it fully (fanning prefix columns
// over at most workers goroutines; <= 0 means GOMAXPROCS; the tables are
// bit-identical for every worker count), and returns the live state. The
// topology is captured by reference: mutate it only through Apply/Revert
// while the state is in use, or the compiled form goes stale. ctx is checked
// between prefix columns of the cold convergence; on cancellation the
// half-built tables are discarded and ctx.Err() returned.
// Once the state is returned, Apply/Revert events themselves run to
// completion — cancelling mid-event would leave the undo log inconsistent —
// so callers driving event sweeps check the context between events.
func (t *Topology) ConvergeStateCtx(ctx context.Context, workers int) (*Converged, error) {
	e, err := t.compile()
	if err != nil {
		return nil, err
	}
	return t.convergeCompiled(ctx, e, workers)
}

// convergeCompiled runs the cold rounds over e, t's freshly compiled engine,
// and returns the live state: ConvergeStateCtx after its compile phase.
func (t *Topology) convergeCompiled(ctx context.Context, e *engine, workers int) (*Converged, error) {
	nAS := len(e.rt.asns)
	c := &Converged{t: t, e: e, workers: workers, states: &sync.Pool{New: func() any { return newConvState(nAS) }}}
	reach, err := c.fanOut(ctx, len(e.rt.prefixes), func(_, lo, hi int, st *convState) error {
		return e.convergeRange(ctx, lo, hi, st)
	})
	if err != nil {
		return nil, err
	}
	e.rt.reach = reach
	return c, nil
}

// Tables returns the live routing tables. They mutate in place on every
// Apply/Revert; take copies (Route/Path materialize fresh slices) to keep
// results across events.
func (c *Converged) Tables() *RoutingTables { return c.e.rt }

// Topology returns the underlying topology (mutated by Apply/Revert).
func (c *Converged) Topology() *Topology { return c.t }

// Apply mutates the topology by d and re-converges exactly the affected
// prefix columns from the frontier of ASes the delta touched. On success
// the live tables are observably identical to a cold ConvergeCtx of the
// mutated topology, and the returned patch undoes everything via Revert.
// On error nothing changed.
//
// Deltas that introduce or remove an AS are deliberately absent: the dense
// index space is fixed at ConvergeStateCtx time.
func (c *Converged) Apply(d Delta) (*Patch, error) {
	return c.applyScoped(d, nil)
}

// applyScoped is Apply with an optional column scope: when scope is non-nil
// only those prefix columns are re-converged, and every column outside the
// scope keeps its pre-delta state — deliberately stale until the patch is
// reverted. The sweeps use this to pay for exactly the one column they
// measure (a leak toggle would otherwise cold-recompute every column, since
// leakers void the uniqueness guarantee); it stays unexported because the
// partial-staleness contract is easy to misuse.
func (c *Converged) applyScoped(d Delta, scope []int32) (*Patch, error) {
	// The frontier-seeded path needs safety on BOTH sides of the delta:
	// pre-delta safety guarantees the live tables are a true fixpoint (an
	// unsafe era leaves cap-truncated tables whose non-seed cells are not
	// best responses), post-delta safety guarantees the seeded iteration
	// can only quiesce on the unique stable state.
	e := c.e
	preSafe := e.incrementalSafe()
	acyclic := e.c2pAcyclic
	link := d.Kind == DeltaLinkUp || d.Kind == DeltaLinkDown
	var before uint8
	if link {
		before = e.c2pBetween(d.A, d.B)
	}
	addedPrefix, unleafed, err := c.applyStructural(d)
	if err != nil {
		return nil, err
	}
	// A link delta changes the effective provider→customer digraph only
	// between its two endpoints (relationship overrides apply: removing a
	// peer record can expose a customer edge, adding one can hide it).
	// Removing edges from an acyclic digraph keeps it acyclic, and adding
	// edges to a cyclic one keeps it cyclic. An edge that appears in an
	// acyclic digraph closes a cycle exactly when its provider lies in its
	// customer's cone, which a DFS from the customer answers; the
	// whole-graph pass runs only when a cyclic digraph lost an edge.
	if link {
		after := e.c2pBetween(d.A, d.B)
		switch {
		case acyclic && after&^before != 0:
			e.c2pAcyclic = !e.closesCycle(d.A, d.B, after&^before)
		case !acyclic && before&^after != 0:
			e.c2pAcyclic = e.computeC2PAcyclic()
		}
	}
	p := &Patch{delta: d, addedPrefix: addedPrefix, c2pAcyclic: acyclic, seq: c.applied + 1}
	cols, seeds := c.affected(d)
	if scope != nil {
		cols = scope
	}
	c.reconverge(p, cols, seeds, unleafed, preSafe && e.incrementalSafe())
	c.applied++
	return p, nil
}

// Revert undoes the most recent unreverted Apply: replays the undo log in
// reverse (restoring the exact pre-Apply table bytes, shared path-chain refs
// included), truncates each slab to its pre-Apply length, and applies the
// inverse delta to the topology and compiled engine. Patches are LIFO;
// reverting out of order panics.
func (c *Converged) Revert(p *Patch) {
	if p == nil || p.seq != c.applied {
		panic("bgpsim: Converged.Revert: patches must be reverted in LIFO order")
	}
	e, rt := c.e, c.e.rt
	nAS := len(rt.asns)
	for i := len(p.parts) - 1; i >= 0; i-- {
		pt := &p.parts[i]
		for k := len(pt.cols) - 1; k >= 0; k-- {
			pc := pt.cols[k]
			col := rt.entries[int(pc.p)*nAS : (int(pc.p)+1)*nAS]
			log := pt.cells(k)
			for j := len(log) - 1; j >= 0; j-- {
				col[log[j].idx] = log[j].e
			}
			rt.reach -= int(pc.reach)
			rt.slabs[pc.p] = rt.slabs[pc.p][:pc.slabLen]
		}
	}
	if _, _, err := c.applyStructural(p.delta.inverse()); err != nil {
		// The inverse of a validated, applied delta always applies.
		panic("bgpsim: Converged.Revert: " + err.Error())
	}
	e.c2pAcyclic = p.c2pAcyclic
	if p.addedPrefix {
		// The newest column is the one Apply appended (LIFO, enforced above).
		e.origins = e.origins[:len(e.origins)-1]
		rt.dropLastPrefixColumn()
	}
	c.applied--
}

// applyStructural mutates the topology and patches the compiled engine to
// match, without touching the tables or c2pAcyclic (Apply and Revert keep
// that flag). Returns whether a new prefix column was created, and the ASes
// that stopped being leaves: their bare cells are now visible to a neighbor,
// so Apply clothes them before it re-converges (Revert restores the cells
// first, so it needs no clothing). An AS whose leaf status flips (a stub
// gains its first customer, a mid loses its last, a leak is toggled) has its
// edge moved across the core/leaf split of every neighbor's adjacency in
// place (see moveAcross); a link delta refills its two endpoints' own
// adjacencies after both their flags are current, since each endpoint's
// list depends on the other's status.
func (c *Converged) applyStructural(d Delta) (addedPrefix bool, unleafed []int32, err error) {
	e, rt := c.e, c.e.rt
	if d.Kind == DeltaWithdraw || d.Kind == DeltaAnnounce {
		if _, ok := rt.asIdx[d.A]; !ok {
			return false, nil, fmt.Errorf("%w: %d", ErrUnknownAS, d.A)
		}
	}
	if err := c.t.ApplyDelta(d); err != nil {
		return false, nil, err
	}
	// setLeaf refreshes i's leaf flag and reports whether it flipped.
	setLeaf := func(i int32, a *as) bool {
		now := isLeaf(a)
		if now == e.leaf[i] {
			return false
		}
		if !now {
			unleafed = append(unleafed, i)
		}
		e.leaf[i] = now
		return true
	}
	// relocate moves flipped AS i's edge across the split of every
	// neighbor's adjacency but refilled's, which already holds i's new flag.
	relocate := func(i, refilled int32) {
		for _, ed := range e.nbr[i] {
			if ed.idx != refilled {
				e.moveAcross(ed.idx, i)
			}
		}
	}
	switch d.Kind {
	case DeltaWithdraw:
		pi := rt.pfxIdx[d.Prefix] // present: the origin existed, so compile/announce saw it
		e.origins[pi] = removeSorted(e.origins[pi], rt.asIdx[d.A])
	case DeltaAnnounce:
		pi, ok := rt.pfxIdx[d.Prefix]
		if !ok {
			pi = rt.addPrefixColumn(d.Prefix)
			e.origins = append(e.origins, nil)
			addedPrefix = true
		}
		e.origins[pi] = insertSorted(e.origins[pi], rt.asIdx[d.A])
	case DeltaLinkUp, DeltaLinkDown:
		isLeaker := func(j int32) bool { return c.t.ases[rt.asns[j]].leaker }
		ends := [2]int32{rt.asIdx[d.A], rt.asIdx[d.B]}
		var flipped [2]bool
		for k, i := range ends {
			flipped[k] = setLeaf(i, c.t.ases[rt.asns[i]])
		}
		for _, i := range ends {
			a := c.t.ases[rt.asns[i]]
			e.nbr[i] = make([]neighborEdge, len(a.links))
			e.fillEdges(i, a, isLeaker)
			c.updateLeaky(i)
		}
		for k, i := range ends {
			if flipped[k] {
				relocate(i, ends[1-k])
			}
		}
	case DeltaLeakToggle:
		i := rt.asIdx[d.A]
		a := c.t.ases[d.A]
		if setLeaf(i, a) {
			relocate(i, -1)
		}
		// Export policy lives on the receiving side: every neighbor's edge
		// toward the leaker carries the receiveAll flag, mirrored by the
		// sendAll flag of the leaker's own edge. Patch both in place.
		for k, ed := range e.nbr[i] {
			back := &e.nbr[ed.idx][e.edgeTo(ed.idx, i)]
			back.receiveAll = a.bits(rt.asns[ed.idx])&linkCustomer != 0 || a.leaker
			e.nbr[i][k].sendAll = back.receiveAll
		}
		c.updateLeaky(i)
	}
	return addedPrefix, unleafed, nil
}

// edgeTo returns the position of j in i's adjacency, or -1 when they are
// not linked: a binary search of the segment j's leaf flag names (see nbr).
func (e *engine) edgeTo(i, j int32) int {
	lo, hi := 0, int(e.ncore[i])
	if e.leaf[j] {
		lo, hi = hi, len(e.nbr[i])
	}
	if k, ok := findEdge(e.nbr[i][lo:hi], j); ok {
		return lo + k
	}
	return -1
}

// moveAcross moves x's edge in y's adjacency across y's core/leaf split
// after x's leaf flag flipped to e.leaf[x], keeping both segments ascending
// (see nbr). The edges between the old and the new slot shift by one, in
// place: O(degree of y), and no allocation.
func (e *engine) moveAcross(y, x int32) {
	nb, nc := e.nbr[y], int(e.ncore[y])
	if e.leaf[x] { // core to leaf: the split moves down past x's old slot
		k, _ := findEdge(nb[:nc], x)
		q, _ := findEdge(nb[nc:], x)
		q += nc - 1
		ed := nb[k]
		copy(nb[k:q], nb[k+1:q+1])
		nb[q] = ed
		e.ncore[y]--
		return
	}
	k, _ := findEdge(nb[nc:], x) // leaf to core: the split moves up
	k += nc
	q, _ := findEdge(nb[:nc], x)
	ed := nb[k]
	copy(nb[q+1:k+1], nb[q:k])
	nb[q] = ed
	e.ncore[y]++
}

// c2pBetween returns the edges of the effective provider→customer digraph
// between ASes a and b: bit 0 when a is b's provider, bit 1 when b is a's.
// An unknown AS or an absent link has none.
func (e *engine) c2pBetween(a, b ASN) uint8 {
	i, okA := e.rt.asIdx[a]
	j, okB := e.rt.asIdx[b]
	if !okA || !okB {
		return 0
	}
	k := e.edgeTo(i, j)
	if k < 0 {
		return 0
	}
	var m uint8
	if e.nbr[i][k].rel == FromCustomer {
		m |= 1
	}
	if e.nbr[i][k].back == FromCustomer {
		m |= 2
	}
	return m
}

// closesCycle reports whether the provider→customer edges that appeared
// between a and b (added, in c2pBetween's bits) close a cycle of the
// effective digraph, which was acyclic without them: whether an edge's
// provider is in its customer's cone.
func (e *engine) closesCycle(a, b ASN, added uint8) bool {
	i, j := e.rt.asIdx[a], e.rt.asIdx[b]
	return added&1 != 0 && e.inCone(j, i) || added&2 != 0 && e.inCone(i, j)
}

// inCone reports whether AS index x lies in the customer cone of r: whether
// a walk down the effective provider→customer edges from r reaches x. A
// stub's cone is empty, so that answer costs one adjacency scan.
func (e *engine) inCone(r, x int32) bool {
	stack := []int32{r}
	var seen map[int32]bool
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ed := range e.nbr[i] {
			if ed.rel != FromCustomer || seen[ed.idx] {
				continue
			}
			if ed.idx == x {
				return true
			}
			if seen == nil {
				seen = make(map[int32]bool)
			}
			seen[ed.idx] = true
			stack = append(stack, ed.idx)
		}
	}
	return false
}

// updateLeaky refreshes the per-AS export-violation flag and the global
// violator count after a structural change at index i.
func (c *Converged) updateLeaky(i int32) {
	now := leakyExporter(c.t.ases[c.e.rt.asns[i]])
	if now != c.e.leaky[i] {
		c.e.leaky[i] = now
		if now {
			c.e.nLeaky++
		} else {
			c.e.nLeaky--
		}
	}
}

// affected returns the prefix columns a just-applied delta can influence and
// the seed frontier to re-evaluate first. nil cols means every column.
func (c *Converged) affected(d Delta) (cols []int32, seeds []int32) {
	e, rt := c.e, c.e.rt
	switch d.Kind {
	case DeltaWithdraw, DeltaAnnounce:
		return []int32{rt.pfxIdx[d.Prefix]}, []int32{rt.asIdx[d.A]}
	case DeltaLinkUp, DeltaLinkDown:
		seeds = []int32{rt.asIdx[d.A], rt.asIdx[d.B]}
		if seeds[0] > seeds[1] {
			seeds[0], seeds[1] = seeds[1], seeds[0]
		}
		return nil, seeds
	default: // DeltaLeakToggle
		i := rt.asIdx[d.A]
		seeds = make([]int32, len(e.nbr[i]))
		for k, ed := range e.nbr[i] {
			seeds[k] = ed.idx
		}
		return nil, seeds
	}
}

// maxPooledLog caps, in cells, the undo scratch a worker's convState keeps
// between Applies: a larger log (a cold fallback over many columns) is
// dropped after its copy, so the pool does not hold a whole table's worth.
const maxPooledLog = 1 << 16

// reconverge re-runs the fixpoint on the given columns (nil = all) from the
// seed frontier, recording every overwritten cell into the patch. When safe
// (see Apply), columns continue from the live tables, after the bare cells
// of the unleafed ASes are clothed; otherwise — and for any column whose
// seeded fixpoint hit the round cap — they are recomputed cold (see the
// package comment for why that preserves cold-identity), which needs no
// clothing. Each fan-out chunk logs into its worker's scratch and keeps an
// exact-size copy of the records of its columns that wrote, as one part.
func (c *Converged) reconverge(p *Patch, cols, seeds, unleafed []int32, safe bool) {
	e, rt := c.e, c.e.rt
	nAS := len(rt.asns)
	n := len(cols)
	if cols == nil {
		n = len(rt.prefixes)
	}
	// Each column appends only to its own slab, and each chunk writes only
	// its own part, so concurrent chunks never share a write.
	_, size := c.chunks(n)
	parts := make([]patchPart, (n+size-1)/size)
	reach, err := c.fanOut(context.Background(), n, func(ci, lo, hi int, st *convState) error {
		st.log, st.cols = st.log[:0], st.cols[:0]
		for k := lo; k < hi; k++ {
			pi := int32(k)
			if cols != nil {
				pi = cols[k]
			}
			slab := &rt.slabs[pi]
			pc := patchCol{p: pi, slabLen: int32(len(*slab))}
			col := rt.entries[int(pi)*nAS : (int(pi)+1)*nAS]
			start, before := len(st.log), st.reach
			if safe {
				for _, j := range unleafed {
					clothe(col, slab, j, &st.log)
				}
				pc.clothed = int32(len(st.log) - start)
			}
			if !safe || !e.reconvergeColumn(int(pi), col, slab, st, seeds, &st.log) {
				e.coldColumn(int(pi), col, slab, st, &st.log)
			}
			// A column that appended nodes or changed the routed count also
			// overwrote cells, so the log alone decides which columns the
			// part records.
			if len(st.log) == start {
				continue
			}
			if len(st.log) > math.MaxInt32 {
				panic(fmt.Sprintf("bgpsim: undo log exceeds %d cells", math.MaxInt32))
			}
			pc.end, pc.reach = int32(len(st.log)), int32(st.reach-before)
			st.cols = append(st.cols, pc)
		}
		if len(st.cols) > 0 {
			pt := patchPart{cols: make([]patchCol, len(st.cols)), log: make([]undoCell, len(st.log))}
			copy(pt.cols, st.cols)
			copy(pt.log, st.log)
			parts[ci] = pt
		}
		if cap(st.log) > maxPooledLog {
			st.log = nil
		}
		return nil
	})
	if err != nil {
		panic(err) // only worker panics can land here; re-raise
	}
	rt.reach += reach
	p.parts = slices.DeleteFunc(parts, func(pt patchPart) bool { return len(pt.cols) == 0 })
}

// clothe gives AS i's cell in col a path node of its own if the cell is
// bare, logging the overwritten cell. The route does not change: the node
// conses i onto the tail the bare cell held.
func clothe(col []entry, slab *[]pathNode, i int32, log *[]undoCell) {
	if en := col[i]; en < 0 {
		*log = append(*log, undoCell{idx: i, e: en})
		col[i] = pack(appendNode(slab, i, tail(*slab, en)), en.learned())
	}
}

// insertSorted adds v to a sorted int32 slice, keeping it sorted; duplicate
// inserts are impossible (ApplyDelta rejects duplicate originations).
func insertSorted(s []int32, v int32) []int32 {
	at := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[at+1:], s[at:])
	s[at] = v
	return s
}

// removeSorted deletes v from a sorted int32 slice (v is present).
func removeSorted(s []int32, v int32) []int32 {
	at := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return append(s[:at], s[at+1:]...)
}

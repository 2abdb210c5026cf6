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
// to its pre-Apply length so the nodes Apply appended are reused.
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

// String returns the event-grammar keyword of the kind (see parse.go).
func (k DeltaKind) String() string {
	switch k {
	case DeltaWithdraw:
		return "withdraw"
	case DeltaAnnounce:
		return "announce"
	case DeltaLinkUp:
		return "link+"
	case DeltaLinkDown:
		return "link-"
	case DeltaLeakToggle:
		return "leak"
	default:
		return fmt.Sprintf("DeltaKind(%d)", int(k))
	}
}

// Delta is one topology event. A and Prefix serve withdraw/announce, A and B
// (plus Peer) the link kinds, and A alone the leak toggle.
type Delta struct {
	Kind   DeltaKind
	A, B   ASN
	Prefix string
	Peer   bool
}

// inverse returns the delta that undoes d. Leak toggles are self-inverse.
func (d Delta) inverse() Delta {
	switch d.Kind {
	case DeltaWithdraw:
		d.Kind = DeltaAnnounce
	case DeltaAnnounce:
		d.Kind = DeltaWithdraw
	case DeltaLinkUp:
		d.Kind = DeltaLinkDown
	case DeltaLinkDown:
		d.Kind = DeltaLinkUp
	}
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

// patchCol is the sparse undo log of one re-converged prefix column:
// every overwritten cell's previous value, oldest first, and the column's
// slab length before the apply appended to it.
type patchCol struct {
	p       int32
	slabLen int
	log     []undoCell
	reach   int // net change in routed cells the column's writes made
}

// Patch records everything needed to undo one Apply: the delta itself (its
// inverse undoes the structural mutation) and the overwritten table cells.
// Patches are strictly LIFO: only the most recent unreverted patch may be
// reverted.
type Patch struct {
	delta       Delta
	cols        []patchCol
	addedPrefix bool // Apply created a new prefix column (dropped on Revert)
	c2pAcyclic  bool // the engine's c2pAcyclic before the apply (restored on Revert)
	seq         int
}

// Delta returns the delta this patch applied.
func (p *Patch) Delta() Delta { return p.delta }

// Cells returns the number of table cells the apply overwrote — the measured
// blast radius of the delta.
func (p *Patch) Cells() int {
	n := 0
	for i := range p.cols {
		n += len(p.cols[i].log)
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
	nAS := len(e.rt.asns)
	c := &Converged{t: t, e: e, workers: workers, states: &sync.Pool{New: func() any { return newConvState(nAS) }}}
	reach, err := c.fanOut(ctx, len(e.rt.prefixes), func(lo, hi int, st *convState) error {
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
	addedPrefix, err := c.applyStructural(d)
	if err != nil {
		return nil, err
	}
	// A link delta changes the effective provider→customer digraph only
	// between its two endpoints (relationship overrides apply: removing a
	// peer record can expose a customer edge). Removing edges from an
	// acyclic digraph keeps it acyclic, so the whole-graph pass runs only
	// when a provider→customer edge appeared or the digraph had a cycle.
	if link && (!acyclic || e.c2pBetween(d.A, d.B)&^before != 0) {
		e.c2pAcyclic = e.computeC2PAcyclic()
	}
	p := &Patch{delta: d, addedPrefix: addedPrefix, c2pAcyclic: acyclic, seq: c.applied + 1}
	cols, seeds := c.affected(d)
	if scope != nil {
		cols = scope
	}
	c.reconverge(p, cols, seeds, preSafe && e.incrementalSafe())
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
	for i := len(p.cols) - 1; i >= 0; i-- {
		pc := &p.cols[i]
		col := rt.entries[int(pc.p)*nAS : (int(pc.p)+1)*nAS]
		for j := len(pc.log) - 1; j >= 0; j-- {
			col[pc.log[j].idx] = pc.log[j].e
		}
		rt.reach -= pc.reach
		rt.slabs[pc.p] = rt.slabs[pc.p][:pc.slabLen]
	}
	if _, err := c.applyStructural(p.delta.inverse()); err != nil {
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
// that flag). Returns whether a new prefix column was created.
func (c *Converged) applyStructural(d Delta) (addedPrefix bool, err error) {
	e, rt := c.e, c.e.rt
	if d.Kind == DeltaWithdraw || d.Kind == DeltaAnnounce {
		if _, ok := rt.asIdx[d.A]; !ok {
			return false, fmt.Errorf("%w: %d", ErrUnknownAS, d.A)
		}
	}
	if err := c.t.ApplyDelta(d); err != nil {
		return false, err
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
		for _, n := range [2]ASN{d.A, d.B} {
			i := rt.asIdx[n]
			e.nbr[i] = compileEdges(c.t, rt.asIdx, n)
			c.updateLeaky(i)
			e.leaf[i] = isLeaf(c.t.ases[n])
		}
	case DeltaLeakToggle:
		i := rt.asIdx[d.A]
		a := c.t.ases[d.A]
		// Export policy lives on the receiving side: every neighbor's edge
		// toward the leaker carries the receiveAll flag, mirrored by the
		// sendAll flag of the leaker's own edge. Patch both in place.
		for k, ed := range e.nbr[i] {
			back := &e.nbr[ed.idx][e.edgeTo(ed.idx, i)]
			back.receiveAll = a.customers[rt.asns[ed.idx]] || a.leaker
			e.nbr[i][k].sendAll = back.receiveAll
		}
		c.updateLeaky(i)
		e.leaf[i] = isLeaf(a)
	}
	return addedPrefix, nil
}

// edgeTo returns the position of j in i's adjacency, or -1 when they are
// not linked (binary search; adjacency is sorted by index).
func (e *engine) edgeTo(i, j int32) int {
	nb := e.nbr[i]
	k := sort.Search(len(nb), func(k int) bool { return nb[k].idx >= j })
	if k == len(nb) || nb[k].idx != j {
		return -1
	}
	return k
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

// reconverge re-runs the fixpoint on the given columns (nil = all) from the
// seed frontier, recording every overwritten cell into the patch. When safe
// (see Apply), columns continue from the live tables; otherwise — and for
// any column whose seeded fixpoint hit the round cap — they are recomputed
// cold (see the package comment for why that preserves cold-identity).
func (c *Converged) reconverge(p *Patch, cols []int32, seeds []int32, safe bool) {
	e, rt := c.e, c.e.rt
	nAS := len(rt.asns)
	if cols == nil {
		cols = make([]int32, len(rt.prefixes))
		for i := range cols {
			cols[i] = int32(i)
		}
	}
	// Each column appends only to its own slab and its own pcs entry, so
	// concurrent columns never share a write.
	pcs := make([]patchCol, len(cols))
	reach, err := c.fanOut(context.Background(), len(cols), func(lo, hi int, st *convState) error {
		for i, pi := range cols[lo:hi] {
			slab := &rt.slabs[pi]
			pc := patchCol{p: pi, slabLen: len(*slab)}
			col := rt.entries[int(pi)*nAS : (int(pi)+1)*nAS]
			before := st.reach
			if !safe || !e.reconvergeColumn(int(pi), col, slab, st, seeds, &pc.log) {
				e.coldColumn(int(pi), col, slab, st, &pc.log)
			}
			pc.reach = st.reach - before
			pcs[lo+i] = pc
		}
		return nil
	})
	if err != nil {
		panic(err) // only worker panics can land here; re-raise
	}
	rt.reach += reach
	// A column that appended nodes or changed the routed count also
	// overwrote cells, so the log alone decides which columns the patch
	// records.
	for _, pc := range pcs {
		if len(pc.log) > 0 {
			p.cols = append(p.cols, pc)
		}
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

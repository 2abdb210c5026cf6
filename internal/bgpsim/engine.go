package bgpsim

// The compiled routing engine behind ConvergeCtx and ConvergeStateCtx.
//
// The original fixpoint (kept as convergeReference in reference_test.go) is a
// synchronous Bellman–Ford over map[ASN]map[string]*Route: every round it
// rebuilds every table, re-derives and re-sorts every neighbor list, and
// copies every candidate AS path. This engine computes the exact same
// fixpoint — bit-identical tables, paths, and reachability — from a compiled
// form of the topology:
//
//   - ASNs and prefixes are interned to dense indices once, at compile, and
//     the routing state is a flat column of entries per prefix instead of
//     nested maps. The RoutingTables own the one interning; the engine reads
//     it from there. Dense AS indices follow ascending ASN order, so
//     comparing indices orders hops exactly as comparing ASNs would.
//   - Neighbor adjacency is precompiled once per convergence: for every AS a
//     sorted slice of (neighbor index, learned relationship, exports-all)
//     edges replaces the per-AS-per-round map iteration + sort.
//   - AS paths are immutable cons cells in a per-column slab. A candidate
//     path is the routing AS consed onto the neighbor's current path head —
//     O(1), no slice copy — and comparisons (lexicographic tie-break, loop
//     check, change detection) walk the cells. Because cells are snapshots,
//     mid-convergence comparisons see exactly the paths the reference engine
//     would materialize. Cells and table entries are pointer-free (int32
//     slab refs and dense AS indices), so the garbage collector never traces
//     the tables.
//   - Rounds are change-driven, by three exact rules. An AS's selection reads
//     only its own origins and the previous-round entries of the neighbors
//     it can see: a neighbor's entry is visible if the neighbor exports
//     everything to it (it is the neighbor's customer, or the neighbor
//     leaks) or if the entry is origin- or customer-learned.
//     Rule 1, export-aware queueing: when AS c changes, all its neighbors
//     are queued only if its old or new entry is origin- or
//     customer-learned; otherwise only the neighbors c exports everything to
//     (the edge's sendAll flag, which mirrors the neighbor's receiveAll), as
//     no other neighbor could see either entry.
//     Rule 2, changed-neighbor evaluation: a queued AS whose incumbent's
//     next hop did not change last round starts from its incumbent and
//     scores only the neighbors that did change, through their edge's back
//     relationship (the neighbor's rel for the edge). Every unchanged
//     neighbor offers the candidate it offered when the incumbent won, and
//     candidates from distinct neighbors never tie (their tails start with
//     different ASes), so the better of the incumbent and the changed
//     neighbors' candidates is exactly what a full scan would select. A
//     full selectBest rescan runs only when the incumbent's next hop
//     changed, and for the frontier seeds of an incremental Apply.
//     Skipping or shortening those evaluations cannot alter any round's
//     table, and the work queue drains in a deterministic order derived
//     from the changed set — never from map iteration or goroutine
//     scheduling. The queue order decides only where new path nodes land in
//     a column's slab, never which route a cell selects.
//     Rule 3, leaves settle once: cold convergence runs its rounds over the
//     transit core only and then settles every leaf in one pass over the
//     final column (settleLeaves). A leaf has no customers and does not
//     leak, so no edge of it has sendAll set and it learns no route from a
//     customer: unless it originates the prefix, its entry is hidden from
//     every neighbor. No core selection reads it and no path contains it, so
//     skipping leaves in the rounds leaves the core's trajectory unchanged,
//     each non-origin leaf's final entry is its selection over the final
//     column, found without a loop check, and an origin leaf keeps its
//     round-0 entry. When the core is still changing at the round cap, the
//     reference's leaves trail it by one round, so the leaves settle against
//     the column the last round read, before its updates land. On the 10k-AS
//     shape 84% of the cells are leaves', and serial cold convergence fell
//     from 452 to 249 ms on 2 vCPUs of an Intel Xeon (BENCH_bgpsim.json).
//     Apply keeps leaves in its rounds: Patch.Cells counts every overwritten
//     cell, and the timeline tables print that count.
//   - Updates are batched and applied at the end of each round, preserving
//     the synchronous-round semantics of the reference engine (round r reads
//     only round r-1 state), including its 4·|AS|+16 safety cap on malformed
//     (cyclic provider graph) topologies.
//
// Prefix columns never interact, so fanOut spreads independent columns
// across internal/parallel workers, for the cold convergence and for Apply
// alike; each prefix's fixpoint is fully self-contained and lands at its own
// table offset and in its own slab, making the result bit-identical for
// every worker count. ConvergeCtx is ConvergeStateCtx without the state.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/parallel"
)

// pathNode is one hop of an AS path stored as an immutable cons cell in a
// column's slab: as is the dense index of the hop's AS, and next the slab
// index of the rest of the path, with the origin AS last (next == nilRef).
// Nodes are shared between the adopting AS and its neighbor's route, and
// never mutated once appended.
type pathNode struct {
	as, next int32
}

// nilRef is the slab index that ends a chain. Slot 0 of every slab is a
// reserved placeholder, so no real node ever has index 0.
const nilRef = 0

// Bounds of the packed layout: slab indices are int32, and a cell packs its
// path length (at most one hop per AS) above the two relationship bits of an
// int32.
const (
	maxSlab = math.MaxInt32
	maxASes = math.MaxInt32 >> 2
)

// appendNode appends the hop (as, next) to the slab and returns its index.
func appendNode(slab *[]pathNode, as, next int32) int32 {
	r := len(*slab)
	if r >= maxSlab {
		panic(fmt.Sprintf("bgpsim: path slab exceeds %d nodes", maxSlab))
	}
	*slab = append(*slab, pathNode{as: as, next: next})
	return int32(r)
}

// chainContains reports whether AS index as appears anywhere in chain r.
func chainContains(nodes []pathNode, r, as int32) bool {
	for ; r != nilRef; r = nodes[r].next {
		if nodes[r].as == as {
			return true
		}
	}
	return false
}

// chainEqual reports whether chains a and b of one slab hold the same hops.
func chainEqual(nodes []pathNode, a, b int32) bool {
	for a != nilRef && b != nilRef {
		if a == b {
			return true // shared suffix: identical by construction
		}
		if nodes[a].as != nodes[b].as {
			return false
		}
		a, b = nodes[a].next, nodes[b].next
	}
	return a == b
}

// entry is one dense routing-table cell: the selected route of one AS for
// one prefix, in 8 pointer-free bytes. head == nilRef means no route;
// otherwise head is the slab index of the full path (self first, origin
// last), and meta packs the path length and the learned relationship as
// plen<<2 | learned.
type entry struct {
	head int32
	meta int32
}

func mkEntry(head, plen int32, learned Relationship) entry {
	return entry{head: head, meta: plen<<2 | int32(learned)}
}

func (en entry) plen() int32 { return en.meta >> 2 }

func (en entry) learned() Relationship { return Relationship(en.meta & 3) }

// neighborEdge is one precompiled adjacency edge from the perspective of the
// owning AS. back and sendAll mirror the reverse edge's rel and receiveAll,
// so a round can push an AS's change to a neighbor without looking up the
// neighbor's own edge list.
type neighborEdge struct {
	idx  int32        // dense index of the neighbor
	rel  Relationship // how the owning AS marks routes learned from this neighbor
	back Relationship // how the neighbor marks routes learned from the owning AS
	// receiveAll: the neighbor exports everything to us — either we are its
	// customer, or it is flagged as a leaker. Otherwise valley-free export
	// applies (origin/customer routes only).
	receiveAll bool
	// sendAll: we export everything to the neighbor — it is our customer,
	// or we leak.
	sendAll bool
}

// engine is the compiled form of a Topology. ConvergeCtx discards it with
// the run; ConvergeStateCtx keeps it alive (together with the safety
// statistics below) so Apply can patch the compiled form in place and
// re-converge only the blast radius of a delta.
type engine struct {
	// rt is the tables the engine converges. They own the one interning of
	// ASNs and prefixes to dense indices that the engine reads.
	rt        *RoutingTables
	nbr       [][]neighborEdge // per AS, sorted by neighbor index ascending
	origins   [][]int32        // per prefix, origin AS indices ascending (deduped)
	maxRounds int

	// Safety statistics for incremental re-convergence (see incremental.go):
	// when the effective provider→customer digraph is acyclic and at most one
	// AS violates valley-free export, Gao–Rexford guarantees a unique stable
	// state, so a frontier-seeded fixpoint from the old tables lands on the
	// same state a cold run would. Outside that regime Apply falls back to
	// cold per-column recomputation.
	c2pAcyclic bool
	leaky      []bool // per AS: violates valley-free export somewhere
	nLeaky     int

	// leaf marks the ASes cold convergence settles after its rounds (see
	// isLeaf and settleLeaves).
	leaf []bool
}

// compileEdges builds the sorted adjacency of n. Neighbor relationship
// resolution matches Neighbors(): when an ASN is recorded under several link
// sets, customer overrides provider and peer overrides both.
func compileEdges(t *Topology, idx map[ASN]int32, n ASN) []neighborEdge {
	a := t.ases[n]
	rels := t.Neighbors(n)
	edges := make([]neighborEdge, 0, len(rels))
	for nb, rel := range rels {
		other := t.ases[nb]
		edges = append(edges, neighborEdge{
			idx:        idx[nb],
			rel:        rel,
			back:       relTo(other, n),
			receiveAll: other.customers[n] || other.leaker,
			sendAll:    a.customers[nb] || a.leaker,
		})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].idx < edges[b].idx })
	return edges
}

// relTo is how a marks routes learned from its neighbor nb, resolved as in
// Neighbors: peer overrides customer, which overrides provider.
func relTo(a *as, nb ASN) Relationship {
	switch {
	case a.peers[nb]:
		return FromPeer
	case a.customers[nb]:
		return FromCustomer
	}
	return FromProvider
}

// leakyExporter reports whether a violates valley-free export toward some
// neighbor: a flagged leaker re-exports everything, and a customer edge
// overridden to peer still feeds the raw customer map into receiveAll while
// the effective relationship is lateral — the same kind of violation.
func leakyExporter(a *as) bool {
	if a.leaker {
		return true
	}
	for c := range a.customers {
		if a.peers[c] {
			return true
		}
	}
	return false
}

// isLeaf reports whether a is a leaf: it has no customers and does not leak,
// so it exports everything to no neighbor and never learns a route from a
// customer. Its entry for a prefix it does not originate is provider- or
// peer-learned and hidden from every neighbor: no selection reads it and no
// path but its own contains it.
func isLeaf(a *as) bool {
	return len(a.customers) == 0 && !a.leaker
}

// computeC2PAcyclic reports whether the effective provider→customer digraph
// (post relationship-override resolution) is acyclic — the Gao–Rexford
// precondition for a unique routing fixpoint. Kahn's algorithm over the
// compiled adjacency.
func (e *engine) computeC2PAcyclic() bool {
	n := len(e.nbr)
	indeg := make([]int32, n)
	for i := range e.nbr {
		for _, ed := range e.nbr[i] {
			if ed.rel == FromCustomer {
				indeg[ed.idx]++
			}
		}
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, ed := range e.nbr[i] {
			if ed.rel == FromCustomer {
				if indeg[ed.idx]--; indeg[ed.idx] == 0 {
					queue = append(queue, ed.idx)
				}
			}
		}
	}
	return done == n
}

// compile interns the topology into zeroed routing tables and compiles the
// engine that converges them.
func (t *Topology) compile() (*engine, error) {
	asns := t.ASNs()
	var prefixes []string
	for _, n := range asns {
		prefixes = append(prefixes, t.ases[n].origins...)
	}
	slices.Sort(prefixes)
	rt, err := newRoutingTables(asns, slices.Compact(prefixes))
	if err != nil {
		return nil, err
	}

	e := &engine{rt: rt, maxRounds: 4*len(asns) + 16}
	e.nbr = make([][]neighborEdge, len(asns))
	e.leaky = make([]bool, len(asns))
	e.leaf = make([]bool, len(asns))
	for i, n := range asns {
		e.nbr[i] = compileEdges(t, rt.asIdx, n)
		e.leaf[i] = isLeaf(t.ases[n])
		if leakyExporter(t.ases[n]) {
			e.leaky[i] = true
			e.nLeaky++
		}
	}
	e.c2pAcyclic = e.computeC2PAcyclic()

	e.origins = make([][]int32, len(rt.prefixes))
	for i, n := range asns {
		for _, p := range t.ases[n].origins {
			pi := rt.pfxIdx[p]
			lst := e.origins[pi]
			// ASes are visited in ascending index order, so the list stays
			// sorted; the tail check drops duplicate originations.
			if len(lst) == 0 || lst[len(lst)-1] != int32(i) {
				e.origins[pi] = append(lst, int32(i))
			}
		}
	}
	return e, nil
}

// incrementalSafe reports whether frontier-seeded re-convergence from the
// current tables is guaranteed to reach the same fixpoint as a cold run:
// the classical Gao–Rexford uniqueness conditions — acyclic effective
// customer hierarchy and zero export violators. Even a single leaker
// admits multiple stable states (the leaked route and a loop-blocking
// alternative can each lock in the lexicographic tie at some AS depending
// on which arrived first), and then the state reached depends on the
// starting tables; property testing found exactly that divergence, so the
// bound is zero, not one.
func (e *engine) incrementalSafe() bool {
	return e.c2pAcyclic && e.nLeaky == 0
}

func (e *engine) originates(p int, i int32) bool {
	for _, o := range e.origins[p] {
		if o == i {
			return true
		}
		if o > i {
			return false
		}
	}
	return false
}

// colUpdate is a pending synchronous-round write: entry e lands at AS idx
// once the whole round has been evaluated against the previous round's
// column.
type colUpdate struct {
	idx int32
	e   entry
}

// Per-AS marks of a prefix fixpoint (convState.mark).
const (
	markQueued uint8 = 1 << iota // in this round's queue
	markRescan                   // queued, and its incumbent's next hop moved: full selectBest
	markMoved                    // its entry changed in the previous round
	markLoud                     // moved, and its old or new entry is exported to every neighbor
)

// convState is the reusable per-worker scratch of a prefix fixpoint. slab
// is the scratch column slab of cold convergence (see convergeRange).
type convState struct {
	mark []uint8 // per AS, the mark bits above
	// best holds, per queued AS that does not rescan, the best candidate
	// scored so far in candidate form (see selectBest).
	best []entry
	// changed lists the ASes moved in the previous round. Their moved marks
	// stay set until the next apply clears them, even across columns.
	changed []int32
	queue   []int32
	updates []colUpdate
	reach   int // net routed cells added by the column writes (see RoutingTables.reach)
	slab    []pathNode
}

func newConvState(nAS int) *convState {
	return &convState{mark: make([]uint8, nAS), best: make([]entry, nAS)}
}

// exportsToAll reports whether valley-free export sends en to every
// neighbor: origin- and customer-learned routes. An empty cell (meta 0)
// reads as provider-learned, so it does not.
func exportsToAll(en entry) bool {
	l := en.learned()
	return l == Origin || l == FromCustomer
}

// reachDelta is the change in routed cells when a cell goes from old to new.
func reachDelta(old, new entry) int {
	switch {
	case old.head == nilRef && new.head != nilRef:
		return 1
	case old.head != nilRef && new.head == nilRef:
		return -1
	}
	return 0
}

// apply writes the batched round st.updates into col, appending each
// overwritten cell to *log when log is non-nil, and makes the written ASes
// the moved set the next round reads. A moved AS is loud when its old or
// new entry is exported to every neighbor.
func (st *convState) apply(col []entry, log *[]undoCell) {
	for _, c := range st.changed {
		st.mark[c] &^= markMoved | markLoud
	}
	st.changed = st.changed[:0]
	for _, u := range st.updates {
		old := col[u.idx]
		if log != nil {
			*log = append(*log, undoCell{idx: u.idx, e: old})
		}
		col[u.idx] = u.e
		st.reach += reachDelta(old, u.e)
		m := markMoved
		if exportsToAll(old) || exportsToAll(u.e) {
			m |= markLoud
		}
		st.mark[u.idx] |= m
		st.changed = append(st.changed, u.idx)
	}
}

// convergePrefix runs the change-driven fixpoint for prefix p, writing the
// final column (one entry per AS, dense index order) into col and the path
// nodes it selects onto slab. col must be zeroed on entry. The rounds run
// over the transit core only; settleLeaves then gives every leaf its final
// entry. When the core is still changing at the round cap, the reference's
// leaves trail it by one round, so the leaves settle against the column the
// last round read, before its updates land.
func (e *engine) convergePrefix(p int, col []entry, slab *[]pathNode, st *convState) {
	// Round 0 of the reference engine sees only empty tables, so exactly the
	// origin ASes obtain a route.
	st.updates = st.updates[:0]
	for _, o := range e.origins[p] {
		st.updates = append(st.updates, colUpdate{idx: o, e: mkEntry(appendNode(slab, o, nilRef), 1, Origin)})
	}
	st.apply(col, nil)
	for round := 1; len(st.changed) > 0; round++ {
		e.round(p, col, slab, st, e.leaf)
		if round == e.maxRounds-1 {
			break // capped: this round's updates land after the leaves settle
		}
		st.apply(col, nil)
	}
	e.settleLeaves(col, slab, st)
	st.apply(col, nil) // the capped round's updates; empty after quiescence
}

// settleLeaves writes every leaf's selection over col in one pass. An origin
// leaf keeps its origin entry. Any other leaf is on no path, so its
// candidates need no loop check, and its entry is hidden from every
// neighbor, so the order of the pass cannot change what another leaf reads.
func (e *engine) settleLeaves(col []entry, slab *[]pathNode, st *convState) {
	for i, leaf := range e.leaf {
		if !leaf || col[i].learned() == Origin {
			continue
		}
		nodes := *slab
		var best entry
		for _, ed := range e.nbr[i] {
			if ne := col[ed.idx]; visible(ne, ed.receiveAll) {
				if cand := mkEntry(ne.head, ne.plen()+1, ed.rel); best.meta == 0 || candBetter(nodes, cand, best) {
					best = cand
				}
			}
		}
		if ne, changed := settle(int32(i), col[i], best, slab); changed {
			st.reach += reachDelta(col[i], ne)
			col[i] = ne
		}
	}
}

// round evaluates one synchronous round of prefix p against the column the
// previous round left, batching the changed entries in st.updates. It
// queues only the neighbors that can see a moved AS's old or new entry
// (rule 1), and a queued AS whose incumbent's next hop did not move keeps
// its incumbent and scores only the moved neighbors (rule 2); the rest
// rescan every neighbor. A neighbor marked in skip is never queued (cold
// convergence passes the leaves; nil queues every neighbor). The queue
// order is a deterministic function of the moved set, and evaluation order
// cannot affect the outcome because all reads hit the previous round's
// column.
func (e *engine) round(p int, col []entry, slab *[]pathNode, st *convState, skip []bool) {
	nodes := *slab
	st.queue = st.queue[:0]
	for _, c := range st.changed {
		ce := col[c]
		loud := st.mark[c]&markLoud != 0
		for _, ed := range e.nbr[c] {
			if !loud && !ed.sendAll {
				continue // c's old and new entries are both hidden from this neighbor
			}
			j := ed.idx
			if skip != nil && skip[j] {
				continue
			}
			if st.mark[j]&markQueued == 0 {
				st.queue = append(st.queue, j)
				st.mark[j] |= markQueued
				st.best[j] = entry{}
				if inc := col[j]; inc.head != nilRef {
					tail := nodes[inc.head].next
					if tail != nilRef && st.mark[nodes[tail].as]&markMoved != 0 {
						st.mark[j] |= markRescan
					} else {
						st.best[j] = entry{head: tail, meta: inc.meta}
					}
				}
			}
			if st.mark[j]&markRescan == 0 && visible(ce, ed.sendAll) {
				st.best[j] = offer(nodes, j, ce, ed.back, st.best[j])
			}
		}
	}
	st.updates = st.updates[:0]
	for _, j := range st.queue {
		var ne entry
		var changed bool
		if st.mark[j]&markRescan != 0 {
			ne, changed = e.selectBest(j, p, col, slab)
		} else {
			ne, changed = settle(j, col[j], st.best[j], slab)
		}
		st.mark[j] &^= markQueued | markRescan
		if changed {
			st.updates = append(st.updates, colUpdate{idx: j, e: ne})
		}
	}
}

// undoCell records one overwritten table cell so Converged.Revert can
// restore the exact pre-Apply bytes without re-converging.
type undoCell struct {
	idx int32
	e   entry
}

// reconvergeColumn continues the synchronous fixpoint for prefix p from the
// current column state, evaluating exactly the seed ASes in the first round
// (the frontier whose inputs the delta changed) with full rescans and then
// running the usual change-driven rounds. Every overwritten cell's previous
// value is appended to *log, oldest first. Returns false when the round cap
// was hit before quiescence — the caller must then recompute the column
// cold, which keeps malformed (non-converging) topologies bit-identical to
// the cold oracle.
func (e *engine) reconvergeColumn(p int, col []entry, slab *[]pathNode, st *convState, seeds []int32, log *[]undoCell) bool {
	st.updates = st.updates[:0]
	for _, i := range seeds {
		if ne, changed := e.selectBest(i, p, col, slab); changed {
			st.updates = append(st.updates, colUpdate{idx: i, e: ne})
		}
	}
	for round := 1; round < e.maxRounds; round++ {
		if len(st.updates) == 0 {
			return true
		}
		st.apply(col, log)
		e.round(p, col, slab, st, nil)
	}
	return len(st.updates) == 0
}

// coldColumn recomputes column p from scratch, first logging every cell —
// empty ones included, since the recompute may fill them and the caller's
// undo log must restore the exact pre-Apply state — and zeroing the column.
// Used when incremental re-convergence is not trusted (unsafe topology
// before or after the delta) or gave up (round cap). The new nodes append to
// slab: the logged cells still reference the old ones.
func (e *engine) coldColumn(p int, col []entry, slab *[]pathNode, st *convState, log *[]undoCell) {
	for i := range col {
		*log = append(*log, undoCell{idx: int32(i), e: col[i]})
		st.reach += reachDelta(col[i], entry{})
		col[i] = entry{}
	}
	e.convergePrefix(p, col, slab, st)
}

// selectBest recomputes AS i's selection for prefix p from the current
// column by scanning every neighbor, and reports whether it differs from the
// incumbent entry. The best candidate is held in candidate form: an entry
// whose head is the tail the full path conses self onto (nilRef for the
// origin candidate) and whose meta is the full path's, with meta 0 meaning
// no candidate.
func (e *engine) selectBest(i int32, p int, col []entry, slab *[]pathNode) (entry, bool) {
	nodes := *slab
	var best entry
	if e.originates(p, i) {
		best = mkEntry(nilRef, 1, Origin)
	}
	for _, ed := range e.nbr[i] {
		if ne := col[ed.idx]; visible(ne, ed.receiveAll) {
			best = offer(nodes, i, ne, ed.rel, best)
		}
	}
	return settle(i, col[i], best, slab)
}

// visible reports whether a neighbor's entry ne reaches us: it holds a
// route, and the neighbor exports everything to us (all: we are its
// customer or it leaks) or ne is origin- or customer-learned (valley-free).
func visible(ne entry, all bool) bool {
	return ne.head != nilRef && (all || exportsToAll(ne))
}

// offer returns the better of candidate best and the route AS i would learn
// from a neighbor holding the visible entry ne over an edge that i marks
// rel. A path that already contains i is rejected (loop prevention); the
// walk is paid only by a candidate that would win.
func offer(nodes []pathNode, i int32, ne entry, rel Relationship, best entry) entry {
	cand := mkEntry(ne.head, ne.plen()+1, rel)
	if best.meta != 0 && !candBetter(nodes, cand, best) || chainContains(nodes, ne.head, i) {
		return best
	}
	return cand
}

// settle turns AS i's best candidate into its table entry and reports
// whether that differs from the incumbent old. A node is appended to slab
// only when the selection actually changed.
func settle(i int32, old, best entry, slab *[]pathNode) (entry, bool) {
	if best.meta == 0 {
		return entry{}, old.head != nilRef
	}
	nodes := *slab
	if old.head != nilRef && old.meta == best.meta && chainEqual(nodes, nodes[old.head].next, best.head) {
		return old, false
	}
	return entry{head: appendNode(slab, i, best.head), meta: best.meta}, true
}

// candBetter reports whether candidate a should replace candidate b under
// the standard decision order — higher local pref, then shorter path, then
// lexicographically smaller path — mirroring better() in reference_test.go.
// Both paths start with the same AS (self), so only the tails are compared.
// Candidates from distinct neighbors never tie: their tails start with
// different ASes.
func candBetter(nodes []pathNode, a, b entry) bool {
	if a.learned() != b.learned() {
		return a.learned() > b.learned()
	}
	if a.plen() != b.plen() {
		return a.plen() < b.plen()
	}
	for aTail, bTail := a.head, b.head; aTail != nilRef && bTail != nilRef; {
		x, y := nodes[aTail], nodes[bTail]
		if x.as != y.as {
			return x.as < y.as
		}
		aTail, bTail = x.next, y.next
	}
	return false
}

// ConvergeCtx computes the Gao–Rexford routing fixpoint and returns the
// resulting tables. Each (logical) round, an AS recomputes its best route
// per prefix from its neighbors' previous-round selections — synchronous
// Bellman–Ford over policies — but only ASes whose neighborhood actually
// changed are re-evaluated, and prefixes converge independently over flat
// interned tables (see the package comment of engine.go). The result is
// bit-identical to the original whole-topology loop, which survives in the
// tests as convergeReference.
//
// Valley-free export: a neighbor's route is a candidate only if that
// neighbor originated it or learned it from a customer, unless we are the
// neighbor's customer (customers receive everything).
//
// Gao–Rexford guarantees convergence when the provider–customer graph is
// acyclic; a safety cap of 4·|AS|+16 rounds guards malformed topologies.
//
// The independent per-prefix fixpoints fan out across at most workers
// goroutines (workers <= 0 means GOMAXPROCS; 1 runs serially on the calling
// goroutine). Every prefix's column is self-contained and lands at its own
// table offset, so the result is bit-identical for every worker count. Many
// workers suit one large topology on an otherwise idle machine; when many
// scenarios already run in parallel (the sweep entry points), workers 1 per
// scenario avoids oversubscription. ctx is checked between prefix columns:
// on cancellation the partial tables are discarded and ctx.Err() returned.
func (t *Topology) ConvergeCtx(ctx context.Context, workers int) (*RoutingTables, error) {
	c, err := t.ConvergeStateCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	return c.Tables(), nil
}

// serialWorkFloor is the table-cell count (columns × ASes) below which the
// fork-join machinery costs more than it saves and fanOut runs the columns
// serially on the calling goroutine regardless of the worker knob.
const serialWorkFloor = 1 << 15

// fanOut runs do over n independent columns, each call on a contiguous range
// [lo, hi) with a convState from c.states, and returns the net routed cells
// the calls added. Below serialWorkFloor cells, or with one effective worker,
// it runs one call on the calling goroutine; otherwise it splits the columns
// into coarse chunks, about four per worker, so each task amortizes its
// dispatch and scratch checkout over many columns, and runs them on at most
// c.workers goroutines. Cold convergence and Apply both fan out here.
func (c *Converged) fanOut(ctx context.Context, n int, do func(lo, hi int, st *convState) error) (int, error) {
	run := func(lo, hi int) (int, error) {
		st := c.states.Get().(*convState)
		defer c.states.Put(st)
		st.reach = 0
		err := do(lo, hi, st)
		return st.reach, err
	}
	w := parallel.Workers(c.workers, n)
	if w == 1 || len(c.e.rt.asns)*n < serialWorkFloor {
		return run(0, n)
	}
	chunk := (n + 4*w - 1) / (4 * w)
	reach := make([]int, (n+chunk-1)/chunk) // each task writes only its own index
	err := parallel.ForEach(ctx, len(reach), w, func(ci int) error {
		var err error
		reach[ci], err = run(ci*chunk, min((ci+1)*chunk, n))
		return err
	})
	total := 0
	for _, r := range reach {
		total += r
	}
	return total, err
}

// slabChunk caps, in nodes, the shared allocation convergeRange packs
// column slabs into.
const slabChunk = 1 << 16

// convergeRange cold-converges columns [lo, hi) of the engine's tables. ctx
// is checked between columns; on cancellation the tables are left partially
// converged and ctx.Err() is returned, and the caller discards them. Each
// column is built in the scratch slab and then copied into a shared buffer
// as a three-index slice of it, so a later Apply appending to one column
// reallocates that column instead of overwriting its neighbor. A buffer is
// sized for one node per cell of the remaining columns (a hierarchy selects
// each route exactly once), capped at slabChunk nodes, so a small topology
// costs one slab allocation in total.
func (e *engine) convergeRange(ctx context.Context, lo, hi int, st *convState) error {
	rt := e.rt
	nAS := len(rt.asns)
	var buf []pathNode
	for p := lo; p < hi; p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.slab = append(st.slab[:0], pathNode{})
		e.convergePrefix(p, rt.entries[p*nAS:(p+1)*nAS], &st.slab, st)
		n := len(st.slab)
		if cap(buf)-len(buf) < n {
			buf = make([]pathNode, 0, max(n, min(slabChunk, (hi-p)*(nAS+1))))
		}
		start := len(buf)
		buf = append(buf, st.slab...)
		rt.slabs[p] = buf[start:len(buf):len(buf)]
	}
	return nil
}

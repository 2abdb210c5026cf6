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
//     slice of (neighbor index, learned relationship, exports-all) edges
//     replaces the per-AS-per-round map iteration + sort. The slice is
//     core-first: the edges to non-leaf neighbors, then the edges to leaves
//     (see rule 3), each segment ascending by index, with the split kept per
//     AS (engine.ncore), so a cold round walks only the first segment.
//   - AS paths are immutable cons cells in a per-column slab. A candidate
//     path is the routing AS consed onto the neighbor's current path head —
//     O(1), no slice copy — and comparisons (lexicographic tie-break, loop
//     check, change detection) walk the cells. Because cells are snapshots,
//     mid-convergence comparisons see exactly the paths the reference engine
//     would materialize. A table cell is one int32 and a path node three
//     (hop, rest of the path, and the length of the chain it heads), so the
//     garbage collector never traces the tables. A cell packs the learned
//     relationship into its two low bits above a slab ref; the path length
//     belongs to the chain, so it lives in the node. A leaf's non-origin
//     cell is bare: it holds its next hop's chain head, negated, and has no
//     node of its own, since by rule 3 no chain ever contains that node;
//     readers take a cell's tail through tail. On the 10k-AS shape 84% of
//     the routed cells are leaves'. Bare cells cut a cold convergence from
//     90.6 to 51.0 MB allocated, and 4-byte cells from 51.0 to 33.3 MB
//     (BENCH_bgpsim.json). Apply clothes an AS that stops being a leaf
//     before its cells become visible (see clothe in incremental.go).
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
//     leaving leaves out of the rounds (a cold round walks only the core
//     segment of a moved AS's edges and never meets a leaf) leaves the
//     core's trajectory unchanged, each non-origin leaf's final entry is its
//     selection over the final column, found without a loop check and
//     written into a cell still empty, and an origin leaf keeps its round-0
//     entry. When the core is still changing at the round cap, the
//     reference's leaves trail it by one round, so the leaves settle against
//     the column the last round read, before its updates land. On the 10k-AS
//     shape 84% of the cells are leaves', and serial cold convergence fell
//     from 452 to 249 ms on 2 vCPUs of an Intel Xeon (BENCH_bgpsim.json).
//     The same argument makes a non-origin leaf's cell bare (see settle).
//     Apply keeps leaves in its rounds, walking both segments: Patch.Cells
//     counts every overwritten cell, and the timeline tables print that
//     count. Apply and Revert keep the split current in place as leaf
//     status flips (see moveAcross in incremental.go).
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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
)

// pathNode is one hop of an AS path stored as an immutable cons cell in a
// column's slab: as is the dense index of the hop's AS, next the slab index
// of the rest of the path, with the origin AS last (next == nilRef), and
// plen the number of hops of the chain the node heads. Nodes are shared
// between the adopting AS and its neighbor's route, and never mutated once
// appended.
type pathNode struct {
	as, next, plen int32
}

// nilRef is the slab index that ends a chain. Slot 0 of every slab is a
// reserved placeholder of length 0, so no real node ever has index 0.
const nilRef = 0

// Bounds of the packed layout: a cell packs a slab index above two
// relationship bits of an int32, and dense AS indices are int32.
const (
	maxSlab = math.MaxInt32 >> 2
	maxASes = math.MaxInt32
)

// appendNode appends the hop (as, next) to the slab and returns its index.
// The new chain is one hop longer than next's.
func appendNode(slab *[]pathNode, as, next int32) int32 {
	r := len(*slab)
	if r >= maxSlab {
		panic(fmt.Sprintf("bgpsim: path slab exceeds %d nodes", maxSlab))
	}
	*slab = append(*slab, pathNode{as: as, next: next, plen: (*slab)[next].plen + 1})
	return int32(r)
}

// tail returns the slab index of the path a routed cell's AS conses itself
// onto: the next hop's chain head, or nilRef for an origin entry. A bare cell
// (en < 0, see entry) stores it negated and has no node of its own.
func tail(nodes []pathNode, en entry) int32 {
	if en < 0 {
		return int32(-en >> 2)
	}
	return nodes[en>>2].next
}

// pathLen returns the number of hops of a routed cell's path, the AS itself
// included.
func pathLen(nodes []pathNode, en entry) int32 {
	if en < 0 {
		return nodes[-en>>2].plen + 1
	}
	return nodes[en>>2].plen
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
// one prefix, in one pointer-free int32. 0 means no route. A positive cell
// is ref<<2 | learned, where ref is the slab index of the full path (self
// first, origin last). A negative cell is bare, -(tail<<2 | learned): its
// path is the AS itself followed by the chain at tail (see settle), and a
// stray nodes[en>>2] read of it panics on the negative index.
//
// The scratch candidate form of a selection (convState.best, selectBest,
// settleLeaves) is the same packing of the tail the full path conses self
// onto, tail<<2 | learned, with 0 meaning no candidate: an origin
// candidate's tail is nilRef, and its Origin bits keep it non-zero. A bare
// cell is its winning candidate negated.
type entry int32

// pack returns the non-negative packing ref<<2 | learned.
func pack(ref int32, learned Relationship) entry {
	return entry(ref<<2 | int32(learned))
}

// learned returns the relationship a cell or candidate was learned over.
func (en entry) learned() Relationship {
	if en < 0 {
		en = -en
	}
	return Relationship(en & 3)
}

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
	rt *RoutingTables
	// nbr holds per AS its edges to non-leaf neighbors, then its edges to
	// leaves, each segment sorted by neighbor index ascending; ncore is the
	// length of the first segment, the AS's core edges.
	nbr       [][]neighborEdge
	ncore     []int32
	origins   [][]int32 // per prefix, origin AS indices ascending (deduped)
	maxRounds int

	// Safety statistics for incremental re-convergence (see incremental.go):
	// when the effective provider→customer digraph is acyclic and no AS
	// violates valley-free export, Gao–Rexford guarantees a unique stable
	// state, so a frontier-seeded fixpoint from the old tables lands on the
	// same state a cold run would (see incrementalSafe: one leaking AS can
	// already admit two stable states). Outside that regime Apply falls back
	// to cold per-column recomputation.
	c2pAcyclic bool
	leaky      []bool // per AS: violates valley-free export somewhere
	nLeaky     int

	// leaf marks the ASes cold convergence settles after its rounds (see
	// isLeaf and settleLeaves); it decides which segment of nbr an edge to
	// the AS lies in.
	leaf []bool
}

// fillEdges compiles AS i's adjacency (a is its record) into e.nbr[i], which
// has one slot per link, core-first (see nbr), and sets e.ncore[i]; the leaf
// flag of every neighbor must be current. The links are sorted by ASN, which
// is dense index order, so core edges fill the slots forward and leaf edges
// backward from the end, and the leaf segment is then reversed. Every
// relationship is stored on both ends, so each edge comes from a's own bits:
// the neighbor's view of the edge is those bits mirrored. leaker reports
// whether the AS at a dense index leaks.
func (e *engine) fillEdges(i int32, a *as, leaker func(int32) bool) {
	edges, idx, leaf := e.nbr[i], e.rt.asIdx, e.leaf
	lo, hi := 0, len(edges)
	for _, l := range a.links {
		j := idx[l.asn]
		ed := neighborEdge{
			idx:        j,
			rel:        rel(l.bits),
			back:       rel(mirror(l.bits)),
			receiveAll: l.bits&linkProvider != 0 || leaker(j),
			sendAll:    l.bits&linkCustomer != 0 || a.leaker,
		}
		if leaf[j] {
			hi--
			edges[hi] = ed
		} else {
			edges[lo] = ed
			lo++
		}
	}
	slices.Reverse(edges[lo:])
	e.ncore[i] = int32(lo)
}

// findEdge binary-searches one segment of an adjacency (see nbr) for
// neighbor j: the position it holds or would take, and whether it is there.
func findEdge(seg []neighborEdge, j int32) (int, bool) {
	return slices.BinarySearchFunc(seg, j, func(ed neighborEdge, j int32) int { return cmp.Compare(ed.idx, j) })
}

// leakyExporter reports whether a violates valley-free export toward some
// neighbor: a flagged leaker re-exports everything, and a customer edge
// overridden to peer still feeds the customer bit into receiveAll while the
// effective relationship is lateral — the same kind of violation.
func leakyExporter(a *as) bool {
	return a.leaker || a.anyLink(linkCustomer|linkPeer)
}

// isLeaf reports whether a is a leaf: it has no customers and does not leak,
// so it exports everything to no neighbor and never learns a route from a
// customer. Its entry for a prefix it does not originate is provider- or
// peer-learned and hidden from every neighbor: no selection reads it and no
// path but its own contains it.
func isLeaf(a *as) bool {
	return !a.leaker && !a.anyLink(linkCustomer)
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
	ases := make([]*as, len(asns))
	leaker := make([]bool, len(asns))
	nLinks := 0
	var prefixes []string
	for i, n := range asns {
		a := t.ases[n]
		ases[i], leaker[i] = a, a.leaker
		nLinks += len(a.links)
		prefixes = append(prefixes, a.origins...)
	}
	nOrigins := len(prefixes)
	slices.Sort(prefixes)
	rt, err := newRoutingTables(asns, slices.Compact(prefixes))
	if err != nil {
		return nil, err
	}

	e := &engine{rt: rt, maxRounds: 4*len(asns) + 16}
	// One backing array each for the edges and the origin lists; capping
	// every AS's and prefix's share makes a later append reallocate rather
	// than run into its successor.
	edges := make([]neighborEdge, nLinks)
	isLeaker := func(j int32) bool { return leaker[j] }
	e.nbr = make([][]neighborEdge, len(asns))
	e.ncore = make([]int32, len(asns))
	e.leaky = make([]bool, len(asns))
	e.leaf = make([]bool, len(asns))
	for i, a := range ases {
		e.leaf[i] = isLeaf(a)
	}
	for i, a := range ases {
		e.nbr[i], edges = edges[:len(a.links):len(a.links)], edges[len(a.links):]
		e.fillEdges(int32(i), a, isLeaker)
		if leakyExporter(a) {
			e.leaky[i] = true
			e.nLeaky++
		}
	}
	e.c2pAcyclic = e.computeC2PAcyclic()

	counts := make([]int, len(rt.prefixes))
	for _, a := range ases {
		for _, p := range a.origins {
			counts[rt.pfxIdx[p]]++
		}
	}
	flat := make([]int32, 0, nOrigins)
	e.origins = make([][]int32, len(rt.prefixes))
	for pi, c := range counts {
		e.origins[pi], flat = flat[:0:c], flat[c:c]
	}
	for i, a := range ases {
		for _, p := range a.origins {
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
	// scored so far in candidate form (see entry).
	best []entry
	// changed lists the ASes moved in the previous round. Their moved marks
	// stay set until the next apply clears them, even across columns.
	changed []int32
	queue   []int32
	updates []colUpdate
	reach   int // net routed cells added by the column writes (see RoutingTables.reach)
	slab    []pathNode
	// log and cols are an Apply chunk's undo scratch: the overwritten cells
	// and the records of the columns that wrote, copied out exact-size into
	// the chunk's patchPart (see Converged.reconverge).
	log  []undoCell
	cols []patchCol
}

func newConvState(nAS int) *convState {
	return &convState{mark: make([]uint8, nAS), best: make([]entry, nAS)}
}

// exportsToAll reports whether valley-free export sends en to every
// neighbor: origin- and customer-learned routes. An empty cell (0) reads as
// provider-learned, so it does not.
func exportsToAll(en entry) bool {
	l := en.learned()
	return l == Origin || l == FromCustomer
}

// reachDelta is the change in routed cells when a cell goes from old to new.
func reachDelta(old, new entry) int {
	switch {
	case old == 0 && new != 0:
		return 1
	case old != 0 && new == 0:
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
		st.updates = append(st.updates, colUpdate{idx: o, e: pack(appendNode(slab, o, nilRef), Origin)})
	}
	st.apply(col, nil)
	for round := 1; len(st.changed) > 0; round++ {
		e.round(p, col, slab, st, true)
		if round == e.maxRounds-1 {
			break // capped: this round's updates land after the leaves settle
		}
		st.apply(col, nil)
	}
	e.settleLeaves(col, *slab, st)
	st.apply(col, nil) // the capped round's updates; empty after quiescence
}

// settleLeaves writes every leaf's selection over col in one pass. An origin
// leaf keeps its origin entry. Any other leaf is on no path, so its
// candidates need no loop check, and its entry is hidden from every
// neighbor, so the order of the pass cannot change what another leaf reads.
// Every non-origin leaf's cell is still empty when the pass runs: the rounds
// never queue a leaf, and convergePrefix starts from a zeroed column (cold
// convergence allocates it, coldColumn zeroes it). So a selection is written
// straight in, bare (see settle), with no incumbent to compare against, and
// each routed leaf adds one routed cell.
func (e *engine) settleLeaves(col []entry, nodes []pathNode, st *convState) {
	for i, leaf := range e.leaf {
		if !leaf || col[i] != 0 {
			continue // a core AS, or an origin leaf holding its origin entry
		}
		var best entry
		for _, ed := range e.nbr[i] {
			if ne := col[ed.idx]; visible(ne, ed.receiveAll) {
				if cand := pack(int32(ne>>2), ed.rel); best == 0 || candBetter(nodes, cand, best) {
					best = cand
				}
			}
		}
		if best != 0 {
			col[i] = -best
			st.reach++
		}
	}
}

// round evaluates one synchronous round of prefix p against the column the
// previous round left, batching the changed entries in st.updates. It
// queues only the neighbors that can see a moved AS's old or new entry
// (rule 1), and a queued AS whose incumbent's next hop did not move keeps
// its incumbent and scores only the moved neighbors (rule 2); the rest
// rescan every neighbor. With core set (cold convergence) the round walks
// only each moved AS's core edges, so it never queues a leaf; Apply's
// rounds walk every edge. The queue order is a deterministic function of the moved set, and
// evaluation order cannot affect the outcome because all reads hit the
// previous round's column.
func (e *engine) round(p int, col []entry, slab *[]pathNode, st *convState, core bool) {
	nodes := *slab
	st.queue = st.queue[:0]
	for _, c := range st.changed {
		ce := col[c]
		loud := st.mark[c]&markLoud != 0
		edges := e.nbr[c]
		if core {
			edges = edges[:e.ncore[c]]
		}
		for _, ed := range edges {
			if !loud && !ed.sendAll {
				continue // c's old and new entries are both hidden from this neighbor
			}
			j := ed.idx
			if st.mark[j]&markQueued == 0 {
				st.queue = append(st.queue, j)
				st.mark[j] |= markQueued
				st.best[j] = 0
				if inc := col[j]; inc != 0 {
					t := tail(nodes, inc)
					if t != nilRef && st.mark[nodes[t].as]&markMoved != 0 {
						st.mark[j] |= markRescan
					} else {
						st.best[j] = pack(t, inc.learned())
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
			ne, changed = e.settle(j, col[j], st.best[j], slab)
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
		e.round(p, col, slab, st, false)
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
		st.reach += reachDelta(col[i], 0)
		col[i] = 0
	}
	e.convergePrefix(p, col, slab, st)
}

// selectBest recomputes AS i's selection for prefix p from the current
// column by scanning every neighbor, and reports whether it differs from the
// incumbent entry. The best candidate is held in candidate form (see entry).
func (e *engine) selectBest(i int32, p int, col []entry, slab *[]pathNode) (entry, bool) {
	nodes := *slab
	var best entry
	if e.originates(p, i) {
		best = pack(nilRef, Origin)
	}
	for _, ed := range e.nbr[i] {
		if ne := col[ed.idx]; visible(ne, ed.receiveAll) {
			best = offer(nodes, i, ne, ed.rel, best)
		}
	}
	return e.settle(i, col[i], best, slab)
}

// visible reports whether a neighbor's entry ne reaches us: it holds a
// route, and the neighbor exports everything to us (all: we are its
// customer or it leaks) or ne is origin- or customer-learned (valley-free).
func visible(ne entry, all bool) bool {
	return ne != 0 && (all || exportsToAll(ne))
}

// offer returns the better of candidate best and the route AS i would learn
// from a neighbor holding the visible entry ne over an edge that i marks
// rel. A visible entry is never bare, so ne>>2 is the neighbor's chain head.
// A path that already contains i is rejected (loop prevention); the walk is
// paid only by a candidate that would win.
func offer(nodes []pathNode, i int32, ne entry, rel Relationship, best entry) entry {
	head := int32(ne >> 2)
	cand := pack(head, rel)
	if best != 0 && !candBetter(nodes, cand, best) || chainContains(nodes, head, i) {
		return best
	}
	return cand
}

// settle turns AS i's best candidate into its table entry and reports
// whether that differs from the incumbent old. A node is appended to slab
// only when the selection actually changed, and never for a leaf's
// non-origin selection: that entry is hidden from every neighbor, so no
// chain ever contains its node (rule 3), and the cell is written bare,
// holding the negated candidate instead. Equal chains have equal lengths,
// so the change test compares the relationship and the hops.
func (e *engine) settle(i int32, old, best entry, slab *[]pathNode) (entry, bool) {
	if best == 0 {
		return 0, old != 0
	}
	nodes := *slab
	t := int32(best >> 2)
	if old != 0 && old.learned() == best.learned() && chainEqual(nodes, tail(nodes, old), t) {
		return old, false
	}
	if e.leaf[i] && t != nilRef {
		return -best, true
	}
	return pack(appendNode(slab, i, t), best.learned()), true
}

// candBetter reports whether candidate a should replace candidate b under
// the standard decision order — higher local pref, then shorter path, then
// lexicographically smaller path — mirroring better() in reference_test.go.
// Both paths start with the same AS (self), so only the tails are compared,
// their lengths first. Candidates are never negative, so their relationship
// is their two low bits. Candidates from distinct neighbors never tie: their
// tails start with different ASes.
func candBetter(nodes []pathNode, a, b entry) bool {
	if a&3 != b&3 {
		return a&3 > b&3
	}
	aTail, bTail := int32(a>>2), int32(b>>2)
	if la, lb := nodes[aTail].plen, nodes[bTail].plen; la != lb {
		return la < lb
	}
	for aTail != nilRef && bTail != nilRef {
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

// chunks returns the goroutine count fanOut runs n columns on and the
// length of its contiguous column chunks: one chunk of every column below
// serialWorkFloor cells or with one effective worker, else about four
// chunks per worker, so each task amortizes its dispatch and scratch
// checkout over many columns.
func (c *Converged) chunks(n int) (w, size int) {
	w = parallel.Workers(c.workers, n)
	if w == 1 || len(c.e.rt.asns)*n < serialWorkFloor {
		return 1, max(n, 1)
	}
	return w, (n + 4*w - 1) / (4 * w)
}

// fanOut runs do over n independent columns, one call per chunk of chunks(n)
// with the chunk's index ci, its range [lo, hi) and a convState from
// c.states, and returns the net routed cells the calls added. One chunk
// runs on the calling goroutine; more run on at most c.workers goroutines.
// Cold convergence and Apply both fan out here.
func (c *Converged) fanOut(ctx context.Context, n int, do func(ci, lo, hi int, st *convState) error) (int, error) {
	run := func(ci, lo, hi int) (int, error) {
		st := c.states.Get().(*convState)
		defer c.states.Put(st)
		st.reach = 0
		err := do(ci, lo, hi, st)
		return st.reach, err
	}
	w, size := c.chunks(n)
	if w == 1 {
		return run(0, 0, n)
	}
	reach := make([]int, (n+size-1)/size) // each task writes only its own index
	err := parallel.ForEach(ctx, len(reach), w, func(ci int) error {
		var err error
		reach[ci], err = run(ci, ci*size, min((ci+1)*size, n))
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
// sized for the nodes of the remaining columns: one per non-leaf cell (a
// hierarchy selects each route exactly once; leaf cells are bare), plus the
// nil slot and an origin leaf's node, capped at slabChunk nodes, so a small
// topology costs one slab allocation in total.
func (e *engine) convergeRange(ctx context.Context, lo, hi int, st *convState) error {
	rt := e.rt
	nAS := len(rt.asns)
	perCol := 2
	for _, leaf := range e.leaf {
		if !leaf {
			perCol++
		}
	}
	var buf []pathNode
	for p := lo; p < hi; p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.slab = append(st.slab[:0], pathNode{})
		e.convergePrefix(p, rt.entries[p*nAS:(p+1)*nAS], &st.slab, st)
		n := len(st.slab)
		if cap(buf)-len(buf) < n {
			buf = make([]pathNode, 0, max(n, min(slabChunk, (hi-p)*perCol)))
		}
		start := len(buf)
		buf = append(buf, st.slab...)
		rt.slabs[p] = buf[start:len(buf):len(buf)]
	}
	return nil
}

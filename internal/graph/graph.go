// Package graph implements the weighted graph algorithms that back both the
// coauthorship analyses in internal/biblio and the network topologies in
// internal/bgpsim and internal/cn: traversal, shortest paths, connected
// components, centrality measures, and community detection.
//
// Nodes are dense integer IDs in [0, N). Callers that work with external
// identifiers keep their own mapping; this keeps the algorithms allocation-
// light and cache-friendly.
package graph

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// Edge is a weighted connection between two nodes. In an undirected graph an
// edge is stored on both endpoints' adjacency lists.
type Edge struct {
	To     int
	Weight float64
}

// Graph is an adjacency-list graph. The zero value is an empty graph; use
// New to preallocate nodes. Directed controls whether AddEdge inserts the
// reverse arc as well.
type Graph struct {
	adj      [][]Edge
	directed bool
	edges    int
}

// New returns a graph with n nodes and no edges.
func New(n int, directed bool) *Graph {
	return &Graph{adj: make([][]Edge, n), directed: directed}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges (each undirected edge counted once).
func (g *Graph) M() int { return g.edges }

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge inserts an edge u→v with the given weight (and v→u when the graph
// is undirected). It returns an error for out-of-range endpoints, self loops,
// or non-positive weight.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	if u == v {
		return fmt.Errorf("graph: self loop at %d", u)
	}
	if w <= 0 {
		return fmt.Errorf("graph: non-positive weight %g on edge (%d,%d)", w, u, v)
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	if !g.directed {
		g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
	}
	g.edges++
	return nil
}

// HasEdge reports whether an edge u→v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice must not be
// modified: it is a zero-copy view into the graph, read in the inner loops
// of the cn scheduler and every traversal — copying here would allocate
// O(degree) per visit on the hottest paths in the repo.
func (g *Graph) Neighbors(u int) []Edge { //humnet:allow aliasret -- zero-copy read view on traversal hot paths; the no-modify contract is documented
	return g.adj[u]
}

// Degree returns the out-degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// bfsScratch is one task's reusable breadth-first-search state: hop
// distances (-1 = unvisited) and the visit order, which doubles as the queue
// and, read backwards, as Brandes' stack. Between searches every dist entry
// is -1 and order is empty, so a search costs O(reached + their arcs), not
// O(n).
type bfsScratch struct {
	dist  []int
	order []int
}

func newBFSScratch(n int) bfsScratch {
	s := bfsScratch{dist: make([]int, n), order: make([]int, 0, n)}
	for i := range s.dist {
		s.dist[i] = -1
	}
	return s
}

// run records the hop distance from src over adj to every node it reaches.
func (s *bfsScratch) run(adj [][]Edge, src int) {
	s.dist[src] = 0
	s.order = append(s.order, src)
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		for _, e := range adj[u] {
			if s.dist[e.To] == -1 {
				s.dist[e.To] = s.dist[u] + 1
				s.order = append(s.order, e.To)
			}
		}
	}
}

// reset restores the between-searches state.
func (s *bfsScratch) reset() {
	for _, v := range s.order {
		s.dist[v] = -1
	}
	s.order = s.order[:0]
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Dijkstra returns the weighted distance from src to every node
// (math.Inf(1) when unreachable) and the predecessor of each node on its
// shortest path (-1 for src and unreachable nodes).
func (g *Graph) Dijkstra(src int) (dist []float64, prev []int) {
	n := len(g.adj)
	dist = make([]float64, n)
	prev = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	if src < 0 || src >= n {
		return dist, prev
	}
	dist[src] = 0
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			nd := it.dist + e.Weight
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.node
				heap.Push(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	return dist, prev
}

// Path reconstructs the shortest path from src to dst given the prev array
// returned by Dijkstra. Returns nil when dst is unreachable.
func Path(prev []int, src, dst int) []int {
	if dst < 0 || dst >= len(prev) {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// undirectedView returns the adjacency with every arc stored at both
// endpoints: g.adj itself for an undirected graph, a fresh copy for a
// directed one (an arc u→v joins v's list as v→u, so u↔v arcs become
// parallel edges).
func (g *Graph) undirectedView() [][]Edge {
	if !g.directed {
		return g.adj
	}
	view := make([][]Edge, len(g.adj))
	for u, es := range g.adj {
		for _, e := range es {
			view[u] = append(view[u], e)
			view[e.To] = append(view[e.To], Edge{To: u, Weight: e.Weight})
		}
	}
	return view
}

// Components returns, for undirected graphs, the component label of each node
// and the number of components. For directed graphs it treats edges as
// undirected (weak components).
func (g *Graph) Components() (label []int, count int) {
	n := len(g.adj)
	label = make([]int, n)
	for i := range label {
		label[i] = -1
	}
	undirected := g.undirectedView()
	for s := 0; s < n; s++ {
		if label[s] != -1 {
			continue
		}
		label[s] = count
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range undirected[u] {
				if label[e.To] == -1 {
					label[e.To] = count
					queue = append(queue, e.To)
				}
			}
		}
		count++
	}
	return label, count
}

// GiantComponentSize returns the size of the largest (weak) component.
func (g *Graph) GiantComponentSize() int {
	label, count := g.Components()
	sizes := make([]int, count)
	for _, l := range label {
		sizes[l]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}

// ClosenessCentralityCtx returns, for each node, (reachable)/(n-1) *
// (reachable/sum-of-distances) — the Wasserman–Faust normalization that
// handles disconnected graphs. Hop distances are used (unweighted). The
// per-source BFS runs on at most workers goroutines (workers <= 0 means
// GOMAXPROCS, workers == 1 runs serially), each on reused scratch; each
// source writes only its own entry, so the output is bit-identical for every
// worker count. ctx is checked between per-source BFS tasks, so a cancelled
// caller stops paying for sources it no longer wants; the partial result is
// discarded and ctx.Err() returned.
func (g *Graph) ClosenessCentralityCtx(ctx context.Context, workers int) ([]float64, error) {
	n := len(g.adj)
	c := make([]float64, n)
	if n < 2 {
		return c, nil
	}
	pool := sync.Pool{New: func() any {
		s := newBFSScratch(n)
		return &s
	}}
	err := parallel.ForEach(ctx, n, workers, func(u int) error {
		s := pool.Get().(*bfsScratch)
		s.run(g.adj, u)
		sum, reach := 0, 0
		for _, v := range s.order[1:] {
			sum += s.dist[v]
			reach++
		}
		s.reset()
		pool.Put(s)
		if sum > 0 {
			r := float64(reach)
			c[u] = (r / float64(n-1)) * (r / float64(sum))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// brandesScratch is one task's reusable Brandes state: the BFS scratch plus
// shortest-path counts (zero between sources) and the dependency vector the
// source hands to the reducer.
type brandesScratch struct {
	bfsScratch
	sigma []float64
	delta []float64
}

// brandesFrom runs the single-source phase of Brandes' algorithm from s
// (shortest-path DAG construction plus dependency accumulation, Brandes
// 2001) and leaves each node's dependency in sc.delta. in lists each node's
// in-arcs: a DAG predecessor of w is an in-neighbour v with dist[v] =
// dist[w]-1, found by scanning in[w] instead of storing predecessor lists.
// Each delta[v] receives its contributions in reverse BFS order of w, the
// order predecessor lists give, so the result is the same bit for bit.
func (g *Graph) brandesFrom(s int, in [][]Edge, sc *brandesScratch) {
	dist, sigma, delta := sc.dist, sc.sigma, sc.delta
	clear(delta)
	sigma[s] = 1
	dist[s] = 0
	sc.order = append(sc.order, s)
	for head := 0; head < len(sc.order); head++ {
		v := sc.order[head]
		for _, e := range g.adj[v] {
			w := e.To
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				sc.order = append(sc.order, w)
			}
			if dist[w] == dist[v]+1 {
				sigma[w] += sigma[v]
			}
		}
	}
	for i := len(sc.order) - 1; i > 0; i-- {
		w := sc.order[i]
		for _, e := range in[w] {
			if v := e.To; dist[v] == dist[w]-1 {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
		}
	}
	for _, v := range sc.order {
		sigma[v] = 0
	}
	sc.reset()
}

// BetweennessCentralityCtx returns Brandes' betweenness centrality
// (unweighted). For undirected graphs the counts are halved per convention.
// The source nodes fan out across at most workers goroutines (workers <= 0
// means GOMAXPROCS, workers == 1 runs serially with no goroutines).
// Per-source dependency vectors are computed concurrently but merged into
// the result strictly in source order, so the floating-point accumulation
// order — and therefore the output, bit for bit — is identical for every
// worker count. Each source costs O(n+m) time on scratch that is reused
// across sources. ctx is checked between per-source Brandes phases; on
// cancellation the partial accumulation is discarded and ctx.Err() returned.
func (g *Graph) BetweennessCentralityCtx(ctx context.Context, workers int) ([]float64, error) {
	n := len(g.adj)
	cb := make([]float64, n)
	if n == 0 {
		return cb, nil
	}
	in := g.adj
	if g.directed {
		in = make([][]Edge, n)
		for u, es := range g.adj {
			for _, e := range es {
				in[e.To] = append(in[e.To], Edge{To: u, Weight: e.Weight})
			}
		}
	}
	pool := sync.Pool{New: func() any {
		return &brandesScratch{bfsScratch: newBFSScratch(n), sigma: make([]float64, n), delta: make([]float64, n)}
	}}
	err := parallel.ReduceOrdered(ctx, n, workers,
		func(s int) (*brandesScratch, error) {
			sc := pool.Get().(*brandesScratch)
			g.brandesFrom(s, in, sc)
			return sc, nil
		},
		func(s int, sc *brandesScratch) error {
			for w, d := range sc.delta {
				if w != s {
					cb[w] += d
				}
			}
			pool.Put(sc)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if !g.directed {
		for i := range cb {
			cb[i] /= 2
		}
	}
	return cb, nil
}

// PageRank returns the PageRank vector with the given damping factor,
// iterating until the L1 change is below tol or maxIter is reached. Dangling
// mass is redistributed uniformly.
func (g *Graph) PageRank(damping float64, maxIter int, tol float64) []float64 {
	n := len(g.adj)
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		base := (1 - damping) / float64(n)
		dangling := 0.0
		for i := range next {
			next[i] = base
		}
		for u := range g.adj {
			if len(g.adj[u]) == 0 {
				dangling += rank[u]
				continue
			}
			share := damping * rank[u] / float64(len(g.adj[u]))
			for _, e := range g.adj[u] {
				next[e.To] += share
			}
		}
		if dangling > 0 {
			spread := damping * dangling / float64(n)
			for i := range next {
				next[i] += spread
			}
		}
		diff := 0.0
		for i := range rank {
			diff += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if diff < tol {
			break
		}
	}
	return rank
}

// LabelPropagation partitions the graph into communities using synchronous-
// free asynchronous label propagation with a deterministic node order drawn
// from r. It returns a community label per node (labels are compacted to
// 0..k-1) and the community count.
func (g *Graph) LabelPropagation(r *rng.Rand, maxRounds int) (label []int, count int) {
	n := len(g.adj)
	label = make([]int, n)
	for i := range label {
		label[i] = i
	}
	order := r.Perm(n)
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, u := range order {
			if len(g.adj[u]) == 0 {
				continue
			}
			weight := make(map[int]float64)
			for _, e := range g.adj[u] {
				weight[label[e.To]] += e.Weight
			}
			// Deterministic tie-break: lowest label wins. Scanning the
			// candidate labels in ascending order with a strict comparison
			// selects the smallest max-weight label; seeding best with the
			// node's own label would instead let it defeat equal-weight
			// lower labels.
			keys := make([]int, 0, len(weight))
			for k := range weight {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			best, bestW := -1, math.Inf(-1)
			for _, k := range keys {
				if weight[k] > bestW {
					best, bestW = k, weight[k]
				}
			}
			if best != label[u] {
				label[u] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Compact labels.
	remap := make(map[int]int)
	for i, l := range label {
		c, ok := remap[l]
		if !ok {
			c = len(remap)
			remap[l] = c
		}
		label[i] = c
	}
	return label, len(remap)
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman 2002). NaN when degenerate.
func (g *Graph) DegreeAssortativity() float64 {
	var xs, ys []float64
	for u := range g.adj {
		for _, e := range g.adj[u] {
			xs = append(xs, float64(len(g.adj[u])))
			ys = append(ys, float64(len(g.adj[e.To])))
		}
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	mx := mean(xs)
	my := mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// KCore returns each node's core number: the largest k such that the node
// belongs to a subgraph where every member has degree >= k. A directed graph
// is read as undirected (undirectedView), and parallel edges each count
// toward degree. Core numbers identify the densely collaborating center of a
// coauthorship network — who is structurally "in the room". It peels with
// Batagelj and Zaversnik's bucket algorithm (2003) in O(n+m): nodes sit in
// an array sorted by current degree, and a neighbour's decrement moves it
// to the front of its bucket in O(1).
func (g *Graph) KCore() []int {
	adj := g.undirectedView()
	n := len(adj)
	deg := make([]int, n)
	maxDeg := 0
	for u, es := range adj {
		deg[u] = len(es)
		maxDeg = max(maxDeg, deg[u])
	}
	// bin[d] is where the degree-d bucket starts in vert; pos inverts vert.
	bin := make([]int, maxDeg+1)
	for _, d := range deg {
		bin[d]++
	}
	for d, start := 0, 0; d <= maxDeg; d++ {
		bin[d], start = start, start+bin[d]
	}
	vert := make([]int, n)
	pos := make([]int, n)
	for u, d := range deg {
		pos[u] = bin[d]
		vert[pos[u]] = u
		bin[d]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	// Peel in nondecreasing degree order; deg[v] is final when v is peeled.
	// A decrement only swaps nodes at positions past i (not yet peeled).
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, e := range adj[v] {
			u := e.To
			if deg[u] <= deg[v] {
				continue
			}
			du, pu := deg[u], pos[u]
			pw := bin[du]
			if w := vert[pw]; w != u {
				pos[u], pos[w] = pw, pu
				vert[pu], vert[pw] = w, u
			}
			bin[du]++
			deg[u]--
		}
	}
	return deg
}

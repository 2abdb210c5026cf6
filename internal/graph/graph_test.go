package graph

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/proptest"
	"repro/internal/rng"
)

// line builds the path graph 0-1-2-...-n-1.
func line(n int) *Graph {
	g := New(n, false)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			panic(err)
		}
	}
	return g
}

// star builds a star with center 0 and n-1 leaves.
func star(n int) *Graph {
	g := New(n, false)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(0, i, 1); err != nil {
			panic(err)
		}
	}
	return g
}

// hops runs the breadth-first search the closeness centrality uses from src
// and returns a copy of its hop distances (-1 when unreachable).
func hops(g *Graph, src int) []int {
	s := newBFSScratch(g.N())
	s.run(g.adj, src)
	return append([]int(nil), s.dist...)
}

// degeneracy is the graph's maximum core number, 0 for an empty graph.
func degeneracy(g *Graph) int {
	best := 0
	for _, c := range g.KCore() {
		best = max(best, c)
	}
	return best
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, false)
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(1, 1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := g.AddEdge(0, 1, 2.5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g := New(2, false)
	_ = g.AddEdge(0, 1, 1)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge not symmetric")
	}
}

func TestDirectedAsymmetry(t *testing.T) {
	g := New(2, true)
	_ = g.AddEdge(0, 1, 1)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("directed edge should be one-way")
	}
}

func TestAddNode(t *testing.T) {
	g := New(1, false)
	id := g.AddNode()
	if id != 1 || g.N() != 2 {
		t.Errorf("AddNode id=%d N=%d", id, g.N())
	}
}

func TestBFSLine(t *testing.T) {
	g := line(5)
	d := hops(g, 0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3, false)
	_ = g.AddEdge(0, 1, 1)
	d := hops(g, 0)
	if d[2] != -1 {
		t.Errorf("unreachable dist = %d, want -1", d[2])
	}
}

func TestDijkstraPrefersLightPath(t *testing.T) {
	// 0→1→2 with weights 1+1, direct 0→2 with weight 5.
	g := New(3, true)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(0, 2, 5)
	dist, prev := g.Dijkstra(0)
	if dist[2] != 2 {
		t.Errorf("dist[2] = %g, want 2", dist[2])
	}
	p := Path(prev, 0, 2)
	want := []int{0, 1, 2}
	if len(p) != 3 {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("path = %v, want %v", p, want)
		}
	}
}

func TestDijkstraUnreachableInf(t *testing.T) {
	g := New(2, true)
	dist, prev := g.Dijkstra(0)
	if !math.IsInf(dist[1], 1) {
		t.Errorf("unreachable dist = %g, want +Inf", dist[1])
	}
	if Path(prev, 0, 1) != nil {
		t.Error("path to unreachable node should be nil")
	}
}

func TestComponents(t *testing.T) {
	g := New(5, false)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(2, 3, 1)
	label, count := g.Components()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if label[0] != label[1] || label[2] != label[3] || label[0] == label[2] || label[4] == label[0] {
		t.Errorf("labels = %v", label)
	}
	if g.GiantComponentSize() != 2 {
		t.Errorf("giant = %d, want 2", g.GiantComponentSize())
	}
}

func TestWeakComponentsDirected(t *testing.T) {
	g := New(3, true)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(2, 1, 1)
	_, count := g.Components()
	if count != 1 {
		t.Errorf("weak components = %d, want 1", count)
	}
}

func TestClosenessCentralityStar(t *testing.T) {
	g := star(5)
	c := closeness(t, g, 0)
	if math.Abs(c[0]-1) > 1e-9 {
		t.Errorf("center closeness = %g, want 1", c[0])
	}
	// Leaf: distances 1,2,2,2 → sum 7, closeness 4/7.
	if math.Abs(c[1]-4.0/7) > 1e-9 {
		t.Errorf("leaf closeness = %g, want %g", c[1], 4.0/7)
	}
}

func TestBetweennessLine(t *testing.T) {
	g := line(3)
	cb := betweenness(t, g, 0)
	if cb[0] != 0 || cb[2] != 0 {
		t.Errorf("endpoints betweenness = %g, %g, want 0", cb[0], cb[2])
	}
	if cb[1] != 1 {
		t.Errorf("middle betweenness = %g, want 1", cb[1])
	}
}

func TestBetweennessStarCenter(t *testing.T) {
	g := star(5)
	cb := betweenness(t, g, 0)
	// Center lies on all C(4,2)=6 leaf pairs.
	if cb[0] != 6 {
		t.Errorf("center betweenness = %g, want 6", cb[0])
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	r := rng.New(3)
	g := ErdosRenyi(50, 0.1, r)
	pr := g.PageRank(0.85, 100, 1e-10)
	sum := 0.0
	for _, v := range pr {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("PageRank sum = %g, want 1", sum)
	}
}

func TestPageRankStarCenterHighest(t *testing.T) {
	g := star(10)
	pr := g.PageRank(0.85, 200, 1e-12)
	for i := 1; i < 10; i++ {
		if pr[0] <= pr[i] {
			t.Errorf("center rank %g not above leaf %g", pr[0], pr[i])
		}
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	g := New(3, true)
	_ = g.AddEdge(0, 1, 1) // 1 and 2 dangle
	pr := g.PageRank(0.85, 100, 1e-12)
	sum := pr[0] + pr[1] + pr[2]
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("dangling PageRank sum = %g, want 1", sum)
	}
}

func TestLabelPropagationTwoCliques(t *testing.T) {
	// Two 5-cliques joined by a single bridge.
	g := New(10, false)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			_ = g.AddEdge(u, v, 1)
		}
	}
	for u := 5; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			_ = g.AddEdge(u, v, 1)
		}
	}
	_ = g.AddEdge(4, 5, 1)
	label, count := g.LabelPropagation(rng.New(1), 50)
	if count != 2 {
		t.Fatalf("communities = %d, want 2 (labels %v)", count, label)
	}
	for u := 1; u < 5; u++ {
		if label[u] != label[0] {
			t.Errorf("clique 1 split: %v", label)
		}
	}
	for u := 6; u < 10; u++ {
		if label[u] != label[5] {
			t.Errorf("clique 2 split: %v", label)
		}
	}
}

func TestLabelPropagationLowestLabelWinsTies(t *testing.T) {
	// Barbell 0-1, 2-3 with bridge 1-2, processed in perm order (3,2,1,0)
	// (seed 42 yields exactly that permutation of 4). After node 3 adopts
	// label 2, node 2 sees its own label 2 and label 1 at equal weight 1;
	// the documented tie-break ("lowest label wins") must move it off its
	// own label, cascading the whole barbell into one community. The old
	// seeding let the node's own label defeat equal-weight lower labels and
	// froze this graph at two communities.
	g := New(4, false)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(2, 3, 1)
	_ = g.AddEdge(1, 2, 1)
	perm := rng.New(42).Perm(4)
	if perm[0] != 3 || perm[1] != 2 {
		t.Fatalf("seed 42 perm = %v, test precondition broken", perm)
	}
	label, count := g.LabelPropagation(rng.New(42), 50)
	if count != 1 {
		t.Fatalf("communities = %d (labels %v), want 1: equal-weight lower label did not win", count, label)
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	r := rng.New(5)
	g := ErdosRenyi(100, 0.2, r)
	maxEdges := 100 * 99 / 2
	density := float64(g.M()) / float64(maxEdges)
	if math.Abs(density-0.2) > 0.03 {
		t.Errorf("density = %g, want ~0.2", density)
	}
}

func TestBarabasiAlbertSkew(t *testing.T) {
	r := rng.New(7)
	g := BarabasiAlbert(500, 2, r)
	degs := make([]float64, g.N())
	for u := 0; u < g.N(); u++ {
		degs[u] = float64(g.Degree(u))
	}
	maxDeg, sum := 0.0, 0.0
	for _, d := range degs {
		if d > maxDeg {
			maxDeg = d
		}
		sum += d
	}
	meanDeg := sum / float64(len(degs))
	if maxDeg < 5*meanDeg {
		t.Errorf("BA max degree %g not heavy-tailed vs mean %g", maxDeg, meanDeg)
	}
	// Every non-seed node has at least m edges.
	for u := 3; u < g.N(); u++ {
		if g.Degree(u) < 2 {
			t.Errorf("node %d degree %d < m", u, g.Degree(u))
		}
	}
}

func TestRandomGeometricConnectsClosePairs(t *testing.T) {
	r := rng.New(9)
	g, pos := RandomGeometric(80, 0.3, r)
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			dx := pos[u][0] - pos[e.To][0]
			dy := pos[u][1] - pos[e.To][1]
			if math.Sqrt(dx*dx+dy*dy) > 0.3+1e-9 {
				t.Fatalf("edge longer than radius: %d-%d", u, e.To)
			}
		}
	}
}

func TestDegreeAssortativityStarNegative(t *testing.T) {
	g := star(20)
	a := g.DegreeAssortativity()
	if !(a < 0) {
		t.Errorf("star assortativity = %g, want negative", a)
	}
}

func TestQuickBFSTriangleInequality(t *testing.T) {
	proptest.Run(t, 208, 25, func(pg *proptest.G) error {
		g := ErdosRenyi(30, 0.15, rng.New(pg.Uint64()))
		d := hops(g, 0)
		// For every edge (u,v): |d[u]-d[v]| <= 1 when both reachable.
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Neighbors(u) {
				if d[u] >= 0 && d[e.To] >= 0 {
					diff := d[u] - d[e.To]
					if diff < -1 || diff > 1 {
						return fmt.Errorf("edge %d-%d: hops %d and %d", u, e.To, d[u], d[e.To])
					}
				}
			}
		}
		return nil
	})
}

func TestQuickDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	proptest.Run(t, 209, 25, func(pg *proptest.G) error {
		g := ErdosRenyi(25, 0.2, rng.New(pg.Uint64()))
		bfs := hops(g, 0)
		dij, _ := g.Dijkstra(0)
		for i := range bfs {
			if bfs[i] == -1 {
				if !math.IsInf(dij[i], 1) {
					return fmt.Errorf("node %d: unreachable by BFS, Dijkstra %g", i, dij[i])
				}
				continue
			}
			if math.Abs(dij[i]-float64(bfs[i])) > 1e-9 {
				return fmt.Errorf("node %d: BFS %d, Dijkstra %g", i, bfs[i], dij[i])
			}
		}
		return nil
	})
}

// centralityWorkerCounts are the equivalence matrix from the determinism
// contract: parallel output must be bit-identical to serial for workers in
// {1, 4, GOMAXPROCS} (0 = the GOMAXPROCS default).
// betweenness and closeness run the centralities on workers goroutines,
// failing the test on error.
func betweenness(t *testing.T, g *Graph, workers int) []float64 {
	t.Helper()
	cb, err := g.BetweennessCentralityCtx(context.Background(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return cb
}

func closeness(t *testing.T, g *Graph, workers int) []float64 {
	t.Helper()
	c, err := g.ClosenessCentralityCtx(context.Background(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func centralityWorkerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0), 0}
}

func TestBetweennessParallelBitIdenticalToSerial(t *testing.T) {
	graphs := map[string]*Graph{
		"erdos-renyi": ErdosRenyi(150, 0.05, rng.New(3)),
		"barabasi":    BarabasiAlbert(200, 3, rng.New(5)),
		"star":        star(50),
		"disconnected": func() *Graph {
			g := New(40, false)
			for i := 0; i+1 < 20; i++ {
				_ = g.AddEdge(i, i+1, 1)
			}
			return g
		}(),
	}
	for name, g := range graphs {
		serial := betweenness(t, g, 1)
		for _, workers := range centralityWorkerCounts() {
			got := betweenness(t, g, workers)
			for i := range serial {
				if got[i] != serial[i] {
					t.Fatalf("%s workers=%d: cb[%d] = %v, serial %v (not bit-identical)",
						name, workers, i, got[i], serial[i])
				}
			}
		}
	}
}

func TestClosenessParallelBitIdenticalToSerial(t *testing.T) {
	g := ErdosRenyi(180, 0.04, rng.New(11))
	serial := closeness(t, g, 1)
	for _, workers := range centralityWorkerCounts() {
		got := closeness(t, g, workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: c[%d] = %v, serial %v (not bit-identical)", workers, i, got[i], serial[i])
			}
		}
	}
}

func BenchmarkBetweenness200(b *testing.B) {
	g := ErdosRenyi(200, 0.05, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BetweennessCentralityCtx(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := BarabasiAlbert(2000, 3, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.PageRank(0.85, 50, 1e-8)
	}
}

func TestKCoreCliqueWithTail(t *testing.T) {
	// 4-clique (nodes 0-3) with a tail 3-4-5: clique nodes have core 3,
	// tail nodes core 1.
	g := New(6, false)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			_ = g.AddEdge(u, v, 1)
		}
	}
	_ = g.AddEdge(3, 4, 1)
	_ = g.AddEdge(4, 5, 1)
	core := g.KCore()
	for u := 0; u < 4; u++ {
		if core[u] != 3 {
			t.Errorf("clique node %d core = %d, want 3", u, core[u])
		}
	}
	if core[4] != 1 || core[5] != 1 {
		t.Errorf("tail cores = %d, %d, want 1", core[4], core[5])
	}
	if degeneracy(g) != 3 {
		t.Errorf("degeneracy = %d, want 3", degeneracy(g))
	}
}

func TestKCoreLine(t *testing.T) {
	g := line(5)
	for u, c := range g.KCore() {
		if c != 1 {
			t.Errorf("line node %d core = %d, want 1", u, c)
		}
	}
}

func TestKCoreIsolatedNodes(t *testing.T) {
	g := New(3, false)
	core := g.KCore()
	for u, c := range core {
		if c != 0 {
			t.Errorf("isolated node %d core = %d", u, c)
		}
	}
	if degeneracy(g) != 0 {
		t.Error("empty degeneracy should be 0")
	}
}

func TestKCoreMonotoneUnderDensity(t *testing.T) {
	sparse := ErdosRenyi(60, 0.05, rng.New(3))
	dense := ErdosRenyi(60, 0.3, rng.New(3))
	if !(degeneracy(dense) > degeneracy(sparse)) {
		t.Errorf("denser graph should have higher degeneracy: %d vs %d",
			degeneracy(dense), degeneracy(sparse))
	}
}

func TestKCoreBoundedByDegree(t *testing.T) {
	g := BarabasiAlbert(200, 3, rng.New(5))
	core := g.KCore()
	for u, c := range core {
		if c > g.Degree(u) {
			t.Errorf("node %d core %d exceeds degree %d", u, c, g.Degree(u))
		}
		if c < 0 {
			t.Errorf("negative core at %d", u)
		}
	}
	// BA(m=3) graphs have degeneracy exactly m.
	if d := degeneracy(g); d != 3 {
		t.Errorf("BA degeneracy = %d, want 3", d)
	}
}

// kcoreOracle is the textbook O(n²) peel: repeatedly remove
// a minimum-degree node (lowest ID on ties); a node's core number is the
// running maximum of degrees at removal time. It reads g.adj as given, so
// it is an oracle for undirected graphs only.
func kcoreOracle(g *Graph) []int {
	n := len(g.adj)
	deg := make([]int, n)
	for u := range g.adj {
		deg[u] = len(g.adj[u])
	}
	core := make([]int, n)
	removed := make([]bool, n)
	k := 0
	for peeled := 0; peeled < n; peeled++ {
		u, best := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < best {
				u, best = v, deg[v]
			}
		}
		removed[u] = true
		k = max(k, deg[u])
		core[u] = k
		for _, e := range g.adj[u] {
			if !removed[e.To] && deg[e.To] > 0 {
				deg[e.To]--
			}
		}
	}
	return core
}

// brandesOracle is the single-source Brandes phase with explicit
// predecessor lists, written as in Brandes (2001): it adds source s's
// dependencies into delta, a zeroed slice of length N.
func brandesOracle(g *Graph, s int, delta []float64) {
	n := len(g.adj)
	stack := make([]int, 0, n)
	preds := make([][]int, n)
	sigma := make([]float64, n)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	sigma[s] = 1
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		stack = append(stack, v)
		for _, e := range g.adj[v] {
			w := e.To
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
			if dist[w] == dist[v]+1 {
				sigma[w] += sigma[v]
				preds[w] = append(preds[w], v)
			}
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		w := stack[i]
		for _, v := range preds[w] {
			delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
		}
	}
}

// betweennessOracle accumulates brandesOracle serially in source order.
func betweennessOracle(g *Graph) []float64 {
	n := len(g.adj)
	cb := make([]float64, n)
	delta := make([]float64, n)
	for s := 0; s < n; s++ {
		clear(delta)
		brandesOracle(g, s, delta)
		for w, d := range delta {
			if w != s {
				cb[w] += d
			}
		}
	}
	if !g.directed {
		for i := range cb {
			cb[i] /= 2
		}
	}
	return cb
}

// multiSpec builds an undirected graph from spec, adding each edge one to
// three times so the result has parallel edges.
func multiSpec(pg *proptest.G, spec proptest.GraphSpec) *Graph {
	g := New(spec.N, false)
	for k, e := range spec.Edges {
		for c := pg.IntRange(1, 3); c > 0; c-- {
			if err := g.AddEdge(e[0], e[1], spec.Weights[k]); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// randomDigraph draws a directed graph on 1..maxN nodes: each ordered pair
// gets an arc with probability p, and an arc is doubled with probability
// 0.2, so both u→v and v→u and parallel arcs all occur.
func randomDigraph(pg *proptest.G, maxN int, p float64) *Graph {
	n := pg.IntRange(1, maxN)
	g := New(n, true)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || !pg.Bool(p) {
				continue
			}
			copies := 1
			if pg.Bool(0.2) {
				copies = 2
			}
			for ; copies > 0; copies-- {
				if err := g.AddEdge(u, v, 1); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// undirectedCopy returns g with every arc u→v turned into an undirected
// edge u-v (so u→v plus v→u becomes a parallel pair).
func undirectedCopy(g *Graph) *Graph {
	u := New(g.N(), false)
	for v, es := range g.adj {
		for _, e := range es {
			if err := u.AddEdge(v, e.To, e.Weight); err != nil {
				panic(err)
			}
		}
	}
	return u
}

// oracleGraphs are the generated undirected graphs the oracle tests share:
// random, heavy-tailed, star, disconnected, and a multigraph.
func oracleGraphs() map[string]*Graph {
	multi := ErdosRenyi(80, 0.08, rng.New(13))
	for u := 0; u < multi.N(); u += 3 {
		for _, e := range append([]Edge(nil), multi.adj[u]...) {
			if e.To > u {
				_ = multi.AddEdge(u, e.To, e.Weight)
			}
		}
	}
	return map[string]*Graph{
		"erdos-renyi-sparse": ErdosRenyi(150, 0.03, rng.New(3)),
		"erdos-renyi-dense":  ErdosRenyi(60, 0.3, rng.New(4)),
		"barabasi-2":         BarabasiAlbert(300, 2, rng.New(5)),
		"barabasi-5":         BarabasiAlbert(200, 5, rng.New(6)),
		"star":               star(40),
		"line":               line(30),
		"empty":              New(0, false),
		"isolated":           New(5, false),
		"multigraph":         multi,
	}
}

func TestKCoreMatchesOracle(t *testing.T) {
	for name, g := range oracleGraphs() {
		if got, want := g.KCore(), kcoreOracle(g); !slices.Equal(got, want) {
			t.Errorf("%s: KCore = %v, oracle %v", name, got, want)
		}
	}
}

func TestPropKCoreMatchesOracle(t *testing.T) {
	proptest.Run(t, 205, 120, func(pg *proptest.G) error {
		g := multiSpec(pg, pg.Graph(16, pg.Float64Range(0.05, 0.6)))
		if got, want := g.KCore(), kcoreOracle(g); !slices.Equal(got, want) {
			return fmt.Errorf("KCore = %v, oracle %v", got, want)
		}
		return nil
	})
}

// TestKCoreDirectedCycle is the regression for peeling out-degrees: a
// directed 3-cycle is a triangle when read undirected, so every node has
// core number 2, not 1.
func TestKCoreDirectedCycle(t *testing.T) {
	g := New(3, true)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(2, 0, 1)
	if got := g.KCore(); !slices.Equal(got, []int{2, 2, 2}) {
		t.Errorf("directed 3-cycle KCore = %v, want [2 2 2]", got)
	}
}

func TestPropKCoreDirectedIsUndirected(t *testing.T) {
	proptest.Run(t, 206, 120, func(pg *proptest.G) error {
		g := randomDigraph(pg, 14, pg.Float64Range(0.05, 0.4))
		if got, want := g.KCore(), undirectedCopy(g).KCore(); !slices.Equal(got, want) {
			return fmt.Errorf("directed KCore = %v, undirected copy %v", got, want)
		}
		return nil
	})
}

// oracleWorkerCounts are the worker counts checked against the serial
// oracle.
func oracleWorkerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// sameBetweenness compares got against the oracle bit for bit.
func sameBetweenness(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("len %d, oracle %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("cb[%d] = %v, oracle %v (not bit-identical)", i, got[i], want[i])
		}
	}
	return nil
}

func TestBetweennessMatchesOracle(t *testing.T) {
	graphs := oracleGraphs()
	for i, seed := range []uint64{7, 8} {
		g := New(60, true)
		r := rng.New(seed)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u != v && r.Bool(0.06) {
					_ = g.AddEdge(u, v, 1)
				}
			}
		}
		graphs[fmt.Sprintf("directed-%d", i)] = g
	}
	for name, g := range graphs {
		want := betweennessOracle(g)
		for _, workers := range oracleWorkerCounts() {
			if err := sameBetweenness(betweenness(t, g, workers), want); err != nil {
				t.Errorf("%s workers=%d: %v", name, workers, err)
			}
		}
	}
}

func TestPropBetweennessMatchesOracle(t *testing.T) {
	ctx := context.Background()
	proptest.Run(t, 207, 120, func(pg *proptest.G) error {
		var g *Graph
		if pg.Bool(0.5) {
			g = randomDigraph(pg, 12, pg.Float64Range(0.05, 0.4))
		} else {
			g = multiSpec(pg, pg.Graph(12, pg.Float64Range(0.05, 0.5)))
		}
		want := betweennessOracle(g)
		for _, workers := range oracleWorkerCounts() {
			got, err := g.BetweennessCentralityCtx(ctx, workers)
			if err != nil {
				return err
			}
			if err := sameBetweenness(got, want); err != nil {
				return fmt.Errorf("directed=%v workers=%d: %v", g.directed, workers, err)
			}
		}
		return nil
	})
}

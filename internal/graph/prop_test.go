package graph_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/proptest"
	"repro/internal/rng"
)

// Property suite for the graph layer: centralities are equivariant under
// node relabeling (closeness exactly — it is integer-BFS based — and
// betweenness up to float reassociation), bit-identical across worker
// counts, and LabelPropagation always returns a valid compacted partition.

func TestPropClosenessPermutationEquivariant(t *testing.T) {
	ctx := context.Background()
	proptest.Run(t, 201, 80, func(g *proptest.G) error {
		spec := g.Graph(12, 0.3)
		p := g.Perm(spec.N)
		c1, err := buildFromSpecErr(spec).ClosenessCentralityCtx(ctx, 0)
		if err != nil {
			return err
		}
		c2, err := buildRelabeledErr(spec, p).ClosenessCentralityCtx(ctx, 0)
		if err != nil {
			return err
		}
		for i := range c1 {
			if !proptest.SameFloat(c1[i], c2[p[i]]) {
				return fmt.Errorf("closeness not equivariant at node %d (as %d): %v vs %v",
					i, p[i], c1[i], c2[p[i]])
			}
		}
		return nil
	})
}

func TestPropBetweennessPermutationEquivariant(t *testing.T) {
	ctx := context.Background()
	proptest.Run(t, 202, 80, func(g *proptest.G) error {
		spec := g.ConnectedGraph(10, 0.25)
		p := g.Perm(spec.N)
		c1, err := buildFromSpecErr(spec).BetweennessCentralityCtx(ctx, 0)
		if err != nil {
			return err
		}
		c2, err := buildRelabeledErr(spec, p).BetweennessCentralityCtx(ctx, 0)
		if err != nil {
			return err
		}
		for i := range c1 {
			if !proptest.ApproxEq(c1[i], c2[p[i]], 1e-9) {
				return fmt.Errorf("betweenness not equivariant at node %d (as %d): %v vs %v",
					i, p[i], c1[i], c2[p[i]])
			}
		}
		return nil
	})
}

func TestPropCentralityWorkerInvariant(t *testing.T) {
	ctx := context.Background()
	proptest.Run(t, 203, 60, func(g *proptest.G) error {
		spec := g.ConnectedGraph(12, 0.3)
		gr := buildFromSpecErr(spec)
		b1, err := gr.BetweennessCentralityCtx(ctx, 1)
		if err != nil {
			return err
		}
		c1, err := gr.ClosenessCentralityCtx(ctx, 1)
		if err != nil {
			return err
		}
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			bw, err := gr.BetweennessCentralityCtx(ctx, workers)
			if err != nil {
				return err
			}
			if !proptest.FloatsApproxEq(b1, bw, 0) {
				return fmt.Errorf("betweenness differs at workers=%d:\n serial %v\n workers %v", workers, b1, bw)
			}
			cw, err := gr.ClosenessCentralityCtx(ctx, workers)
			if err != nil {
				return err
			}
			if !proptest.FloatsApproxEq(c1, cw, 0) {
				return fmt.Errorf("closeness differs at workers=%d:\n serial %v\n workers %v", workers, c1, cw)
			}
		}
		return nil
	})
}

func TestPropLabelPropagationPartitionValid(t *testing.T) {
	proptest.Run(t, 204, 80, func(g *proptest.G) error {
		spec := g.Graph(14, 0.25)
		gr := buildFromSpecErr(spec)
		seed := g.Uint64()
		rounds := g.IntRange(1, 20)
		label, count := gr.LabelPropagation(rng.New(seed), rounds)
		if len(label) != spec.N {
			return fmt.Errorf("label len %d, want %d", len(label), spec.N)
		}
		if spec.N > 0 && (count < 1 || count > spec.N) {
			return fmt.Errorf("community count %d out of [1, %d]", count, spec.N)
		}
		seen := make([]bool, count)
		for i, l := range label {
			if l < 0 || l >= count {
				return fmt.Errorf("node %d has label %d outside [0, %d)", i, l, count)
			}
			seen[l] = true
		}
		for l, ok := range seen {
			if !ok {
				return fmt.Errorf("label %d unused: compaction broken (labels %v)", l, label)
			}
		}
		// Determinism: the same seed reproduces the same partition.
		label2, count2 := gr.LabelPropagation(rng.New(seed), rounds)
		if count2 != count {
			return fmt.Errorf("same seed, different community count: %d vs %d", count, count2)
		}
		for i := range label {
			if label[i] != label2[i] {
				return fmt.Errorf("same seed, different partition at node %d", i)
			}
		}
		return nil
	})
}

// buildFromSpecErr / buildRelabeledErr panic on AddEdge failure so they can
// run inside properties (the driver converts panics to counterexamples).
func buildFromSpecErr(spec proptest.GraphSpec) *graph.Graph {
	g := graph.New(spec.N, false)
	for k, e := range spec.Edges {
		if err := g.AddEdge(e[0], e[1], spec.Weights[k]); err != nil {
			panic(err)
		}
	}
	return g
}

func buildRelabeledErr(spec proptest.GraphSpec, p []int) *graph.Graph {
	g := graph.New(spec.N, false)
	for k, e := range spec.Edges {
		if err := g.AddEdge(p[e[0]], p[e[1]], spec.Weights[k]); err != nil {
			panic(err)
		}
	}
	return g
}

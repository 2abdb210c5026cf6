package repro

// The benchmark harness: one benchmark per experiment in DESIGN.md's
// experiment index (E1–E16) plus the A1/A3 ablations. Each one times the
// registered scenario at its default params and seed, so it measures
// exactly what reportgen, humnetd and REPORT.md run. The tables themselves
// come from reportgen (`go run ./cmd/reportgen`); nothing here prints.

import (
	"context"
	"testing"

	"repro/internal/experiment"
	_ "repro/internal/experiment/all"
	"repro/internal/graph"
	"repro/internal/rng"
)

// benchScenario times Run of the scenario registered as id, with over
// merged onto its schema defaults, at the scenario's default seed.
func benchScenario(b *testing.B, id string, over experiment.Values) {
	b.Helper()
	sc, ok := experiment.Default.Get(id)
	if !ok {
		b.Fatalf("scenario %q not registered", id)
	}
	p, err := sc.Params().Merge(over)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(ctx, p, sc.DefaultSeed()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Circumvention(b *testing.B) { benchScenario(b, "E1", nil) }
func BenchmarkE2IXPGravity(b *testing.B)    { benchScenario(b, "E2", nil) }
func BenchmarkE3Congestion(b *testing.B)    { benchScenario(b, "E3", nil) }
func BenchmarkE4Discovery(b *testing.B)     { benchScenario(b, "E4", nil) }
func BenchmarkE5Concentration(b *testing.B) { benchScenario(b, "E5", nil) }
func BenchmarkE6Reliability(b *testing.B)   { benchScenario(b, "E6", nil) }
func BenchmarkE7Patchwork(b *testing.B)     { benchScenario(b, "E7", nil) }
func BenchmarkE8Sampling(b *testing.B)      { benchScenario(b, "E8", nil) }
func BenchmarkE9Lens(b *testing.B)          { benchScenario(b, "E9", nil) }
func BenchmarkE10Iteration(b *testing.B)    { benchScenario(b, "E10", nil) }
func BenchmarkE11Standards(b *testing.B)    { benchScenario(b, "E11", nil) }
func BenchmarkE12Diary(b *testing.B)        { benchScenario(b, "E12", nil) }
func BenchmarkE13FocusGroup(b *testing.B)   { benchScenario(b, "E13", nil) }
func BenchmarkE14RouteLeak(b *testing.B)    { benchScenario(b, "E14", nil) }
func BenchmarkE15CFPDynamics(b *testing.B)  { benchScenario(b, "E15", nil) }
func BenchmarkE16Hijack(b *testing.B)       { benchScenario(b, "E16", nil) }

// BenchmarkA1TopologyGap is the placement ablation (cn-gateway): the
// near/far max-min rate gap under an arbitrary vs the 1-median gateway.
func BenchmarkA1TopologyGap(b *testing.B) { benchScenario(b, "cn-gateway", nil) }

// BenchmarkA3ReflectionCrossover is the patchwork-mechanism ablation on a
// single site (ethno-reflection): the reflection gain at which split visits
// beat one stay.
func BenchmarkA3ReflectionCrossover(b *testing.B) { benchScenario(b, "ethno-reflection", nil) }

// --- Parallel engine benchmarks -------------------------------------------
//
// The Serial/Parallel pairs below measure the internal/parallel fan-out on
// the hot analysis paths. Results are bit-identical across worker counts
// (see internal/parallel's package doc), so the pairs differ only in time.

func benchGraph() *graph.Graph {
	return graph.BarabasiAlbert(600, 3, rng.New(1))
}

func BenchmarkBetweennessSerial(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BetweennessCentralityCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBetweennessParallel(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BetweennessCentralityCtx(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosenessSerial(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ClosenessCentralityCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosenessParallel(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ClosenessCentralityCtx(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiblioGraph runs the registered biblio-graph study at the bench
// harness's graph workload shape (1000 papers, 500 authors): corpus
// generation, coauthorship graph, k-core, communities and both exact
// centralities.
func BenchmarkBiblioGraph(b *testing.B) {
	benchScenario(b, "biblio-graph", experiment.Values{"papers": 1000, "authors": 500})
}

func BenchmarkKCore(b *testing.B) {
	g := graph.BarabasiAlbert(20000, 3, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.KCore()
	}
}

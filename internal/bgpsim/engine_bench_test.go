package bgpsim

// Benchmarks for the compiled routing engine: the classic three scales
// against the reference loop, the 10k/50k/100k-AS scale shapes, the
// incremental delta path against cold re-convergence, and the event-driven
// sweeps against their cold-per-event oracles. Run them all with allocation
// stats via
//
//	make bench-json
//
// which records the results in BENCH_bgpsim.json (the committed perf
// baseline), and gate a change against that baseline with
//
//	make bench-gate
//
// which fails on >25% ns/op regressions.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// benchSizes are the three classic three-tier hierarchy scales: ≈100, ≈1k, and
// ≈5k ASes (3 tier-1s + mids + stubs). At 5k the full all-stubs prefix set
// would make each table ~21M cells, so keepEvery thins the originations to
// every 16th stub — the benchmark then measures per-prefix convergence cost
// at large AS counts rather than sheer table size.
var benchSizes = []struct {
	name      string
	nMid      int
	nStub     int
	keepEvery int
}{
	{"as100", 16, 80, 1},
	{"as1k", 160, 840, 1},
	{"as5k", 800, 4200, 16},
}

// benchScales are the large shapes behind the scale benchmarks: the
// route-reflector-flavoured hierarchy (hubs between tier-1s and mids) with
// origination thinned so the prefix-column count grows sublinearly. The
// names are AS counts: 3 tier-1s + hubs + mids + stubs.
var benchScales = []struct {
	name string
	o    HierarchyOpts
}{
	{"as10k", HierarchyOpts{NMid: 1600, NStub: 8400, Hubs: 24, OriginEvery: 16}},
	{"as50k", HierarchyOpts{NMid: 8000, NStub: 42000, Hubs: 48, OriginEvery: 128}},
	{"as100k", HierarchyOpts{NMid: 16000, NStub: 84000, Hubs: 64, OriginEvery: 256}},
}

func benchTopology(b *testing.B, nMid, nStub, keepEvery int) *Topology {
	b.Helper()
	h, err := BuildHierarchyOpts(rng.New(1), HierarchyOpts{NMid: nMid, NStub: nStub})
	if err != nil {
		b.Fatal(err)
	}
	if keepEvery > 1 {
		for i, s := range h.Stubs {
			if i%keepEvery != 0 {
				h.Topo.WithdrawOrigin(s, fmt.Sprintf("pfx-%d", s))
			}
		}
	}
	return h.Topo
}

// benchHierarchyOpts builds one of the benchScales shapes with a fixed seed.
func benchHierarchyOpts(b *testing.B, o HierarchyOpts) *Hierarchy {
	b.Helper()
	h, err := BuildHierarchyOpts(rng.New(1), o)
	if err != nil {
		b.Fatal(err)
	}
	if len(h.OriginStubs) == 0 {
		b.Fatal("scale shape has no originating stubs")
	}
	return h
}

func benchmarkConverge(b *testing.B, workers int) {
	for _, s := range benchSizes {
		b.Run(s.name, func(b *testing.B) {
			topo := benchTopology(b, s.nMid, s.nStub, s.keepEvery)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := topo.ConvergeCtx(context.Background(), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConvergeSerial(b *testing.B)   { benchmarkConverge(b, 1) }
func BenchmarkConvergeParallel(b *testing.B) { benchmarkConverge(b, 0) }

// BenchmarkConvergeParallelMP pins GOMAXPROCS to 4 for the duration so the
// chunked parallel path is measured with real OS-thread parallelism even
// when the recording machine (or CI) is single-core — on such hosts
// BenchmarkConvergeParallel collapses to the serial fallback and says
// nothing about the fan-out.
func BenchmarkConvergeParallelMP(b *testing.B) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	benchmarkConverge(b, 4)
}

// BenchmarkConvergeReference measures the original map-based loop for the
// allocation and time baseline. The 5k scale is omitted: the naive loop is
// prohibitively slow there, which is the point of the rewrite.
func BenchmarkConvergeReference(b *testing.B) {
	for _, s := range benchSizes {
		if s.name == "as5k" {
			continue
		}
		b.Run(s.name, func(b *testing.B) {
			topo := benchTopology(b, s.nMid, s.nStub, s.keepEvery)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = topo.convergeReference()
			}
		})
	}
}

// BenchmarkConvergeScale is cold convergence at the 10k/50k/100k-AS shapes —
// the denominator the incremental path is judged against, and the proof that
// a 100k-AS table converges in bounded memory.
func BenchmarkConvergeScale(b *testing.B) {
	for _, s := range benchScales {
		b.Run(s.name, func(b *testing.B) {
			h := benchHierarchyOpts(b, s.o)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Topo.ConvergeCtx(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaWithdraw measures one withdraw event applied and reverted
// against a converged 10k-AS state — the steady-state cost of the
// incremental path. Its cold counterpart below re-converges the whole
// topology for the same event; the ratio is the incremental speedup.
func BenchmarkDeltaWithdraw(b *testing.B) {
	b.Run("as10k", func(b *testing.B) {
		h := benchHierarchyOpts(b, benchScales[0].o)
		victim := h.OriginStubs[0]
		d := Delta{Kind: DeltaWithdraw, A: victim, Prefix: fmt.Sprintf("pfx-%d", victim)}
		c := convergeState(b, h.Topo, 1)
		// One warm-up apply/revert: the first pays one-time slab growth,
		// which would dominate a single-iteration (BENCHTIME=1x) gate run.
		if p, err := c.Apply(d); err != nil {
			b.Fatal(err)
		} else {
			c.Revert(p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := c.Apply(d)
			if err != nil {
				b.Fatal(err)
			}
			c.Revert(p)
		}
	})
}

// BenchmarkDeltaWithdrawCold is the pre-incremental cost of the same event:
// mutate the topology, converge everything from scratch.
func BenchmarkDeltaWithdrawCold(b *testing.B) {
	b.Run("as10k", func(b *testing.B) {
		h := benchHierarchyOpts(b, benchScales[0].o)
		victim := h.OriginStubs[0]
		h.Topo.WithdrawOrigin(victim, fmt.Sprintf("pfx-%d", victim))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.Topo.ConvergeCtx(context.Background(), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSweepShape is the ≥5k-AS shape the sweep benchmarks run on. Only every
// 16th stub originates, so the victim is drawn from the originating stubs.
var benchSweepShape = HierarchyOpts{NMid: 80, NStub: 5000, OriginEvery: 16}

func benchSweepSetup(b *testing.B) (*Hierarchy, ASN) {
	b.Helper()
	r := rng.New(5)
	h, err := BuildHierarchyOpts(r.Split(), benchSweepShape)
	if err != nil {
		b.Fatal(err)
	}
	if len(h.OriginStubs) == 0 {
		b.Fatal("sweep shape has no originating stubs")
	}
	return h, h.OriginStubs[r.Intn(len(h.OriginStubs))]
}

// BenchmarkSweepLeakIncremental / BenchmarkSweepLeakFull are the two sides
// of the leak sweep at ~5k ASes: base converged once with each leaker an
// applied-and-reverted toggle, versus one cold convergence per leaker. Both
// produce identical rows (pinned by TestSweepsMatchFull).
func BenchmarkSweepLeakIncremental(b *testing.B) {
	b.Run("as5k", func(b *testing.B) {
		h, victim := benchSweepSetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := leakSweepRows(context.Background(), h, victim, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSweepLeakFull(b *testing.B) {
	b.Run("as5k", func(b *testing.B) {
		h, victim := benchSweepSetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := leakSweepRowsFull(h, victim, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweepHijackIncremental / BenchmarkSweepHijackFull are the same
// pair for the hijack sweep; the announce rides the safe frontier path (one
// column reseeded) instead of the leak toggle's scoped cold recompute.
func BenchmarkSweepHijackIncremental(b *testing.B) {
	b.Run("as5k", func(b *testing.B) {
		h, victim := benchSweepSetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hijackSweepRows(context.Background(), h, victim, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSweepHijackFull(b *testing.B) {
	b.Run("as5k", func(b *testing.B) {
		h, victim := benchSweepSetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hijackSweepRowsFull(h, victim, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLeakSweepEndToEnd measures the E14 pipeline at a larger scale
// than the recorded table (41 leakers over a ~200-AS hierarchy): build,
// converge once, toggle/measure/revert each leaker.
func BenchmarkLeakSweepEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunLeakSweepCtx(context.Background(), 40, 160, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

package timeline

// Replay throughput benchmarks, the source of BENCH_timeline.json. Both
// report events/sec (end-to-end replay throughput) and cells/event (mean
// table blast radius per applied delta) via b.ReportMetric so the baseline
// records the workload's shape alongside its speed.

import (
	"context"
	"testing"

	"repro/internal/bgpsim"
	"repro/internal/rng"
)

// BenchmarkReplayFlapStorm: a single BGP machine replaying a generated flap
// storm. Unwind restores the converged state ref-exactly between
// iterations, so each iteration replays against identical initial tables
// without paying a re-convergence.
func BenchmarkReplayFlapStorm(b *testing.B) {
	h, err := bgpsim.BuildHierarchyOpts(rng.New(11), bgpsim.HierarchyOpts{NMid: 6, NStub: 20})
	if err != nil {
		b.Fatal(err)
	}
	storm, err := GenFlapStorm(h, 11^streamSalt, 24, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewBGPMachine(context.Background(), h.Topo, 1)
	if err != nil {
		b.Fatal(err)
	}
	var events, cells float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := ReplayCtx(context.Background(), storm, m)
		if err != nil {
			b.Fatal(err)
		}
		m.Unwind()
		for _, row := range series.Rows {
			events += row[0]
			cells += row[1]
		}
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(cells/events, "cells/event")
		b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
	}
}

// BenchmarkComposedReplay: the two-domain composition (routing + community
// network with a demand-coupling cascade) replayed end to end. The cascade
// leaves sticky state in the CN machine, so each iteration rebuilds the
// composition outside the timer and the measurement is replay alone.
func BenchmarkComposedReplay(b *testing.B) {
	var events, cells float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		comp, st, err := composedFixture(17)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		out, err := comp.ReplayCtx(context.Background(), st)
		if err != nil {
			b.Fatal(err)
		}
		events += float64(len(st.Events) + len(out.Injected))
		for _, row := range out.Series[0].Rows {
			cells += row[1]
		}
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(cells/events, "cells/event")
		b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
	}
}

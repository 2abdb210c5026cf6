package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "serve.capacity_rps", Better: "higher", Bound: 0.1}
	layer := specMetric{Name: "experiment.parse_us", Better: "lower"}
	// series builds seed-keyed values base[i] * f.
	series := func(f float64, base ...float64) map[uint64]float64 {
		out := make(map[uint64]float64)
		for i, b := range base {
			out[uint64(i+1)] = b * f
		}
		return out
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 130, 70, 100, 140, 60, 100, 120, 80, 100}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b map[uint64]float64
		want string
	}{
		{"same runs", lower, series(1, steady...), series(1, steady...), "within bound"},
		{"small slowdown", lower, series(1, steady...), series(1.05, steady...), "within bound"},
		{"big slowdown", lower, series(1, steady...), series(1.2, steady...), "worse"},
		{"clear gain", lower, series(1, steady...), series(0.8, steady...), "better"},
		{"gain on a higher-is-better metric", higher, series(1, steady...), series(1.2, steady...), "better"},
		{"loss on a higher-is-better metric", higher, series(1, steady...), series(0.8, steady...), "worse"},
		{"spread wider than the bound", lower, series(1, noisy...), series(1.02, noisy...), "unresolved"},
		{"unbounded layer metric, no clear move", layer, series(1, steady...), series(1.001, steady...), "unresolved"},
		{"unbounded layer metric, clear loss", layer, series(1, steady...), series(1.5, steady...), "worse"},
		{"fewer than ten pairs", lower, series(1, steady[:3]...), series(1.5, steady[:3]...), "unresolved"},
	} {
		if got := judge(c.m, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (A %v, B %v)", c.name, got.verdict, c.want, got.a, got.b)
		}
	}
}

package timeline

// The E20 configuration sweep: ~a thousand distinct parameterizations of the
// coupled-rollout scenario driven through the batch runner and the
// content-addressed disk cache. Pins that the composed path scales past
// single goldens — every configuration runs, re-running is pure cache hits,
// and the warm bytes match the cold bytes for the whole sweep.

import (
	"context"
	"testing"

	"repro/internal/experiment"
)

// e20SweepJobs enumerates the sweep grid over a deliberately small world
// (the sweep pins breadth, not depth — golden and property tests pin depth).
func e20SweepJobs(t testing.TB) []experiment.Job {
	t.Helper()
	sc, ok := experiment.Get("E20")
	if !ok {
		t.Fatal("E20 not registered")
	}
	small := experiment.Values{
		"mids": 2, "stubs": 5, "ticks": 8, "competitors": 3,
		"start": 1, "wave-size": 1,
	}
	var jobs []experiment.Job
	for _, pressBelow := range []float64{0.5, 0.7, 0.85, 0.9, 0.99} {
		for _, perTick := range []int{1, 2} {
			for _, hold := range []int{1, 2, 3} {
				for _, regulateAt := range []int{3, 5, 7} {
					for _, waveEvery := range []int{1, 2, 3} {
						for _, seed := range []uint64{1, 2, 3, 4} {
							p := experiment.Values{}
							for k, v := range small {
								p[k] = v
							}
							p["press-below"] = pressBelow
							p["per-tick"] = perTick
							p["hold"] = hold
							p["regulate-at"] = regulateAt
							p["wave-every"] = waveEvery
							jobs = append(jobs, experiment.Job{Scenario: sc, Params: p, Seed: seed})
						}
					}
				}
			}
		}
	}
	return jobs
}

// TestE20SweepThroughRunnerAndCache: the full grid (1080 configurations;
// trimmed under -short) runs cold through the runner with a disk cache, then
// warm — all hits, byte-identical renders.
func TestE20SweepThroughRunnerAndCache(t *testing.T) {
	jobs := e20SweepJobs(t)
	if testing.Short() {
		jobs = jobs[:48]
	}
	cache, err := experiment.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, experiment.CacheStats) {
		runner := &experiment.Runner{Workers: 0, ScenarioWorkers: 1, Cache: cache}
		results, err := runner.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return experiment.RenderMarkdown(results), runner.Stats()
	}
	// Distinct configurations must produce distinct cache keys: every job of
	// the cold sweep is its own miss (no silent key collisions folding
	// configs).
	cold, coldStats := run()
	if coldStats.Misses != int64(len(jobs)) || coldStats.Hits != 0 {
		t.Fatalf("cold sweep stats = %+v, want %d pure misses", coldStats, len(jobs))
	}
	warm, warmStats := run()
	if warmStats.Hits != int64(len(jobs)) || warmStats.Misses != 0 {
		t.Fatalf("warm sweep stats = %+v, want %d pure hits", warmStats, len(jobs))
	}
	if cold != warm {
		t.Fatal("warm sweep render differs from cold")
	}
}

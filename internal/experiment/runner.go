package experiment

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/parallel"
)

// Job names one scenario execution: the scenario, parameter overrides (nil
// means pure defaults; partial overrides are merged over them), and the seed.
type Job struct {
	Scenario Scenario
	Params   Values
	Seed     uint64
}

// NewJob is the standard-report job for s: default params, default seed.
func NewJob(s Scenario) Job {
	return Job{Scenario: s, Seed: s.DefaultSeed()}
}

// CacheStats counts a runner's cache traffic. Misses counts scenario
// executions, so with a nil cache every job is a miss. Shared counts
// coalesced calls: concurrent identical jobs that received another caller's
// in-flight result without executing or touching the disk cache themselves.
type CacheStats struct {
	Hits   int64
	Misses int64
	Shared int64
}

// Runner executes jobs — concurrently, deterministically, and optionally
// through a content-addressed result cache. Results land at their job index
// via internal/parallel, so the output slice is bit-identical for any
// Workers value; scenarios promise the same for ScenarioWorkers.
//
// Concurrent identical jobs are coalesced: callers whose cache key matches
// an in-flight execution share its result instead of running the scenario
// again (or racing on the cache). Shared Results are shared pointers and
// must be treated as read-only, which is already the package contract.
type Runner struct {
	// Workers bounds concurrently-running scenarios (<= 0 means GOMAXPROCS).
	Workers int
	// ScenarioWorkers is the worker hint handed to each scenario's context
	// for its internal sweeps (<= 0 means GOMAXPROCS).
	ScenarioWorkers int
	// Cache, when non-nil, is consulted before and filled after every run.
	Cache *Cache

	hits   atomic.Int64
	misses atomic.Int64
	shared atomic.Int64
	flight flightGroup
}

// Stats returns the cache counters accumulated so far.
func (r *Runner) Stats() CacheStats {
	return CacheStats{Hits: r.hits.Load(), Misses: r.misses.Load(), Shared: r.shared.Load()}
}

// Waiting reports how many coalesced callers are currently parked on
// in-flight executions — a live-load observability signal (and the hook
// that lets tests release a blocked leader only after every concurrent
// caller has joined its flight).
func (r *Runner) Waiting() int { return r.flight.totalWaiters() }

// Run executes every job and returns the results in job order. The first
// failing job (by index) aborts the batch, matching internal/parallel's
// deterministic error contract.
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]*Result, error) {
	return parallel.Map(ctx, len(jobs), r.Workers, func(i int) (*Result, error) {
		return r.RunOne(ctx, jobs[i])
	})
}

// RunOne executes one job: merge params against the schema, consult the
// cache, run on a miss, stamp the result's identity fields, and store it.
// Concurrent calls that resolve to the same cache key share one execution,
// and a panicking scenario run becomes an error for every one of them.
func (r *Runner) RunOne(ctx context.Context, job Job) (*Result, error) {
	s := job.Scenario
	if s == nil {
		return nil, fmt.Errorf("experiment: job with nil scenario")
	}
	merged, err := s.Params().Merge(job.Params)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.ID(), err)
	}
	key := CacheKey(s.ID(), merged, job.Seed)
	res, shared, err := r.flight.do(ctx, key, func() (*Result, error) {
		return r.runKeyed(ctx, s, merged, job.Seed, key)
	})
	if shared {
		r.shared.Add(1)
	}
	return res, err
}

// runKeyed is one flight's execution: cache lookup, scenario run on a miss,
// identity stamping, and write-back.
func (r *Runner) runKeyed(ctx context.Context, s Scenario, merged Values, seed uint64, key string) (*Result, error) {
	if r.Cache != nil {
		if res, ok := r.Cache.Get(key, s.ID()); ok {
			r.hits.Add(1)
			return res, nil
		}
	}
	res, err := s.Run(WithWorkers(ctx, r.ScenarioWorkers), merged, seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.ID(), err)
	}
	if res == nil {
		return nil, fmt.Errorf("scenario %s returned no result", s.ID())
	}
	res.ID = s.ID()
	res.Title = s.Title()
	res.Claim = s.Claim()
	res.Seed = seed
	res.Params = merged.Formatted()
	r.misses.Add(1)
	if r.Cache != nil {
		if err := r.Cache.Put(key, res); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.ID(), err)
		}
	}
	return res, nil
}

package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source; tests substitute a fake one so
// due-time accounting can be checked exactly.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openResult is one open-loop phase: per request, latency from when it was
// due and how late the generator sent it.
type openResult struct {
	lat, late, service []time.Duration
	failed             int
}

// openLoop sends request i at offsets[i] after the start over at most conns
// connections, whether or not earlier requests have completed (independent
// users). Each connection takes the next request in order, waits until it
// is due if early and sends it at once if late. Lateness is the generator's
// own delay: how long after both the due instant and a free connection it
// actually sent (on Linux an idle Go process wakes from a sub-millisecond
// sleep up to a millisecond late). Latency is timed from the due instant
// less that lateness, so time spent waiting for a free connection behind a
// slow request counts against the system and the generator's timer slack
// does not.
func openLoop(clk clock, offsets []time.Duration, conns int, do func(i int) error) openResult {
	n := len(offsets)
	res := openResult{lat: make([]time.Duration, n), late: make([]time.Duration, n), service: make([]time.Duration, n)}
	var next, failed atomic.Int64
	start := clk.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				due := start.Add(offsets[i])
				ready := clk.Now()
				if ready.Before(due) {
					ready = due
				}
				clk.SleepUntil(due)
				sent := clk.Now()
				if err := do(i); err != nil {
					failed.Add(1)
				}
				done := clk.Now()
				res.late[i] = sent.Sub(ready)
				res.lat[i] = done.Sub(due) - res.late[i]
				res.service[i] = done.Sub(sent)
			}
		}()
	}
	wg.Wait()
	res.failed = int(failed.Load())
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	lat     []time.Duration
	failed  int
	elapsed time.Duration
}

// throughput is completed requests per second.
func (r closedResult) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.lat)-r.failed) / r.elapsed.Seconds()
}

// closedLoop keeps conns callers busy for d: each sends its next request as
// soon as its previous one completes. Requests are numbered from first on.
func closedLoop(clk clock, d time.Duration, conns, first int, do func(i int) error) closedResult {
	var next, failed atomic.Int64
	next.Store(int64(first))
	start := clk.Now()
	end := start.Add(d)
	lats := make([][]time.Duration, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for clk.Now().Before(end) {
				i := int(next.Add(1) - 1)
				t0 := clk.Now()
				if err := do(i); err != nil {
					failed.Add(1)
				}
				lats[c] = append(lats[c], clk.Now().Sub(t0))
			}
		}(c)
	}
	wg.Wait()
	res := closedResult{failed: int(failed.Load()), elapsed: clk.Now().Sub(start)}
	for _, l := range lats {
		res.lat = append(res.lat, l...)
	}
	return res
}

// schedule spaces requests 1/rate apart for d; a request for which repeat
// reports true is due at the same instant as its predecessor.
func schedule(rate float64, d time.Duration, repeat func(i int) bool) []time.Duration {
	var out []time.Duration
	for i := 0; ; i++ {
		off := time.Duration(float64(i) / rate * float64(time.Second))
		if off >= d {
			return out
		}
		if i > 0 && repeat != nil && repeat(i) {
			off = out[i-1]
		}
		out = append(out, off)
	}
}

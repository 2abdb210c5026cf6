package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to: SleepUntil jumps forward, and the
// test's request function advances by a service time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.t) {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestOpenLoopDueTimeAccounting: one connection, requests due every 1ms,
// each taking 1.5ms. The backlog grows by 0.5ms per request and must show
// up as latency timed from the due instant; the generator itself is never
// late because it always sends the moment the connection frees up.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	offsets := []time.Duration{0, ms(1), ms(2), ms(3), ms(10)}
	res := openLoop(clk, offsets, 1, func(int) error {
		clk.advance(ms(1.5))
		return nil
	})
	wantLat := []time.Duration{ms(1.5), ms(2), ms(2.5), ms(3), ms(1.5)}
	for i := range offsets {
		if res.lat[i] != wantLat[i] {
			t.Errorf("request %d: latency %v, want %v", i, res.lat[i], wantLat[i])
		}
		if res.late[i] != 0 {
			t.Errorf("request %d: generator lateness %v, want 0", i, res.late[i])
		}
		if res.service[i] != ms(1.5) {
			t.Errorf("request %d: service %v, want 1.5ms", i, res.service[i])
		}
	}
}

// lateClock oversleeps every wait by a fixed slack, like a coarse timer.
type lateClock struct {
	fakeClock
	slack time.Duration
}

func (c *lateClock) SleepUntil(t time.Time) {
	if t.After(c.Now()) {
		c.fakeClock.SleepUntil(t.Add(c.slack))
	}
}

// TestOpenLoopGeneratorLateness: when the generator oversleeps an early
// request's due time, the slack is reported as lateness and kept out of
// latency.
func TestOpenLoopGeneratorLateness(t *testing.T) {
	clk := &lateClock{fakeClock: fakeClock{t: time.Unix(0, 0)}, slack: 300 * time.Microsecond}
	offsets := []time.Duration{time.Millisecond, 5 * time.Millisecond}
	res := openLoop(clk, offsets, 1, func(int) error {
		clk.advance(time.Millisecond)
		return nil
	})
	for i := range offsets {
		if res.late[i] != 300*time.Microsecond {
			t.Errorf("request %d: lateness %v, want 300µs", i, res.late[i])
		}
		if res.lat[i] != time.Millisecond {
			t.Errorf("request %d: latency %v, want 1ms (slack excluded)", i, res.lat[i])
		}
	}
}

func TestClosedLoopCountsAndThroughput(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var mu sync.Mutex
	seen := map[int]bool{}
	res := closedLoop(clk, 10*time.Millisecond, 1, 7, func(i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		clk.advance(2 * time.Millisecond)
		return nil
	})
	if len(res.lat) != 5 || res.elapsed != 10*time.Millisecond {
		t.Fatalf("closed loop: %d requests in %v, want 5 in 10ms", len(res.lat), res.elapsed)
	}
	if got := res.throughput(); got != 500 {
		t.Errorf("throughput %v, want 500/s", got)
	}
	for i := 7; i < 12; i++ {
		if !seen[i] {
			t.Errorf("request %d never sent; numbering must start at first", i)
		}
	}
}

func TestScheduleRepeatsShareDueInstant(t *testing.T) {
	got := schedule(1000, 5*time.Millisecond, func(i int) bool { return i%4 == 3 })
	want := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("schedule = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
}

package experiment

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// flightGroup coalesces concurrent executions keyed by cache key: while one
// caller (the leader) runs fn, every other caller with the same key parks
// and receives the leader's result instead of re-running the scenario. The
// zero value is ready to use. Scenario runs are pure functions of their key,
// so sharing the leader's *Result is semantically identical to re-running —
// callers must treat shared Results as read-only, which is already the
// package-wide contract.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightCall is one in-flight execution; done closes when res/err are set.
type flightCall struct {
	done    chan struct{}
	waiting int
	res     *Result
	err     error
}

// do executes fn once per key among concurrent callers. The leader returns
// shared=false; followers park until the leader finishes (or their own
// context ends) and return shared=true. The key is removed before done is
// closed, so a caller arriving after completion starts a fresh flight — the
// group coalesces concurrency, it does not cache. A panic in fn becomes the
// flight's error, which the leader and every follower receive; the key is
// released either way, so a panicking run cannot strand later callers.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*Result, error)) (res *Result, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.waiting++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.res, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		if v := recover(); v != nil {
			c.res, c.err = nil, fmt.Errorf("experiment: run panicked: %v\n%s", v, debug.Stack())
			res, err = nil, c.err
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.res, c.err = fn()
	return c.res, false, c.err
}

// waiters reports how many followers are currently parked on key. Tests use
// it to release a blocked leader only once every concurrent caller has
// joined the flight, making coalescing assertions deterministic.
func (g *flightGroup) waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiting
	}
	return 0
}

// totalWaiters sums parked followers across every in-flight key.
func (g *flightGroup) totalWaiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, c := range g.m {
		n += c.waiting
	}
	return n
}

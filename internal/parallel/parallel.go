// Package parallel implements a small deterministic fork-join engine: bounded
// worker pools over an index space [0, n) whose results are bit-identical to
// serial execution regardless of worker count.
//
// Determinism comes from two rules that every helper follows:
//
//   - Tasks are identified by index, and outputs land at their index (Map) or
//     are consumed strictly in index order (ReduceOrdered); scheduling order
//     never reaches the caller.
//   - Worker panics are captured and converted into errors (PanicError), so a
//     buggy task fails the call instead of crashing the process.
//
// Cancellation is cooperative: the context is checked between tasks, never
// mid-task, so a cancelled call still returns only after in-flight tasks
// finish.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a worker task. The engine converts
// panics into errors so one bad task cannot take down the whole process.
// Error names the task and the panic value only; the stack stays in Stack,
// out of messages that may reach a client.
type PanicError struct {
	Index int         // index of the task that panicked
	Value interface{} // value passed to panic
	Stack []byte      // stack captured at recovery
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Index, e.Value)
}

// Workers normalizes a worker-count knob against n tasks: values <= 0 mean
// GOMAXPROCS, and the result never exceeds n (no idle goroutines) and is at
// least 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS; workers == 1 runs serially on the calling
// goroutine). fn must be safe for concurrent invocation on distinct indices.
//
// On failure, no new tasks are started and the error of the lowest-indexed
// failed task among those executed is returned; a panic inside fn is returned
// as a *PanicError. When ctx is cancelled, ForEach stops scheduling and
// returns ctx.Err() once in-flight tasks finish.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runTask(i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		firstErr error
		firstIdx int
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		stopped.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := runTask(i, fn); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runTask invokes fn(i), converting a panic into a *PanicError.
func runTask(i int, fn func(int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results indexed by task: out[i] = fn(i). Because each result
// lands at its own index, the output is bit-identical for every worker count.
// Error and cancellation semantics follow ForEach.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

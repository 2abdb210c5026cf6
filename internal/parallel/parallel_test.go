package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Errorf("Workers(8, 3) = %d, want 3", got)
	}
	if got := Workers(4, 100); got != 4 {
		t.Errorf("Workers(4, 100) = %d, want 4", got)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 13} {
		const n = 257
		hits := make([]atomic.Int64, n)
		err := ForEach(context.Background(), n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	called := false
	if err := ForEach(context.Background(), 0, 4, func(int) error { called = true; return nil }); err != nil || called {
		t.Errorf("n=0: err=%v called=%v", err, called)
	}
	if err := ForEach(context.Background(), -5, 4, func(int) error { called = true; return nil }); err != nil || called {
		t.Errorf("n<0: err=%v called=%v", err, called)
	}
}

func TestForEachReturnsError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 6} {
		err := ForEach(context.Background(), 100, workers, func(i int) error {
			if i == 37 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: err = %v, want sentinel", workers, err)
		}
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), 50, workers, func(i int) error {
			if i == 11 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 11 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError = {Index: %d, Value: %v, stack %d bytes}",
				workers, pe.Index, pe.Value, len(pe.Stack))
		}
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		err := ForEach(ctx, 1000, workers, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// A pre-cancelled context may let a few already-dispatched tasks run, but
	// nowhere near all of them.
	if ran.Load() >= 2000 {
		t.Errorf("cancelled run executed all %d tasks", ran.Load())
	}
}

func TestMapResultsByIndex(t *testing.T) {
	want := make([]int, 300)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got, err := Map(context.Background(), len(want), workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestReduceOrderedConsumesInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 9} {
		const n = 400
		var order []int
		err := ReduceOrdered(context.Background(), n, workers,
			func(i int) (int, error) {
				// Uneven task cost to shuffle completion order.
				s := 0
				for k := 0; k < (i%13)*50; k++ {
					s += k
				}
				_ = s
				return 3 * i, nil
			},
			func(i, v int) error {
				if v != 3*i {
					return fmt.Errorf("value for %d = %d", i, v)
				}
				order = append(order, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(order) != n {
			t.Fatalf("workers=%d: consumed %d of %d", workers, len(order), n)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: reduction order[%d] = %d", workers, i, got)
			}
		}
	}
}

func TestReduceOrderedDeterministicFloatSum(t *testing.T) {
	// Non-associative floating-point accumulation must be bit-identical for
	// every worker count.
	sum := func(workers int) float64 {
		acc := 0.0
		err := ReduceOrdered(context.Background(), 2000, workers,
			func(i int) (float64, error) { return 1.0 / float64(i+1), nil },
			func(_ int, v float64) error { acc += v; return nil })
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	base := sum(1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := sum(workers); got != base {
			t.Fatalf("workers=%d: sum %v != serial %v", workers, got, base)
		}
	}
}

func TestReduceOrderedMapErrorReportedAtFrontier(t *testing.T) {
	sentinel := errors.New("map failed")
	for _, workers := range []int{1, 5} {
		var consumed []int
		err := ReduceOrdered(context.Background(), 100, workers,
			func(i int) (int, error) {
				if i == 42 {
					return 0, sentinel
				}
				return i, nil
			},
			func(i, _ int) error {
				consumed = append(consumed, i)
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if len(consumed) != 42 {
			t.Errorf("workers=%d: consumed %d indices before the failure, want 42", workers, len(consumed))
		}
	}
}

func TestReduceOrderedReduceErrorAborts(t *testing.T) {
	sentinel := errors.New("reduce failed")
	for _, workers := range []int{1, 5} {
		calls := 0
		err := ReduceOrdered(context.Background(), 500, workers,
			func(i int) (int, error) { return i, nil },
			func(i, _ int) error {
				calls++
				if i == 7 {
					return sentinel
				}
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if calls != 8 {
			t.Errorf("workers=%d: reduce ran %d times, want 8", workers, calls)
		}
	}
}

func TestReduceOrderedPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ReduceOrdered(context.Background(), 64, workers,
			func(i int) (int, error) {
				if i == 20 {
					panic("map panic")
				}
				return i, nil
			},
			func(int, int) error { return nil })
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 20 {
			t.Fatalf("workers=%d: err = %v, want *PanicError at 20", workers, err)
		}
	}
}

func TestReduceOrderedCancellationStopsBetweenReductions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	consumed := 0
	err := ReduceOrdered(ctx, 1000, 4,
		func(i int) (int, error) { return i, nil },
		func(i, _ int) error {
			consumed++
			if i == 10 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if consumed != 11 {
		t.Errorf("consumed %d reductions, want 11 (cancellation checked between reductions)", consumed)
	}
}

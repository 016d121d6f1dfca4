// Package parallel is the bounded worker-pool primitive behind the
// schedule-priority portfolio and the feasibility analysis: both fan their
// independent work units out through it.
//
// The package is deliberately small and deterministic-by-construction:
//
//   - Results are collected positionally (each work unit owns slot i of a
//     caller-allocated slice), so the assembled output never depends on
//     goroutine interleaving.
//   - Errors are ranked by work-unit index and the lowest-index error is
//     returned — exactly the error a sequential left-to-right loop would
//     have stopped at.
//   - The concurrency knob is injectable everywhere (Options-style Workers
//     fields across the repository default to 0 = GOMAXPROCS); tests force
//     workers = 1 to obtain the reference sequential execution and assert
//     byte-identical outputs against workers = N.
//
// With workers <= 1 all helpers run inline on the calling goroutine — no
// goroutines, no channels — so the sequential path stays allocation-free
// and trivially race-free. With more workers, a panic in a work unit is
// caught on its goroutine and re-raised on the caller's (see PanicError),
// so a recover around the call sees it exactly as it would inline.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the value ForEach and Map re-raise on the calling
// goroutine when a work unit panics on a worker goroutine. Its message
// carries the worker's stack, which the re-raise would otherwise lose.
type PanicError struct {
	// Index is the work unit that panicked.
	Index int
	// Value is the value the unit panicked with.
	Value any
	// Stack is the worker goroutine's stack at the panic.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: work unit %d panicked: %v\n\nworker stack:\n%s", e.Index, e.Value, e.Stack)
}

// Workers resolves a concurrency knob: values >= 1 are used as given; zero
// and negative values select runtime.GOMAXPROCS(0).
func Workers(w int) int {
	if w >= 1 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(i) for every i in [0, n) using at most workers
// goroutines (0 = GOMAXPROCS). Work units must be independent; each should
// write its result into a caller-owned slot indexed by i so collection is
// deterministic.
//
// If any fn returns an error, ForEach returns the error with the lowest
// index — the same error a sequential loop would return — after all
// in-flight units finish; units not yet started are skipped. A nil ctx
// never cancels; with a cancelled ctx, ForEach stops dispatching and
// returns ctx.Err() unless an fn error outranks it. A panicking unit stops
// dispatch like an error; once every worker has returned, the panic with
// the lowest index is re-raised on the caller as a *PanicError.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		panicked *PanicError
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	run := func(i int) (err error) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if panicked == nil || i < panicked.Index {
					panicked = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
				}
				mu.Unlock()
				stop.Store(true)
				err = errPanicked
			}
		}()
		return fn(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || (ctx != nil && ctx.Err() != nil) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					if err != errPanicked {
						record(i, err)
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if firstErr != nil {
		return firstErr
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// errPanicked tells a worker loop that its unit panicked and the panic is
// already recorded.
var errPanicked = errors.New("parallel: work unit panicked")

// Map runs fn over [0, n) with bounded fan-out and returns the results in
// index order. On error the first (lowest-index) error is returned and the
// results are discarded.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
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

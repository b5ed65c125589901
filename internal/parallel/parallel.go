// Package parallel provides a bounded worker pool for running independent
// simulation trials concurrently with deterministic results.
//
// Experiments in this repository repeat every parameter point over many
// Monte-Carlo trials whose seeds are derived up front (rng.Derive of the
// root seed and the trial index), so trial i computes the same value no
// matter which goroutine runs it or in what order trials are scheduled. Map
// exploits that: it fans trials out over a fixed number of workers and
// returns results indexed by trial, so merging (summaries, table rows) sees
// exactly the order a serial loop would have produced. Identical tables come
// out for every worker count — the property internal/exper's determinism
// tests pin down.
//
// The pool is crash-contained and cancellable:
//
//   - A trial closure that panics no longer kills the process: the panic is
//     recovered and reported as a *TrialPanicError carrying the trial index
//     and stack. When several trials fail (errors or panics), the lowest
//     failing index wins the returned error — matching the engine's
//     lowest-failing-node convention — and the trials that completed keep
//     their slots in the returned slice.
//   - A canceled context stops workers from claiming new trials; in-flight
//     trials drain to completion (no goroutine is ever abandoned), and the
//     call reports a *CanceledError with the finished-trial count. If every
//     trial finished before the cancellation was observed, the run is a
//     normal success: attaching a context never changes the output of a run
//     that completes.
//
// On any error return, the result slice still carries the results of the
// trials that completed; indexes whose trials never ran (or panicked) hold
// zero values.
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

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// the process's GOMAXPROCS value.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// TrialPanicError reports a trial closure that panicked. The trial is
// quarantined: its slot in the result slice keeps its zero value, every
// other scheduled trial still runs, and the pool converts the panic into
// this error instead of crashing the process.
type TrialPanicError struct {
	// Trial is the index of the panicking invocation.
	Trial int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover time.
	Stack []byte
}

func (e *TrialPanicError) Error() string {
	return fmt.Sprintf("parallel: trial %d panicked: %v\n%s", e.Trial, e.Value, e.Stack)
}

// CanceledError reports a run stopped by its context before every trial
// finished. Finished counts fully completed trials — their results are in
// the slice returned alongside this error.
type CanceledError struct {
	// Cause is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Cause error
	// Finished is the number of trials that ran to completion.
	Finished int
	// Total is the number of trials requested.
	Total int
}

func (e *CanceledError) Error() string {
	if errors.Is(e.Cause, context.DeadlineExceeded) {
		return fmt.Sprintf("parallel: deadline exceeded after %d/%d trials", e.Finished, e.Total)
	}
	return fmt.Sprintf("parallel: run canceled after %d/%d trials", e.Finished, e.Total)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results indexed by i. workers <= 0 means DefaultWorkers();
// workers == 1 runs inline on the calling goroutine with no pool at all.
// ctx may be nil or context.Background() for an uncancellable run; a
// canceled context stops new trials from starting and surfaces a
// *CanceledError once in-flight trials drain.
//
// fn must be safe for concurrent invocation with distinct arguments; the
// usual way to get there is to derive all per-trial state (seeds, RNGs,
// assignments, engines) from the trial index inside fn and share nothing.
//
// If any invocation returns an error, Map reports the error of the
// lowest-numbered failing trial — the same error a serial loop would have
// surfaced first — wrapped with its index. All scheduled invocations still
// run to completion first, so fn must not depend on early exit.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapArena(ctx, n, workers, func() struct{} { return struct{}{} }, func(i int, _ struct{}) (T, error) {
		return fn(i)
	})
}

// MapArena is Map with a per-worker reusable scratch value: newArena runs
// once inside each worker goroutine (so arenas are never shared between
// goroutines and need no locking), and every fn invocation on that worker
// receives the same arena. Trial setup state that is expensive to build —
// engines, assignment builders, protocol node pools — lives in the arena and
// is regenerated in place each trial instead of reallocated.
//
// Because trial results must not depend on which worker (and hence which
// arena) runs them, fn must treat the arena as layout-only scratch: all
// randomness still derives from the trial index. Under that contract the
// results are identical for every worker count, arena or not.
func MapArena[T, A any](ctx context.Context, n, workers int, newArena func() A, fn func(i int, arena A) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}

	out := make([]T, n)
	var finished atomic.Int64

	// runTrial converts a panic in fn into a TrialPanicError. out[i] is
	// only assigned when fn returns, so a panicking trial leaves its slot
	// zero-valued rather than half-written.
	runTrial := func(i int, arena A) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &TrialPanicError{Trial: i, Value: p, Stack: debug.Stack()}
			}
		}()
		out[i], err = fn(i, arena)
		if err == nil {
			finished.Add(1)
		}
		return err
	}

	if workers == 1 {
		arena := newArena()
		// Match the pool's semantics: a failing trial does not stop the
		// remaining ones (the lowest failing index is reported at the end),
		// only cancellation stops new trials from starting.
		firstIdx, firstErr := -1, error(nil)
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			if err := runTrial(i, arena); err != nil && firstErr == nil {
				firstIdx, firstErr = i, err
			}
		}
		if firstErr != nil {
			return out, wrapTrial(firstIdx, firstErr)
		}
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil && int(finished.Load()) < n {
				return out, &CanceledError{Cause: cerr, Finished: int(finished.Load()), Total: n}
			}
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			arena := newArena()
			for {
				// Stop claiming once the context is done; trials already
				// claimed by other workers drain to completion before
				// MapArena returns, so cancellation never leaks a
				// goroutine or abandons a half-run trial.
				if ctx != nil && ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runTrial(i, arena)
			}
		}()
	}
	wg.Wait()

	// Report the lowest failing trial so the error is identical for every
	// worker count.
	for i, err := range errs {
		if err != nil {
			return out, wrapTrial(i, err)
		}
	}
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil && int(finished.Load()) < n {
			return out, &CanceledError{Cause: cerr, Finished: int(finished.Load()), Total: n}
		}
	}
	return out, nil
}

// wrapTrial tags a trial error with its index; panic errors already carry
// it and pass through unwrapped so errors.As callers see the concrete type.
func wrapTrial(i int, err error) error {
	var pe *TrialPanicError
	if errors.As(err, &pe) {
		return err
	}
	return fmt.Errorf("parallel: trial %d: %w", i, err)
}

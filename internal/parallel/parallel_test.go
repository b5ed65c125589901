package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cogradio/crn/internal/parallel"
)

func TestMapReturnsResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 64} {
		got, err := parallel.Map(context.Background(), 100, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNilContext(t *testing.T) {
	got, err := parallel.Map(nil, 10, 4, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 10 {
		t.Fatalf("Map(nil ctx) = %v, %v", got, err)
	}
}

func TestMapZeroTrials(t *testing.T) {
	got, err := parallel.Map(context.Background(), 0, 4, func(int) (int, error) { return 0, errors.New("never called") })
	if err != nil || got != nil {
		t.Fatalf("Map(0) = %v, %v; want nil, nil", got, err)
	}
}

func TestMapReportsLowestFailingIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := parallel.Map(context.Background(), 50, workers, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("%w at %d", boom, i)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "trial 3") {
			t.Errorf("workers=%d: err = %v, want the lowest failing trial (3)", workers, err)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	_, err := parallel.Map(context.Background(), 64, workers, func(i int) (struct{}, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		// Busy-wait a moment so goroutines overlap.
		for j := 0; j < 10000; j++ {
			_ = j
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent invocations, want <= %d", p, workers)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if parallel.DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", parallel.DefaultWorkers())
	}
}

// TestMapPanicAtTrialK is the regression test for the old behavior where a
// panicking trial closure crashed the whole process: the panic must come
// back as a typed error carrying the trial index and stack, and every trial
// below k must keep its completed result in the returned slice.
func TestMapPanicAtTrialK(t *testing.T) {
	const k, n = 7, 20
	for _, workers := range []int{1, 4} {
		got, err := parallel.Map(context.Background(), n, workers, func(i int) (int, error) {
			if i == k {
				panic(fmt.Sprintf("injected fault at trial %d", i))
			}
			return i * 10, nil
		})
		var pe *parallel.TrialPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want TrialPanicError", workers, err)
		}
		if pe.Trial != k {
			t.Errorf("workers=%d: panic reported for trial %d, want %d", workers, pe.Trial, k)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "parallel") {
			t.Errorf("workers=%d: panic stack missing or unhelpful: %q", workers, pe.Stack)
		}
		if !strings.Contains(err.Error(), "trial 7 panicked") || !strings.Contains(err.Error(), "injected fault") {
			t.Errorf("workers=%d: error text %q lacks trial index or panic value", workers, err)
		}
		// Trials below k ran to completion and their results survive.
		if got == nil {
			t.Fatalf("workers=%d: result slice dropped on panic; completed trials lost", workers)
		}
		for i := 0; i < k; i++ {
			if got[i] != i*10 {
				t.Errorf("workers=%d: completed trial %d result = %d, want %d", workers, i, got[i], i*10)
			}
		}
		if got[k] != 0 {
			t.Errorf("workers=%d: panicked trial slot = %d, want zero value", workers, got[k])
		}
	}
}

// TestMapArenaPanicIsolation covers the MapArena variant directly: the
// pool survives the recovery and later trials on the same worker still run.
func TestMapArenaPanicIsolation(t *testing.T) {
	const n = 16
	for _, workers := range []int{1, 3} {
		var ran atomic.Int64
		_, err := parallel.MapArena(context.Background(), n, workers,
			func() *int { v := 0; return &v },
			func(i int, scratch *int) (int, error) {
				ran.Add(1)
				*scratch++
				if i == 2 {
					panic("arena trial fault")
				}
				return *scratch, nil
			})
		var pe *parallel.TrialPanicError
		if !errors.As(err, &pe) || pe.Trial != 2 {
			t.Fatalf("workers=%d: err = %v, want TrialPanicError at trial 2", workers, err)
		}
		// Every scheduled trial still ran; the panic quarantined one trial,
		// not the worker or the pool.
		if got := ran.Load(); got != n {
			t.Errorf("workers=%d: %d/%d trials ran after the panic", workers, got, n)
		}
	}
}

func TestMapLowestPanicWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := parallel.Map(context.Background(), 30, workers, func(i int) (int, error) {
			if i == 5 || i == 23 {
				panic(i)
			}
			return i, nil
		})
		var pe *parallel.TrialPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want TrialPanicError", workers, err)
		}
		if pe.Trial != 5 {
			t.Errorf("workers=%d: reported trial %d, want the lowest panicking trial 5", workers, pe.Trial)
		}
	}
}

func TestMapPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		got, err := parallel.Map(ctx, 50, workers, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		var ce *parallel.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: err = %v, want CanceledError", workers, err)
		}
		if ce.Finished != 0 || ce.Total != 50 {
			t.Errorf("workers=%d: progress %d/%d, want 0/50", workers, ce.Finished, ce.Total)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: error chain misses context.Canceled", workers)
		}
		if want := "parallel: run canceled after 0/50 trials"; err.Error() != want {
			t.Errorf("workers=%d: error text %q, want %q", workers, err, want)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d trials ran under a pre-canceled context", workers, ran.Load())
		}
		if got == nil {
			t.Errorf("workers=%d: want non-nil (empty) partial results", workers)
		}
	}
}

func TestMapMidRunCancelDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 200
	var finished atomic.Int64
	got, err := parallel.Map(ctx, n, 4, func(i int) (int, error) {
		if i == 10 {
			cancel()
		}
		finished.Add(1)
		return i + 1, nil
	})
	var ce *parallel.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CanceledError", err)
	}
	if ce.Finished != int(finished.Load()) {
		t.Errorf("reported %d finished trials, counted %d", ce.Finished, finished.Load())
	}
	if ce.Finished == 0 || ce.Finished >= n {
		t.Errorf("finished = %d, want a strict mid-run partial count", ce.Finished)
	}
	// Every trial that completed has its result in the slice.
	seen := 0
	for i, v := range got {
		if v != 0 {
			if v != i+1 {
				t.Errorf("partial result[%d] = %d, want %d", i, v, i+1)
			}
			seen++
		}
	}
	if seen != ce.Finished {
		t.Errorf("slice carries %d results, error reports %d finished", seen, ce.Finished)
	}
}

func TestMapCompletedRunIgnoresLateCancel(t *testing.T) {
	// If every trial finishes before the cancel is observed, the run is a
	// success: attaching a context must not change a completing run.
	ctx, cancel := context.WithCancel(context.Background())
	got, err := parallel.Map(ctx, 8, 1, func(i int) (int, error) {
		if i == 7 {
			defer cancel() // fires after the final trial's body completes
		}
		return i, nil
	})
	if err != nil {
		t.Fatalf("completed run reported %v", err)
	}
	if len(got) != 8 {
		t.Fatalf("got %d results", len(got))
	}
}

func TestMapDeadlineErrorText(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := parallel.Map(ctx, 3, 1, func(i int) (int, error) { return i, nil })
	var ce *parallel.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CanceledError", err)
	}
	if want := "parallel: deadline exceeded after 0/3 trials"; err.Error() != want {
		t.Errorf("error text %q, want %q", err, want)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("error chain misses context.DeadlineExceeded")
	}
}

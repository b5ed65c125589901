// Package chaos injects infrastructure faults into the simulation stack —
// contexts that cancel at exact slot counts, panicking trial closures,
// artificially slow assignment shards — and houses the property suite that
// asserts the resilience substrate holds up under them: no goroutine
// leaks, no torn trace files, byte-identical output for runs that
// complete, and deterministic cancellation errors.
//
// The faults here are *infrastructure* faults (the process misbehaving),
// distinct from the *simulated* faults of package faults and the
// adversaries of package adversary (the network misbehaving). Nothing in
// this package is used by production code paths; protocols and engines
// never import it.
package chaos

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/cogradio/crn/internal/sim"
)

// CancelAfterChecks returns a context that cancels itself after its Err
// method has been consulted n times: calls 1..n report the context alive,
// every later call reports context.Canceled. The engine consults the
// context exactly once per slot boundary, so CancelAfterChecks(n) cancels
// a single-engine run after exactly n fully executed slots — wall-clock
// plays no part, making cancellation tests deterministic.
//
// The Done channel closes when the cancellation trips. The context is
// safe for concurrent use, but slot-exactness only holds when one engine
// consults it (concurrent consumers race for the remaining checks).
func CancelAfterChecks(n int) context.Context {
	return &checkContext{remaining: n, done: make(chan struct{})}
}

type checkContext struct {
	mu        sync.Mutex
	remaining int
	closed    bool
	done      chan struct{}
}

func (c *checkContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *checkContext) Done() <-chan struct{}       { return c.done }
func (c *checkContext) Value(any) any               { return nil }

func (c *checkContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	return context.Canceled
}

// SlowAssignment wraps an assignment with deterministic scheduler drag:
// ChannelSet calls for nodes whose id is a multiple of Stride yield the
// processor Yields times before answering. Under a sharded engine scan
// this makes some shards run much slower than others — the load imbalance
// a slow core or a noisy neighbor would cause — without changing a single
// result byte: the wrapper adds no randomness and forwards the
// concurrency and slot-invariance capabilities of the wrapped assignment,
// so the engine shards exactly as it would have.
type SlowAssignment struct {
	sim.Assignment
	// Stride selects the slow nodes (every Stride-th id; <= 0 slows none).
	Stride int
	// Yields is the number of runtime.Gosched calls per slow lookup.
	Yields int
}

func (s *SlowAssignment) ChannelSet(node sim.NodeID, slot int) []int {
	if s.Stride > 0 && int(node)%s.Stride == 0 {
		for i := 0; i < s.Yields; i++ {
			runtime.Gosched()
		}
	}
	return s.Assignment.ChannelSet(node, slot)
}

// FixedChannelSets forwards the wrapped assignment's capability so sharded
// and sparse scans keep their mode under the drag.
func (s *SlowAssignment) FixedChannelSets() bool { return sim.Fixed(s.Assignment) }

// LeakCheck snapshots the live goroutine count and returns a function that
// asserts the count settled back. Call it at the top of a test, defer the
// result. Drained worker pools unwind asynchronously after wg.Wait
// returns, so the check polls with a grace period before failing, and on
// failure dumps every goroutine stack.
func LeakCheck(t testing.TB) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		after := settleGoroutines(before, 2*time.Second)
		if after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
		}
	}
}

// VerifyNoLeaks runs a package's tests with a goroutine-leak gate around
// the whole run: use it from TestMain as os.Exit(chaos.VerifyNoLeaks(m)).
// A passing test run that leaves more goroutines than it started with
// (after a settle period) turns into a failure.
func VerifyNoLeaks(m *testing.M) int {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code != 0 {
		return code
	}
	after := settleGoroutines(before, 3*time.Second)
	if after > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "chaos: goroutine leak after tests: %d before, %d after\n%s\n", before, after, buf[:n])
		return 1
	}
	return code
}

// settleGoroutines polls the goroutine count until it drops to the target
// or the grace period expires, returning the final count.
func settleGoroutines(target int, grace time.Duration) int {
	deadline := time.Now().Add(grace)
	for {
		n := runtime.NumGoroutine()
		if n <= target || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package exper

import (
	"errors"
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/chaos"
	"github.com/cogradio/crn/internal/parallel"
	"github.com/cogradio/crn/internal/sim"
)

// TestFaultRobustnessHonoursContext pins that E20 runs both of its arms
// under the suite's context: a cancellation that trips inside the first
// trial stops that trial's engine with *sim.Interrupted. An arm that
// ignores the context runs to its end, leaving only the pool's checks
// between trials to notice (a *parallel.CanceledError), or nobody at all.
// The pool consumes one context check before the trial,
// the engine one per slot; COGCAST finishes the first trial's broadcast in
// about a dozen slots, so 5 checks trip inside its arm and 40 inside
// COGCOMP's.
func TestFaultRobustnessHonoursContext(t *testing.T) {
	e, err := ByID("E20")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		checks int
		inComp bool
	}{{5, false}, {40, true}} {
		_, err := e.Run(Config{Seed: 1, Trials: 1, Parallel: 1, Quick: true, Context: chaos.CancelAfterChecks(c.checks)})
		var it *sim.Interrupted
		var ce *parallel.CanceledError
		if !errors.As(err, &it) || errors.As(err, &ce) {
			t.Fatalf("checks=%d: err = %v, want a *sim.Interrupted from inside the trial", c.checks, err)
		}
		if got := strings.Contains(err.Error(), "cogcomp:"); got != c.inComp {
			t.Errorf("checks=%d: err = %v, want it from the COGCOMP arm: %v", c.checks, err, c.inComp)
		}
	}
}

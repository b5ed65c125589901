package cogcomp_test

import (
	"reflect"
	"testing"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
)

// TestCheckedAggregationMatchesUnchecked pins that attaching the invariant
// oracle (slot re-verification, tree/census checks, aggregate ground truth)
// neither perturbs nor fails a healthy COGCOMP run.
func TestCheckedAggregationMatchesUnchecked(t *testing.T) {
	const n, c, k = 40, 6, 2
	asn, err := assign.Partitioned(n, c, k, assign.LocalLabels, 2)
	if err != nil {
		t.Fatal(err)
	}
	funcs := []aggfunc.Func{aggfunc.Sum{}, aggfunc.Min{}, aggfunc.Stats{}, aggfunc.Collect{}}
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64(3*i - 17)
	}
	for _, f := range funcs {
		t.Run(f.Name(), func(t *testing.T) {
			plain, err := cogcomp.Run(asn, 0, inputs, 5, cogcomp.Config{Func: f})
			if err != nil {
				t.Fatal(err)
			}
			checked, err := cogcomp.Run(asn, 0, inputs, 5, cogcomp.Config{Func: f, Check: true})
			if err != nil {
				t.Fatalf("checked run failed: %v", err)
			}
			if !reflect.DeepEqual(plain, checked) {
				t.Errorf("checked result diverges from unchecked:\n  plain:   %+v\n  checked: %+v", plain, checked)
			}
		})
	}
}

// TestCheckedSession pins the oracle on the multi-round session path,
// including per-round aggregate ground truth.
func TestCheckedSession(t *testing.T) {
	const n, c, k = 32, 6, 2
	asn, err := assign.SharedCore(n, c, k, 18, assign.LocalLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([][]int64, 3)
	for r := range rounds {
		rounds[r] = make([]int64, n)
		for i := range rounds[r] {
			rounds[r][i] = int64(r*100 + i)
		}
	}
	var arena cogcomp.Arena
	res, err := arena.RunRounds(asn, 0, rounds, 7, cogcomp.SessionConfig{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	for r := range rounds {
		want := aggfunc.Fold(aggfunc.Sum{}, rounds[r])
		if res.Values[r] != want {
			t.Errorf("round %d: value %v, want %v", r, res.Values[r], want)
		}
	}
}

// countingAsn is a static assignment that counts ChannelSet calls. It
// embeds *assign.Static, so it still satisfies sim.Fixed.
type countingAsn struct {
	*assign.Static
	calls int
}

func (a *countingAsn) ChannelSet(u sim.NodeID, slot int) []int {
	a.calls++
	return a.Static.ChannelSet(u, slot)
}

// TestCheckedCensusParkWork pins the oracle's cost on a checked sparse
// census. Census listeners quiet-park on their channel for the Θ(n)-slot
// window, and the oracle checks a park once, when it starts, rather than
// re-deriving every parked listener's membership in every slot. Over the
// census window its ChannelSet calls, one per stepped participant per slot
// plus one per park, must stay far below one per node per slot.
func TestCheckedCensusParkWork(t *testing.T) {
	const n, c, k = 400, 16, 4
	asn, err := assign.SharedCore(n, c, k, 48, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingAsn{Static: asn}
	ck := new(invariant.Checker)
	ck.Reset(counted, sim.UniformWinner)
	var calls []int // calls[s]: ChannelSet calls once slot s was checked
	obs := sim.ObserverFunc(func(slot int, outcomes []sim.ChannelOutcome) {
		ck.OnSlot(slot, outcomes)
		calls = append(calls, counted.calls)
	})
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64(i)
	}
	res, err := cogcomp.Run(asn, 0, inputs, 1, cogcomp.Config{Sparse: true, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("oracle violation (%d total): %v", ck.Violations(), err)
	}
	from, slots := res.Phase1Slots, res.Phase2Slots
	got := calls[from+slots-1] - calls[from-1]
	if limit := n * slots / 10; got >= limit {
		t.Errorf("oracle made %d ChannelSet calls over the %d-slot census, want < n·slots/10 = %d", got, slots, limit)
	}
}

package cogcomp_test

import (
	"reflect"
	"testing"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcomp"
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

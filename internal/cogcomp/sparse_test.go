package cogcomp_test

import (
	"bytes"
	"io"
	"testing"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/trace"
)

// TestSparseMatchesDense is COGCOMP's sparse-vs-dense equivalence test: with
// event-driven stepping the census window and phase-four holding patterns
// are mostly skipped, yet every observable — aggregate, slot counts, phase
// breakdown, tree, mediators, message sizes — must match the dense run
// exactly, across topologies, aggregate functions and seeds. Both sides run
// under the oracle and a JSONL trace, which must not stop the sparse side
// from stepping sparsely, and the traces must be byte-identical: the census
// window's parked listeners are reported exactly as dense stepping reports
// them.
func TestSparseMatchesDense(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(seed int64) (*assign.Static, error)
	}{
		{"partitioned", func(seed int64) (*assign.Static, error) {
			return assign.Partitioned(24, 6, 3, assign.LocalLabels, seed)
		}},
		{"shared-core", func(seed int64) (*assign.Static, error) {
			return assign.SharedCore(16, 6, 2, 18, assign.LocalLabels, seed)
		}},
		{"full-overlap", func(seed int64) (*assign.Static, error) {
			return assign.FullOverlap(12, 4, assign.GlobalLabels, seed)
		}},
	}
	funcs := []aggfunc.Func{aggfunc.Sum{}, aggfunc.Min{}, aggfunc.Collect{}}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				seed := int64(500 + trial)
				asn, err := sh.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				inputs := trialInputs(asn.Nodes(), int64(trial))
				f := funcs[trial%len(funcs)]
				run := func(sparse bool) (*cogcomp.Result, []byte, error) {
					cfg := cogcomp.Config{Func: f, Check: true, Sparse: sparse, Trace: trace.NewJSONL(io.Discard)}
					_, eng, _, err := new(cogcomp.Arena).Prepare(asn, 0, inputs, seed, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if eng.Sparse() != sparse {
						t.Fatalf("trial %d: checked, traced engine Sparse() = %v, want %v", trial, eng.Sparse(), sparse)
					}
					var buf bytes.Buffer
					cfg.Trace = trace.NewJSONL(&buf)
					res, err := cogcomp.Run(asn, 0, inputs, seed, cfg)
					return res, buf.Bytes(), err
				}
				want, wantTrace, wantErr := run(false)
				got, gotTrace, gotErr := run(true)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("trial %d: error mismatch: dense %v, sparse %v", trial, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Fatalf("trial %d: sparse trace (%d bytes) != dense trace (%d bytes)", trial, len(gotTrace), len(wantTrace))
				}
				if !invariant.AggEqual(got.Value, want.Value) {
					t.Fatalf("trial %d: sparse value %v != dense %v", trial, got.Value, want.Value)
				}
				if got.TotalSlots != want.TotalSlots || got.Complete != want.Complete ||
					got.Phase1Slots != want.Phase1Slots || got.Phase2Slots != want.Phase2Slots ||
					got.Phase3Slots != want.Phase3Slots || got.Phase4Slots != want.Phase4Slots ||
					got.InformedAfterPhase1 != want.InformedAfterPhase1 ||
					got.MaxMessageSize != want.MaxMessageSize || got.Mediators != want.Mediators {
					t.Fatalf("trial %d: sparse result %+v != dense %+v", trial, got, want)
				}
				for i := range want.Parents {
					if got.Parents[i] != want.Parents[i] {
						t.Fatalf("trial %d node %d: sparse parent %d != dense %d", trial, i, got.Parents[i], want.Parents[i])
					}
				}
			}
		})
	}
}

// TestSparseSessionMatchesDense covers the multi-round session path: parked
// round-finished nodes must wake exactly at round boundaries, reproducing
// the dense session value for value, completion flag and finish step. Both
// sides run under the oracle.
func TestSparseSessionMatchesDense(t *testing.T) {
	const n = 16
	for trial := 0; trial < 3; trial++ {
		seed := int64(60 + trial)
		asn, err := assign.SharedCore(n, 6, 2, 18, assign.LocalLabels, seed)
		if err != nil {
			t.Fatal(err)
		}
		rounds := make([][]int64, 4)
		for r := range rounds {
			rounds[r] = trialInputs(n, int64(r*10+trial))
		}
		want, wantErr := cogcomp.RunRounds(asn, 0, rounds, seed, cogcomp.SessionConfig{Check: true})
		got, gotErr := cogcomp.RunRounds(asn, 0, rounds, seed, cogcomp.SessionConfig{Check: true, Sparse: true})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: dense %v, sparse %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if got.TotalSlots != want.TotalSlots || got.SetupSlots != want.SetupSlots {
			t.Fatalf("trial %d: sparse slots (%d,%d) != dense (%d,%d)", trial,
				got.TotalSlots, got.SetupSlots, want.TotalSlots, want.SetupSlots)
		}
		for r := range want.Values {
			if !invariant.AggEqual(got.Values[r], want.Values[r]) || got.Complete[r] != want.Complete[r] ||
				got.FinishSteps[r] != want.FinishSteps[r] {
				t.Fatalf("trial %d round %d: sparse (%v,%v,%d) != dense (%v,%v,%d)", trial, r,
					got.Values[r], got.Complete[r], got.FinishSteps[r],
					want.Values[r], want.Complete[r], want.FinishSteps[r])
			}
		}
	}
}

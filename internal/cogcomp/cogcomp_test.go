package cogcomp_test

import (
	"errors"
	"testing"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/sim"
)

func inputsFor(n int, seed int64) []int64 {
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64((seed+int64(i)*7919)%1000) - 500
	}
	return inputs
}

func TestAggregateSumFullOverlap(t *testing.T) {
	const n, c = 32, 4
	asn, err := assign.FullOverlap(n, c, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsFor(n, 1)
	res, err := cogcomp.Run(asn, 0, inputs, 1, cogcomp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := aggfunc.Fold(aggfunc.Sum{}, inputs)
	if res.Value != want {
		t.Fatalf("aggregate = %v, want %v", res.Value, want)
	}
	if !res.Complete {
		t.Error("run not complete")
	}
}

func TestAggregateAcrossTopologiesAndSeeds(t *testing.T) {
	type topo struct {
		name  string
		build func(seed int64) (sim.Assignment, error)
	}
	const n = 40
	topos := []topo{
		{"full-overlap", func(s int64) (sim.Assignment, error) {
			return assign.FullOverlap(n, 6, assign.LocalLabels, s)
		}},
		{"partitioned", func(s int64) (sim.Assignment, error) {
			return assign.Partitioned(n, 6, 2, assign.LocalLabels, s)
		}},
		{"shared-core", func(s int64) (sim.Assignment, error) {
			return assign.SharedCore(n, 8, 3, 24, assign.LocalLabels, s)
		}},
		{"random-pool", func(s int64) (sim.Assignment, error) {
			return assign.RandomPool(n, 12, 2, 24, assign.LocalLabels, s)
		}},
		{"global-labels", func(s int64) (sim.Assignment, error) {
			return assign.SharedCore(n, 8, 3, 24, assign.GlobalLabels, s)
		}},
	}
	for _, tp := range topos {
		t.Run(tp.name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				asn, err := tp.build(seed)
				if err != nil {
					t.Fatal(err)
				}
				inputs := inputsFor(n, seed)
				res, err := cogcomp.Run(asn, 0, inputs, seed, cogcomp.Config{})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				want := aggfunc.Fold(aggfunc.Sum{}, inputs)
				if res.Value != want {
					t.Fatalf("seed %d: aggregate = %v, want %v", seed, res.Value, want)
				}
			}
		})
	}
}

func TestAggregateAllFunctions(t *testing.T) {
	const n = 24
	asn, err := assign.SharedCore(n, 6, 2, 18, assign.LocalLabels, 5)
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsFor(n, 5)
	funcs := []aggfunc.Func{aggfunc.Sum{}, aggfunc.Count{}, aggfunc.Min{}, aggfunc.Max{}, aggfunc.Stats{}}
	for _, f := range funcs {
		t.Run(f.Name(), func(t *testing.T) {
			res, err := cogcomp.Run(asn, 0, inputs, 5, cogcomp.Config{Func: f})
			if err != nil {
				t.Fatal(err)
			}
			want := aggfunc.Fold(f, inputs)
			if res.Value != want {
				t.Fatalf("aggregate = %v, want %v", res.Value, want)
			}
		})
	}
}

func TestAggregateCollectGathersEveryone(t *testing.T) {
	const n = 20
	asn, err := assign.FullOverlap(n, 4, assign.LocalLabels, 9)
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsFor(n, 9)
	res, err := cogcomp.Run(asn, 0, inputs, 9, cogcomp.Config{Func: aggfunc.Collect{}})
	if err != nil {
		t.Fatal(err)
	}
	entries := res.Value.([]aggfunc.Entry)
	if len(entries) != n {
		t.Fatalf("collected %d entries, want %d", len(entries), n)
	}
	seen := make(map[sim.NodeID]int64, n)
	for _, e := range entries {
		if _, dup := seen[e.ID]; dup {
			t.Fatalf("node %d collected twice", e.ID)
		}
		seen[e.ID] = e.Input
	}
	for i, want := range inputs {
		if got := seen[sim.NodeID(i)]; got != want {
			t.Errorf("node %d input %d, want %d", i, got, want)
		}
	}
}

func TestNonZeroSource(t *testing.T) {
	const n = 30
	asn, err := assign.SharedCore(n, 6, 2, 12, assign.LocalLabels, 11)
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsFor(n, 11)
	// Check validates the distribution tree against the phase-one census.
	res, err := cogcomp.Run(asn, 17, inputs, 11, cogcomp.Config{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := aggfunc.Fold(aggfunc.Sum{}, inputs); res.Value != want {
		t.Fatalf("aggregate = %v, want %v", res.Value, want)
	}
	if res.InformedAfterPhase1 != n {
		t.Errorf("distribution tree spans %d of %d nodes", res.InformedAfterPhase1, n)
	}
}

func TestSingleNodeNetwork(t *testing.T) {
	asn, err := assign.FullOverlap(1, 3, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcomp.Run(asn, 0, []int64{42}, 1, cogcomp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != int64(42) {
		t.Fatalf("aggregate = %v, want 42", res.Value)
	}
}

func TestTwoNodeNetwork(t *testing.T) {
	asn, err := assign.FullOverlap(2, 2, assign.LocalLabels, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcomp.Run(asn, 0, []int64{10, 32}, 2, cogcomp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != int64(42) {
		t.Fatalf("aggregate = %v, want 42", res.Value)
	}
}

func TestPhaseAccounting(t *testing.T) {
	const n = 32
	asn, err := assign.FullOverlap(n, 4, assign.LocalLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcomp.Run(asn, 0, inputsFor(n, 3), 3, cogcomp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phase2Slots != n {
		t.Errorf("phase 2 = %d slots, want n = %d", res.Phase2Slots, n)
	}
	if res.Phase1Slots != res.Phase3Slots {
		t.Errorf("phase 3 (%d) must mirror phase 1 (%d)", res.Phase3Slots, res.Phase1Slots)
	}
	if got := res.Phase1Slots + res.Phase2Slots + res.Phase3Slots + res.Phase4Slots; got != res.TotalSlots {
		t.Errorf("phases sum to %d, total %d", got, res.TotalSlots)
	}
	// Termination is discovered at the first sub-slot of a step, so phase
	// four ends one slot into a step.
	if res.Phase4Slots%3 != 1 && res.Phase4Slots != 0 {
		t.Errorf("phase 4 = %d slots, want 1 mod 3 (full steps plus the termination check)", res.Phase4Slots)
	}
}

func TestPhaseFourLinearInN(t *testing.T) {
	// Theorem 10: phase four takes O(n) slots. Check the per-node step cost
	// stays bounded as n quadruples.
	perNode := func(n int) float64 {
		asn, err := assign.FullOverlap(n, 8, assign.LocalLabels, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cogcomp.Run(asn, 0, inputsFor(n, 7), 7, cogcomp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Phase4Slots) / float64(n)
	}
	small, large := perNode(64), perNode(256)
	if large > 3*small+3 {
		t.Errorf("phase-4 slots/n grew from %.2f to %.2f; not linear", small, large)
	}
}

func TestMediatorsOnePerUsedChannel(t *testing.T) {
	const n, c = 48, 6
	asn, err := assign.FullOverlap(n, c, assign.LocalLabels, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcomp.Run(asn, 0, inputsFor(n, 13), 13, cogcomp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mediators < 1 || res.Mediators > c {
		t.Errorf("mediators = %d, want between 1 and c=%d", res.Mediators, c)
	}
}

func TestAssociativeMessagesStaySmall(t *testing.T) {
	// Section 5 discussion: associative aggregates keep messages constant
	// size, collect-all grows with the subtree.
	const n = 64
	asn, err := assign.FullOverlap(n, 4, assign.LocalLabels, 17)
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsFor(n, 17)
	sum, err := cogcomp.Run(asn, 0, inputs, 17, cogcomp.Config{Func: aggfunc.Sum{}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.MaxMessageSize != 1 {
		t.Errorf("sum max message = %d words, want 1", sum.MaxMessageSize)
	}
	col, err := cogcomp.Run(asn, 0, inputs, 17, cogcomp.Config{Func: aggfunc.Collect{}})
	if err != nil {
		t.Fatal(err)
	}
	if col.MaxMessageSize <= sum.MaxMessageSize {
		t.Errorf("collect max message = %d, want > sum's %d", col.MaxMessageSize, sum.MaxMessageSize)
	}
}

func TestRunValidation(t *testing.T) {
	asn, err := assign.FullOverlap(4, 2, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cogcomp.Run(asn, 9, make([]int64, 4), 1, cogcomp.Config{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := cogcomp.Run(asn, 0, make([]int64, 3), 1, cogcomp.Config{}); err == nil {
		t.Error("input count mismatch accepted")
	}
}

func TestIncompletePhaseOneReported(t *testing.T) {
	// Starve phase one (tiny kappa) so some nodes stay uninformed; the run
	// must report incompleteness rather than return a silently wrong sum.
	const n = 64
	asn, err := assign.Partitioned(n, 16, 1, assign.LocalLabels, 19)
	if err != nil {
		t.Fatal(err)
	}
	sawIncomplete := false
	for seed := int64(0); seed < 8; seed++ {
		res, err := cogcomp.Run(asn, 0, inputsFor(n, seed), seed, cogcomp.Config{Kappa: 0.05})
		if err == nil {
			continue // got lucky, everyone informed
		}
		if errors.Is(err, cogcomp.ErrIncomplete) {
			sawIncomplete = true
			if res == nil || res.Complete {
				t.Error("ErrIncomplete with complete result")
			}
			if res.InformedAfterPhase1 >= n {
				t.Error("ErrIncomplete but everyone informed")
			}
			continue
		}
		t.Fatalf("seed %d: unexpected error %v", seed, err)
	}
	if !sawIncomplete {
		t.Skip("starved phase one still informed everyone on all seeds; harmless but unexpected")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	const n = 24
	asn, err := assign.SharedCore(n, 6, 2, 12, assign.LocalLabels, 23)
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsFor(n, 23)
	a, err := cogcomp.Run(asn, 0, inputs, 23, cogcomp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cogcomp.Run(asn, 0, inputs, 23, cogcomp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSlots != b.TotalSlots || a.Value != b.Value {
		t.Errorf("identical seeds diverged: %d/%v vs %d/%v", a.TotalSlots, a.Value, b.TotalSlots, b.Value)
	}
	for i := range a.Parents {
		if a.Parents[i] != b.Parents[i] {
			t.Fatalf("trees diverged at node %d", i)
		}
	}
}

func TestLargerNetworkStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n = 400
	asn, err := assign.SharedCore(n, 10, 3, 40, assign.LocalLabels, 29)
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsFor(n, 29)
	// Check validates the distribution tree against the phase-one census.
	res, err := cogcomp.Run(asn, 0, inputs, 29, cogcomp.Config{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := aggfunc.Fold(aggfunc.Sum{}, inputs); res.Value != want {
		t.Fatalf("aggregate = %v, want %v", res.Value, want)
	}
	if res.InformedAfterPhase1 != n {
		t.Errorf("distribution tree spans %d of %d nodes", res.InformedAfterPhase1, n)
	}
}

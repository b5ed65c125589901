package cogcast_test

import (
	"reflect"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/sim"
)

// TestCheckedRunMatchesUnchecked pins the oracle's non-interference: a run
// with the invariant checker attached must report zero violations and
// produce a result identical to the unchecked run (the engine draws
// randomness only where the protocol needs it, so observation cannot
// perturb the trajectory).
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	const n, c, k = 48, 8, 2
	topos := map[string]func() (sim.Assignment, error){
		"partitioned": func() (sim.Assignment, error) {
			return assign.Partitioned(n, c, k, assign.LocalLabels, 2)
		},
		"shared-core": func() (sim.Assignment, error) {
			return assign.SharedCore(n, c, k, 4*c, assign.LocalLabels, 3)
		},
		"dynamic": func() (sim.Assignment, error) {
			return assign.NewDynamic(n, c, k, 3*c, 5)
		},
	}
	for name, build := range topos {
		t.Run(name, func(t *testing.T) {
			asn, err := build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 50000}
			plain, err := cogcast.Run(asn, 0, "m", 6, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Check = true
			checked, err := cogcast.Run(asn, 0, "m", 6, cfg)
			if err != nil {
				t.Fatalf("checked run failed: %v", err)
			}
			if !reflect.DeepEqual(plain, checked) {
				t.Errorf("checked result diverges from unchecked:\n  plain:   %+v\n  checked: %+v", plain, checked)
			}
		})
	}
}

// TestCheckedArenaPoolsTallies pins the arena-level wiring: checked runs
// on one arena share its checker, pooling winner-position tallies over
// seeds, and the pooled uniformity test does not reject. (The heavyweight
// statistical test with dense contention lives in package invariant.)
func TestCheckedArenaPoolsTallies(t *testing.T) {
	asn, err := assign.FullOverlap(24, 3, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	var arena cogcast.Arena
	for seed := int64(0); seed < 40; seed++ {
		if _, err := arena.Run(asn, 0, "m", seed, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 20000, Check: true}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	ck := arena.Checker()
	if ck.Tallied() == 0 {
		t.Fatal("no contended channels tallied across 40 seeds")
	}
	if err := ck.Uniformity(1e-3); err != nil {
		t.Error(err)
	}
}

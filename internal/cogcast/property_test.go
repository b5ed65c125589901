package cogcast_test

import (
	"testing"
	"testing/quick"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
)

// TestBroadcastTreeProperty: for arbitrary small shared-core parameters and
// seeds, a completed broadcast always yields a valid spanning tree whose
// edges respect informedness order. This is the structural foundation
// COGCOMP builds on, so it gets a property-level check beyond the targeted
// tests.
func TestBroadcastTreeProperty(t *testing.T) {
	prop := func(seed int64, nRaw, cRaw, kRaw, srcRaw uint8) bool {
		n := int(nRaw%30) + 2
		c := int(cRaw%8) + 1
		k := int(kRaw)%c + 1
		src := int(srcRaw) % n
		asn, err := assign.SharedCore(n, c, k, c+6, assign.LocalLabels, seed)
		if err != nil {
			return false
		}
		budget := 256 * cogcast.SlotBound(n, c, k, cogcast.DefaultKappa)
		res, err := cogcast.Run(asn, sim.NodeID(src), "m", seed, cogcast.RunConfig{
			UntilAllInformed: true, MaxSlots: budget,
		})
		if err != nil || !res.AllInformed {
			return false
		}
		// A spanning tree: every node informed, each strictly after its parent.
		return invariant.CheckBroadcastTree(n, sim.NodeID(src), res.Parents, res.InformedSlots, true) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeNetworkStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n, c, k = 2048, 16, 4
	asn, err := assign.SharedCore(n, c, k, 64, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcast.Run(asn, 0, "m", 1, cogcast.RunConfig{
		UntilAllInformed: true,
		MaxSlots:         64 * cogcast.SlotBound(n, c, k, cogcast.DefaultKappa),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("n=2048 broadcast incomplete after %d slots", res.Slots)
	}
	if err := invariant.CheckBroadcastTree(n, 0, res.Parents, res.InformedSlots, true); err != nil {
		t.Errorf("tree not spanning at n=2048: %v", err)
	}
}

package cogcast_test

import (
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/sim"
)

// TestArenaMatchesFresh is the reuse-vs-fresh equivalence test for COGCAST:
// a warm arena cycling through trials of varying seeds, shapes and configs
// must reproduce every fresh Run result exactly.
func TestArenaMatchesFresh(t *testing.T) {
	arena := &cogcast.Arena{}
	shapes := []struct{ n, c, k, C int }{
		{16, 6, 2, 24},
		{8, 4, 2, 16},
		{32, 6, 2, 24},
	}
	for trial := 0; trial < 6; trial++ {
		sh := shapes[trial%len(shapes)]
		seed := int64(100 + trial)
		asn, err := assign.SharedCore(sh.n, sh.c, sh.k, sh.C, assign.LocalLabels, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cogcast.RunConfig{UntilAllInformed: trial%2 == 0, Trajectory: true}
		want, err := cogcast.Run(asn, 0, "m", seed, cfg)
		if err != nil {
			t.Fatalf("trial %d fresh: %v", trial, err)
		}
		got, err := arena.Run(asn, 0, "m", seed, cfg)
		if err != nil {
			t.Fatalf("trial %d arena: %v", trial, err)
		}
		if got.Slots != want.Slots || got.AllInformed != want.AllInformed {
			t.Fatalf("trial %d: (slots=%d informed=%v) != fresh (slots=%d informed=%v)",
				trial, got.Slots, got.AllInformed, want.Slots, want.AllInformed)
		}
		for i := range want.Parents {
			if got.Parents[i] != want.Parents[i] || got.InformedSlots[i] != want.InformedSlots[i] {
				t.Fatalf("trial %d node %d: parent/slot (%d,%d) != fresh (%d,%d)", trial, i,
					got.Parents[i], got.InformedSlots[i], want.Parents[i], want.InformedSlots[i])
			}
		}
		if len(got.Trajectory) != len(want.Trajectory) {
			t.Fatalf("trial %d: trajectory length %d != %d", trial, len(got.Trajectory), len(want.Trajectory))
		}
		for s := range want.Trajectory {
			if got.Trajectory[s] != want.Trajectory[s] {
				t.Fatalf("trial %d slot %d: trajectory %d != %d", trial, s, got.Trajectory[s], want.Trajectory[s])
			}
		}
	}
}

// TestReinitMatchesNew pins the node-level contract directly: a node that
// has stepped through a run and is then reinitialized must draw the same
// channel sequence as a fresh node.
func TestReinitMatchesNew(t *testing.T) {
	asn, err := assign.FullOverlap(4, 8, assign.LocalLabels, 5)
	if err != nil {
		t.Fatal(err)
	}
	view := sim.View(asn, 1)
	used := cogcast.New(view, false, nil, 1)
	for s := 0; s < 50; s++ {
		used.Step(s)
	}
	used.Reinit(view, true, "p", 9)
	fresh := cogcast.New(view, true, "p", 9)
	for s := 0; s < 50; s++ {
		a, b := used.Step(s), fresh.Step(s)
		if a.Op != b.Op || a.Channel != b.Channel {
			t.Fatalf("slot %d: reinit action (%v,%d) != fresh (%v,%d)", s, a.Op, a.Channel, b.Op, b.Channel)
		}
	}
}

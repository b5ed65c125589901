package crn_test

import (
	"testing"

	crn "github.com/cogradio/crn"
)

// TestPaperHeadlineResults is the repository's acceptance test: the three
// headline results of the paper, each checked end to end through the
// public API on a single fixed configuration.
func TestPaperHeadlineResults(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance test")
	}
	const (
		n      = 96
		c      = 12
		k      = 3
		trials = 5
	)

	// Result 1 — Theorem 4: COGCAST completes within its slot bound, and
	// far faster than the rendezvous baseline.
	t.Run("cogcast-beats-rendezvous-within-bound", func(t *testing.T) {
		var cogTotal, rdvTotal int
		for seed := int64(0); seed < trials; seed++ {
			net, err := crn.NewNetwork(crn.Spec{
				Nodes: n, ChannelsPerNode: c, MinOverlap: k,
				Topology: crn.Partitioned, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := net.Broadcast(crn.BroadcastOptions{
				Payload: "m", Seed: seed, RunToCompletion: true,
				EngineOptions: crn.EngineOptions{MaxSlots: 64 * net.SlotBound(0)},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Fatalf("seed %d: COGCAST incomplete", seed)
			}
			if res.Slots > net.SlotBound(0) {
				t.Errorf("seed %d: %d slots exceeds the κ=%v bound %d", seed, res.Slots, 4.0, net.SlotBound(0))
			}
			cogTotal += res.Slots
			slots, done, err := net.RendezvousBroadcast(0, "m", seed, 10_000_000)
			if err != nil || !done {
				t.Fatalf("seed %d: rendezvous incomplete (%v)", seed, err)
			}
			rdvTotal += slots
		}
		if rdvTotal < 3*cogTotal {
			t.Errorf("rendezvous total %d not well above COGCAST total %d", rdvTotal, cogTotal)
		}
	})

	// Result 2 — Theorem 10: COGCOMP computes exact aggregates with its
	// phase budget: phases 1-3 fixed, phase 4 linear in n.
	t.Run("cogcomp-exact-within-linear-phase4", func(t *testing.T) {
		for seed := int64(0); seed < trials; seed++ {
			net, err := crn.NewNetwork(crn.Spec{
				Nodes: n, ChannelsPerNode: c, MinOverlap: k,
				Topology: crn.Partitioned, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([]int64, n)
			var want int64
			for i := range inputs {
				inputs[i] = int64(3*i - 40)
				want += inputs[i]
			}
			res, err := net.Aggregate(inputs, crn.AggregateOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != want {
				t.Fatalf("seed %d: sum %v != %d", seed, res.Value, want)
			}
			if res.Phase2Slots != n {
				t.Errorf("seed %d: census %d slots, want n", seed, res.Phase2Slots)
			}
			if res.Phase4Slots > 9*n {
				t.Errorf("seed %d: convergecast %d slots, not linear-ish in n=%d", seed, res.Phase4Slots, n)
			}
		}
	})

	// Result 3 — Section 6: the lower-bound constructions bite. On the
	// partitioned (Theorem 16) instance, no run's first delivery can beat
	// the expected overlap-landing time by much in aggregate.
	t.Run("lower-bound-first-contact", func(t *testing.T) {
		var firstTotal float64
		const lbTrials = 40
		for seed := int64(0); seed < lbTrials; seed++ {
			net, err := crn.NewNetwork(crn.Spec{
				Nodes: 8, ChannelsPerNode: 16, MinOverlap: 1,
				Topology: crn.Partitioned, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := net.Broadcast(crn.BroadcastOptions{
				Payload: "m", Seed: seed, RunToCompletion: true,
				Trajectory:    true,
				EngineOptions: crn.EngineOptions{MaxSlots: 64 * net.SlotBound(0)},
			})
			if err != nil {
				t.Fatal(err)
			}
			first := res.Slots
			for s, informed := range res.Trajectory {
				if informed > 1 {
					first = s + 1
					break
				}
			}
			firstTotal += float64(first)
		}
		mean := firstTotal / lbTrials
		theory := float64(16+1) / float64(1+1) // (c+1)/(k+1)
		if mean < theory*0.7 {
			t.Errorf("mean first contact %.2f below the Theorem 16 floor %.2f", mean, theory)
		}
	})
}

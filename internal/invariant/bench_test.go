package invariant_test

import (
	"math/rand"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
)

// syntheticSlots returns slots of outcomes over asn in which every node
// broadcasts or listens on a channel of its set: channels ascending, each
// channel's broadcasters and listeners ascending, and a winner drawn from
// the broadcasters. parkedOn, when not nil, names the channel node u is
// parked on in slot s, or -1: a parked node is listed in that channel's
// Parked list instead of stepping. They are what a dense engine reports
// for n stepped or parked nodes, without running one.
func syntheticSlots(asn sim.Assignment, slots int, seed int64, parkedOn func(s int, u sim.NodeID) int) [][]sim.ChannelOutcome {
	r := rand.New(rand.NewSource(seed))
	out := make([][]sim.ChannelOutcome, slots)
	for s := range out {
		byCh := make([]sim.ChannelOutcome, asn.Channels())
		for u := 0; u < asn.Nodes(); u++ {
			if parkedOn != nil {
				if ch := parkedOn(s, sim.NodeID(u)); ch >= 0 {
					byCh[ch].Parked = append(byCh[ch].Parked, sim.NodeID(u))
					continue
				}
			}
			set := asn.ChannelSet(sim.NodeID(u), s)
			o := &byCh[set[r.Intn(len(set))]]
			if r.Intn(2) == 0 {
				o.Broadcasters = append(o.Broadcasters, sim.NodeID(u))
			} else {
				o.Listeners = append(o.Listeners, sim.NodeID(u))
			}
		}
		for ch := range byCh {
			o := byCh[ch]
			if len(o.Broadcasters) == 0 && len(o.Listeners) == 0 && len(o.Parked) == 0 {
				continue
			}
			o.Channel, o.Winner = ch, sim.None
			if b := o.Broadcasters; len(b) > 0 {
				o.Winner = b[r.Intn(len(b))]
			}
			out[s] = append(out[s], o)
		}
	}
	return out
}

// benchChecker feeds a warm checker over asn the cycle of slots in stream,
// one slot per op.
func benchChecker(b *testing.B, asn sim.Assignment, stream [][]sim.ChannelOutcome) {
	var c invariant.Checker
	c.Reset(asn, sim.UniformWinner)
	slot := 0
	for ; slot < len(stream); slot++ { // warm the tallies and the park copies
		c.OnSlot(slot, stream[slot])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnSlot(slot, stream[slot%len(stream)])
		slot++
	}
	b.StopTimer()
	if err := c.Err(); err != nil {
		b.Fatalf("synthetic stream flagged: %v", err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(asn.Nodes()), "ns/node-slot")
}

// BenchmarkCheckerOnSlot measures the oracle's per-slot path on its own:
// a warm checker over a 5000-node shared-core assignment is fed a cycle of
// synthetic dense slots, every node stepped in each. One op is one slot.
func BenchmarkCheckerOnSlot(b *testing.B) {
	asn, err := assign.SharedCore(5000, 16, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchChecker(b, asn, syntheticSlots(asn, 64, 1, nil))
}

// BenchmarkCheckerOnSlotParked measures the same path on slots that carry
// long parked lists, most of them unchanged from the slot before, as a
// census's waiting listeners do. Half of the 5000 nodes are parked, each
// on a channel of its set, in a window of ids that moves by moved nodes a
// slot: moved parks end at one edge and moved start at the other. The
// window moves forward for half the cycle and back for the other half, so
// the cycle wraps around like any other slot.
func BenchmarkCheckerOnSlotParked(b *testing.B) {
	const n, slots, moved = 5000, 64, 4
	asn, err := assign.SharedCore(n, 16, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	start := func(s int) int { return moved * min(s, slots-s) }
	benchChecker(b, asn, syntheticSlots(asn, slots, 1, func(s int, u sim.NodeID) int {
		if (int(u)-start(s)+n)%n >= n/2 {
			return -1
		}
		set := asn.ChannelSet(u, 0)
		return set[int(u)%len(set)]
	}))
}

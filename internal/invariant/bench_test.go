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
// the broadcasters. They are what a dense engine reports for n stepped
// nodes, without running one.
func syntheticSlots(asn sim.Assignment, slots int, seed int64) [][]sim.ChannelOutcome {
	r := rand.New(rand.NewSource(seed))
	out := make([][]sim.ChannelOutcome, slots)
	for s := range out {
		byCh := make([]sim.ChannelOutcome, asn.Channels())
		for u := 0; u < asn.Nodes(); u++ {
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
			if len(o.Broadcasters) == 0 && len(o.Listeners) == 0 {
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

// BenchmarkCheckerOnSlot measures the oracle's per-slot path on its own:
// a warm checker over a 5000-node shared-core assignment is fed a cycle of
// synthetic dense slots, every node stepped in each. One op is one slot.
func BenchmarkCheckerOnSlot(b *testing.B) {
	asn, err := assign.SharedCore(5000, 16, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	stream := syntheticSlots(asn, 64, 1)
	var c invariant.Checker
	c.Reset(asn, sim.UniformWinner)
	slot := 0
	for ; slot < len(stream); slot++ { // warm the tallies
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

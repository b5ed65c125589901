package invariant

import (
	"slices"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/sim"
)

// fixedSets is a hand-built fixed assignment whose sets need not be c long.
type fixedSets struct {
	total, c int
	sets     [][]int
}

func (f *fixedSets) Nodes() int                           { return len(f.sets) }
func (f *fixedSets) Channels() int                        { return f.total }
func (f *fixedSets) PerNode() int                         { return f.c }
func (f *fixedSets) MinOverlap() int                      { return 1 }
func (f *fixedSets) ChannelSet(u sim.NodeID, _ int) []int { return f.sets[u] }
func (f *fixedSets) FixedChannelSets() bool               { return true }

// collidingSets returns a fixed assignment over 64 channels whose three
// nodes hold three channels each (c = 8). In a row of the width the table
// gives three-channel sets, node 0's channels all start their probes at
// the row's last slot, so its probes wrap around; node 1's all start at
// slot 0; node 2's channels start at slot 1 or at the last slot, so a
// lookup walks past occupied slots in every row.
func collidingSets(t *testing.T) *fixedSets {
	t.Helper()
	const total = 64
	probe := memberTable{shift: 3} // the width the table picks for three channels
	byHome := make([][]int, 1<<probe.shift)
	for ch := 0; ch < total; ch++ {
		h := probe.home(int32(ch))
		byHome[h] = append(byHome[h], ch)
	}
	last := len(byHome) - 1
	if len(byHome[last]) < 3 || len(byHome[0]) < 3 || len(byHome[1]) < 3 {
		t.Fatalf("too few channels share a home: %v", byHome)
	}
	return &fixedSets{total: total, c: 8, sets: [][]int{
		byHome[last][:3],
		byHome[0][:3],
		{byHome[1][0], byHome[last][1], byHome[1][2]},
	}}
}

// TestMembershipTableMatchesScan holds the checker's membership table to a
// scan of ChannelSet for every node and every channel in [0, C), over
// fixed assignments of several shapes.
func TestMembershipTableMatchesScan(t *testing.T) {
	shapes := []struct {
		name string
		make func() (sim.Assignment, error)
	}{
		{"shared core, C = 3c", func() (sim.Assignment, error) {
			return assign.SharedCore(200, 16, 4, 48, assign.LocalLabels, 1)
		}},
		{"partitioned, C >> 2c", func() (sim.Assignment, error) {
			return assign.Partitioned(60, 8, 2, assign.LocalLabels, 2)
		}},
		{"full overlap", func() (sim.Assignment, error) {
			return assign.FullOverlap(30, 16, assign.GlobalLabels, 3)
		}},
		{"short colliding sets", func() (sim.Assignment, error) {
			return collidingSets(t), nil
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			asn, err := sh.make()
			if err != nil {
				t.Fatal(err)
			}
			var c Checker
			c.Reset(asn, sim.UniformWinner)
			if !c.tabled {
				t.Fatal("fixed assignment not tabled")
			}
			for u := 0; u < asn.Nodes(); u++ {
				set := asn.ChannelSet(sim.NodeID(u), 0)
				for ch := 0; ch < asn.Channels(); ch++ {
					if got, want := c.inSet(sim.NodeID(u), 0, ch), slices.Contains(set, ch); got != want {
						t.Fatalf("node %d channel %d: table says %v, ChannelSet %v", u, ch, got, want)
					}
				}
			}
		})
	}
}

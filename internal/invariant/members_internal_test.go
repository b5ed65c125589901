package invariant

import (
	"math/rand"
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

// collidingSets returns a fixed assignment over total channels whose three
// nodes hold three channels each (c = 8). In a hash row of the width the
// table gives three-channel sets, node 0's channels all start their probes
// at the row's last slot, so its probes wrap around; node 1's all start at
// slot 0; node 2's channels start at slot 1 or at the last slot, so a
// lookup walks past occupied slots in every row. Over 64 channels the
// table picks bitmap rows instead; over more than 256 it keeps hash rows.
func collidingSets(t *testing.T, total int) *fixedSets {
	t.Helper()
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

// randomSets returns a fixed assignment of n nodes holding c distinct
// channels each out of total, in random order, except that node 0's last
// channel is the highest one, total-1.
func randomSets(n, c, total int, seed int64) *fixedSets {
	r := rand.New(rand.NewSource(seed))
	f := &fixedSets{total: total, c: c, sets: make([][]int, n)}
	for u := range f.sets {
		f.sets[u] = r.Perm(total)[:c]
	}
	if i := slices.Index(f.sets[0], total-1); i >= 0 {
		f.sets[0] = slices.Delete(f.sets[0], i, i+1)
	} else {
		f.sets[0] = f.sets[0][:c-1]
	}
	f.sets[0] = append(f.sets[0], total-1)
	return f
}

// TestMembershipTableMatchesScan holds the checker's membership table to a
// scan of ChannelSet for every node and every channel in [0, C), over
// fixed assignments of several shapes, and pins the layout each one gets:
// bitmap rows of ⌈C/64⌉ words wherever they are no wider than a hash row
// of the next power of two ≥ 2c int32 slots.
func TestMembershipTableMatchesScan(t *testing.T) {
	shapes := []struct {
		name   string
		bitmap bool
		make   func() (sim.Assignment, error)
	}{
		{"shared core, C = 3c", true, func() (sim.Assignment, error) {
			return assign.SharedCore(200, 16, 4, 48, assign.LocalLabels, 1)
		}},
		{"partitioned, C >> 2c", true, func() (sim.Assignment, error) {
			return assign.Partitioned(60, 8, 2, assign.LocalLabels, 2) // C = 362: 48 B against 64 B
		}},
		{"partitioned, hash rows", false, func() (sim.Assignment, error) {
			return assign.Partitioned(200, 8, 2, assign.LocalLabels, 2) // C = 1202: 152 B against 64 B
		}},
		{"full overlap", true, func() (sim.Assignment, error) {
			return assign.FullOverlap(30, 16, assign.GlobalLabels, 3)
		}},
		{"short colliding sets", true, func() (sim.Assignment, error) {
			return collidingSets(t, 64), nil
		}},
		{"short colliding sets, hash rows", false, func() (sim.Assignment, error) {
			return collidingSets(t, 1024), nil
		}},
		// c = 8 gives a 64-byte hash row, which 8 words fill exactly.
		{"C at the layout boundary", true, func() (sim.Assignment, error) {
			return randomSets(40, 8, 512, 4), nil
		}},
		{"C one above the layout boundary", false, func() (sim.Assignment, error) {
			return randomSets(40, 8, 513, 5), nil
		}},
		{"C not a multiple of 64", true, func() (sim.Assignment, error) {
			return randomSets(40, 16, 100, 6), nil
		}},
		// Bit 63 of a word sits next to the following word's bit 0, which
		// is node 1's bit 64 and node 3's bit 0.
		{"last channel at bit 63 of a word", true, func() (sim.Assignment, error) {
			return &fixedSets{total: 128, c: 4, sets: [][]int{
				{5, 63}, {0, 64, 127}, {64, 127}, {0, 62}, {63},
			}}, nil
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
			if got := c.members.words > 0; got != sh.bitmap {
				t.Fatalf("C = %d: bitmap rows = %v, want %v", asn.Channels(), got, sh.bitmap)
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

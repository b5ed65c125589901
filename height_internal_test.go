package crn

import (
	"testing"

	"github.com/cogradio/crn/internal/sim"
)

func TestTreeHeight(t *testing.T) {
	none := sim.None
	chain := make([]sim.NodeID, 1000)
	chain[0] = none
	for v := 1; v < len(chain); v++ {
		chain[v] = sim.NodeID(v - 1)
	}
	cases := []struct {
		name    string
		source  sim.NodeID
		parents []sim.NodeID
		want    int
	}{
		// 0 informs 1 and 2, 1 informs 3 and 4.
		{"five-node tree", 0, []sim.NodeID{none, 0, 0, 1, 1}, 2},
		{"chain", 0, chain, len(chain) - 1},
		{"chain rooted at its tail", 2, []sim.NodeID{1, 2, none}, 2},
		{"unreached node", 0, []sim.NodeID{none, 0, none, 1}, 2},
		{"lone source", 0, []sim.NodeID{none, none, none}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := treeHeight(c.source, c.parents); got != c.want {
				t.Errorf("treeHeight = %d, want %d", got, c.want)
			}
		})
	}
}

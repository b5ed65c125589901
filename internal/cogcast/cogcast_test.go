package cogcast_test

import (
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
)

func TestSlotBound(t *testing.T) {
	cases := []struct {
		n, c, k int
		kappa   float64
		atLeast int
	}{
		{2, 1, 1, 1, 1},
		{1, 8, 2, 1, 1},      // degenerate single node
		{1024, 32, 4, 1, 80}, // (32/4)*1*10 = 80
		{16, 64, 8, 1, 128},  // (64/8)*(64/16)*4 = 128
	}
	for _, c := range cases {
		got := cogcast.SlotBound(c.n, c.c, c.k, c.kappa)
		if got < c.atLeast {
			t.Errorf("SlotBound(%d,%d,%d,%v) = %d, want >= %d", c.n, c.c, c.k, c.kappa, got, c.atLeast)
		}
	}
	if a, b := cogcast.SlotBound(1024, 32, 4, 1), cogcast.SlotBound(1024, 32, 4, 2); b != 2*a {
		t.Errorf("kappa must scale linearly: %d vs %d", a, b)
	}
}

func TestBroadcastCompletesFullOverlap(t *testing.T) {
	const n, c = 64, 8
	asn, err := assign.FullOverlap(n, c, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcast.Run(asn, 0, "payload", 1, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("broadcast incomplete after %d slots", res.Slots)
	}
}

func TestBroadcastCompletesAcrossTopologies(t *testing.T) {
	const n, c, k = 48, 8, 2
	topos := map[string]func() (sim.Assignment, error){
		"partitioned": func() (sim.Assignment, error) {
			return assign.Partitioned(n, c, k, assign.LocalLabels, 2)
		},
		"shared-core": func() (sim.Assignment, error) {
			return assign.SharedCore(n, c, k, 4*c, assign.LocalLabels, 3)
		},
		"random-pool": func() (sim.Assignment, error) {
			return assign.RandomPool(n, 16, 2, 32, assign.LocalLabels, 4)
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
			res, err := cogcast.Run(asn, 0, "m", 6, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 50000})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Fatalf("broadcast incomplete on %s after %d slots", name, res.Slots)
			}
		})
	}
}

func TestDistributionTreeIsSpanning(t *testing.T) {
	const n, c, k = 40, 6, 2
	for seed := int64(0); seed < 5; seed++ {
		asn, err := assign.SharedCore(n, c, k, 18, assign.LocalLabels, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cogcast.Run(asn, 3, "init", seed, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 20000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatalf("seed %d: incomplete", seed)
		}
		// A spanning tree: every node informed, each strictly after its parent.
		if err := invariant.CheckBroadcastTree(n, 3, res.Parents, res.InformedSlots, true); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestEachNodeInformedExactlyOnce(t *testing.T) {
	// A node's parent and informed slot must never change after the first
	// delivery (the paper: "each node is informed only once, because after
	// that it broadcasts in each slot").
	const n = 24
	asn, err := assign.FullOverlap(n, 4, assign.LocalLabels, 7)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*cogcast.Node, n)
	protos := make([]sim.Protocol, n)
	for i := range nodes {
		nodes[i] = cogcast.New(sim.View(asn, sim.NodeID(i)), i == 0, "x", 7)
		protos[i] = nodes[i]
	}
	eng, err := sim.NewEngine(asn, protos, 7)
	if err != nil {
		t.Fatal(err)
	}
	firstParent := make(map[int]sim.NodeID)
	for s := 0; s < 200; s++ {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
		for i, nd := range nodes {
			if nd.Informed() {
				if p, ok := firstParent[i]; ok {
					if nd.Parent() != p {
						t.Fatalf("node %d parent changed from %d to %d", i, p, nd.Parent())
					}
				} else {
					firstParent[i] = nd.Parent()
				}
			}
		}
	}
	if len(firstParent) != n {
		t.Fatalf("only %d of %d nodes informed after 200 slots", len(firstParent), n)
	}
}

func TestTrajectoryMonotone(t *testing.T) {
	asn, err := assign.FullOverlap(32, 4, assign.LocalLabels, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcast.Run(asn, 0, "x", 10, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 5000, Trajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) == 0 {
		t.Fatal("no trajectory recorded")
	}
	prev := 1
	for s, v := range res.Trajectory {
		if v < prev {
			t.Fatalf("informed count dropped from %d to %d at slot %d", prev, v, s)
		}
		prev = v
	}
	if got := res.Trajectory[len(res.Trajectory)-1]; got != 32 {
		t.Errorf("final informed count = %d, want 32", got)
	}
}

func TestRunRejectsBadSource(t *testing.T) {
	asn, err := assign.FullOverlap(4, 2, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cogcast.Run(asn, 10, "x", 1, cogcast.RunConfig{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := cogcast.Run(asn, -1, "x", 1, cogcast.RunConfig{}); err == nil {
		t.Error("negative source accepted")
	}
}

func TestPayloadPropagation(t *testing.T) {
	const n = 16
	asn, err := assign.FullOverlap(n, 3, assign.LocalLabels, 11)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*cogcast.Node, n)
	protos := make([]sim.Protocol, n)
	for i := range nodes {
		nodes[i] = cogcast.New(sim.View(asn, sim.NodeID(i)), i == 5, "the-message", 11)
		protos[i] = nodes[i]
	}
	eng, err := sim.NewEngine(asn, protos, 11)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 500; s++ {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range nodes {
		if !nd.Informed() {
			t.Fatalf("node %d uninformed after 500 slots", i)
		}
		if nd.Payload() != "the-message" {
			t.Errorf("node %d payload = %v", i, nd.Payload())
		}
	}
}

func TestUninformedPayloadNil(t *testing.T) {
	asn, err := assign.FullOverlap(2, 1, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	nd := cogcast.New(sim.View(asn, 1), false, nil, 1)
	if nd.Informed() || nd.Payload() != nil || nd.Parent() != sim.None || nd.InformedSlot() != -1 {
		t.Error("fresh non-source node should be uninformed with empty metadata")
	}
}

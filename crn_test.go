package crn_test

import (
	"errors"
	"testing"

	crn "github.com/cogradio/crn"
)

func mustNetwork(t *testing.T, spec crn.Spec) *crn.Network {
	t.Helper()
	net, err := crn.NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func defaultSpec() crn.Spec {
	return crn.Spec{
		Nodes:           48,
		ChannelsPerNode: 8,
		MinOverlap:      2,
		TotalChannels:   24,
		Topology:        crn.SharedCore,
		Seed:            1,
	}
}

func TestNewNetworkAccessors(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	if net.Nodes() != 48 || net.ChannelsPerNode() != 8 || net.MinOverlap() != 2 || net.TotalChannels() != 24 {
		t.Errorf("dims = (%d,%d,%d,%d)", net.Nodes(), net.ChannelsPerNode(), net.MinOverlap(), net.TotalChannels())
	}
	if net.Dynamic() {
		t.Error("static network reports dynamic")
	}
	if net.SlotBound(0) < 1 {
		t.Error("SlotBound should be positive")
	}
	// Doubling kappa doubles the bound up to ceiling rounding.
	if a, b := net.SlotBound(1), net.SlotBound(2); b < 2*a-2 || b > 2*a {
		t.Errorf("SlotBound kappa scaling: %d, %d", a, b)
	}
}

func TestNewNetworkEveryTopology(t *testing.T) {
	specs := map[string]crn.Spec{
		"full-overlap": {Nodes: 10, ChannelsPerNode: 4, MinOverlap: 4, Topology: crn.FullOverlap, Seed: 1},
		"partitioned":  {Nodes: 10, ChannelsPerNode: 4, MinOverlap: 2, Topology: crn.Partitioned, Seed: 2},
		"shared-core":  {Nodes: 10, ChannelsPerNode: 6, MinOverlap: 2, TotalChannels: 18, Topology: crn.SharedCore, Seed: 3},
		"random-pool":  {Nodes: 10, ChannelsPerNode: 12, MinOverlap: 2, TotalChannels: 24, Topology: crn.RandomPool, Seed: 4},
		"pairwise":     {Nodes: 4, ChannelsPerNode: 6, MinOverlap: 2, Topology: crn.PairwiseDedicated, Seed: 5},
		"global":       {Nodes: 10, ChannelsPerNode: 4, MinOverlap: 2, Topology: crn.Partitioned, Labels: crn.GlobalLabels, Seed: 6},
		"dynamic":      {Nodes: 10, ChannelsPerNode: 6, MinOverlap: 2, TotalChannels: 18, Topology: crn.SharedCore, Dynamic: true, Seed: 7},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			net := mustNetwork(t, spec)
			res, err := net.Broadcast(crn.BroadcastOptions{Payload: "x", Seed: 9, RunToCompletion: true, EngineOptions: crn.EngineOptions{MaxSlots: 100000}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Fatalf("broadcast incomplete after %d slots", res.Slots)
			}
			if res.TreeHeight < 1 {
				t.Errorf("tree height = %d, want >= 1", res.TreeHeight)
			}
		})
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := crn.NewNetwork(crn.Spec{Nodes: 4, ChannelsPerNode: 4, MinOverlap: 2}); err == nil {
		t.Error("missing topology accepted")
	}
	if _, err := crn.NewNetwork(crn.Spec{Nodes: 4, ChannelsPerNode: 4, MinOverlap: 2, Topology: crn.Partitioned, Dynamic: true}); err == nil {
		t.Error("dynamic with non-SharedCore topology accepted")
	}
	bad := defaultSpec()
	bad.Dynamic = true
	bad.Labels = crn.GlobalLabels
	if _, err := crn.NewNetwork(bad); err == nil {
		t.Error("dynamic global labels accepted")
	}
	small := defaultSpec()
	small.MinOverlap = 100
	if _, err := crn.NewNetwork(small); err == nil {
		t.Error("k > c accepted")
	}
}

func TestBroadcastTrajectoryAndTree(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	res, err := net.Broadcast(crn.BroadcastOptions{Source: 5, Payload: 42, Seed: 2, RunToCompletion: true, Trajectory: true, EngineOptions: crn.EngineOptions{MaxSlots: 50000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != res.Slots {
		t.Errorf("trajectory length %d != slots %d", len(res.Trajectory), res.Slots)
	}
	if res.Parents[5] != crn.None {
		t.Errorf("source parent = %d, want None", res.Parents[5])
	}
	informed := 0
	for v, p := range res.Parents {
		if p != crn.None {
			informed++
			if res.InformedSlots[v] < 0 {
				t.Errorf("node %d has parent but no informed slot", v)
			}
		}
	}
	if informed != net.Nodes()-1 {
		t.Errorf("%d nodes have parents, want %d", informed, net.Nodes()-1)
	}
}

func TestAggregateSumAndStats(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	inputs := make([]int64, net.Nodes())
	var want int64
	for i := range inputs {
		inputs[i] = int64(i) - 10
		want += inputs[i]
	}
	res, err := net.Aggregate(inputs, crn.AggregateOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Errorf("sum = %v, want %d", res.Value, want)
	}
	if res.Phase2Slots != net.Nodes() {
		t.Errorf("phase 2 = %d slots, want n", res.Phase2Slots)
	}

	sres, err := net.Aggregate(inputs, crn.AggregateOptions{Func: "stats", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := sres.Value.(crn.Stats)
	if !ok {
		t.Fatalf("stats value has type %T", sres.Value)
	}
	if st.Count != int64(net.Nodes()) || st.Sum != want || st.Min != -10 || st.Max != int64(net.Nodes())-11 {
		t.Errorf("stats = %+v", st)
	}
	if st.Mean == 0 {
		t.Error("mean not populated")
	}
}

func TestAggregateCollect(t *testing.T) {
	spec := defaultSpec()
	spec.Nodes = 12
	net := mustNetwork(t, spec)
	inputs := make([]int64, 12)
	for i := range inputs {
		inputs[i] = int64(i * i)
	}
	res, err := net.Aggregate(inputs, crn.AggregateOptions{Func: "collect", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	readings, ok := res.Value.([]crn.Reading)
	if !ok {
		t.Fatalf("collect value has type %T", res.Value)
	}
	if len(readings) != 12 {
		t.Fatalf("collected %d readings, want 12", len(readings))
	}
	for _, r := range readings {
		if inputs[r.Node] != r.Value {
			t.Errorf("reading %+v mismatches input %d", r, inputs[r.Node])
		}
	}
	if res.MaxMessageSize < 2 {
		t.Errorf("collect max message %d, want >= 2", res.MaxMessageSize)
	}
}

func TestAggregateValidation(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	if _, err := net.Aggregate(make([]int64, 3), crn.AggregateOptions{}); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := net.Aggregate(make([]int64, net.Nodes()), crn.AggregateOptions{Func: "median"}); err == nil {
		t.Error("unknown aggregate accepted")
	}
	dspec := defaultSpec()
	dspec.Dynamic = true
	dnet := mustNetwork(t, dspec)
	if _, err := dnet.Aggregate(make([]int64, dnet.Nodes()), crn.AggregateOptions{}); err == nil {
		t.Error("aggregate over dynamic network accepted")
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	spec := crn.Spec{Nodes: 16, ChannelsPerNode: 4, MinOverlap: 2, Topology: crn.Partitioned, Labels: crn.GlobalLabels, Seed: 5}
	net := mustNetwork(t, spec)

	slots, done, err := net.RendezvousBroadcast(0, "m", 6, 500000)
	if err != nil || !done {
		t.Fatalf("rendezvous broadcast: slots=%d done=%v err=%v", slots, done, err)
	}
	inputs := make([]int64, 16)
	aslots, adone, err := net.RendezvousAggregate(0, inputs, 6, 2000000)
	if err != nil || !adone {
		t.Fatalf("rendezvous aggregate: slots=%d done=%v err=%v", aslots, adone, err)
	}
	hslots, hdone, err := net.HoppingTogether(0, "m", 6, 10*net.TotalChannels())
	if err != nil || !hdone {
		t.Fatalf("hopping together: slots=%d done=%v err=%v", hslots, hdone, err)
	}
	if hslots > net.TotalChannels() {
		t.Errorf("hopping-together took %d slots, more than one spectrum pass", hslots)
	}
}

func TestJammedNetwork(t *testing.T) {
	for _, strategy := range []string{"none", "random", "sweep", "block", "split"} {
		net, err := crn.NewJammedNetwork(24, 12, 3, strategy, 7)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if net.MinOverlap() != 12-2*3 {
			t.Errorf("%s: overlap = %d, want c-2kJam = 6", strategy, net.MinOverlap())
		}
		res, err := net.Broadcast(crn.BroadcastOptions{Payload: "m", Seed: 8, RunToCompletion: true, EngineOptions: crn.EngineOptions{MaxSlots: 50000}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Errorf("%s: broadcast incomplete", strategy)
		}
	}
	if _, err := crn.NewJammedNetwork(4, 8, 2, "nuke", 1); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := crn.NewJammedNetwork(4, 8, 4, "random", 1); err == nil {
		t.Error("kJam >= c/2 accepted")
	}
}

func TestAggregateIncompleteSurfaced(t *testing.T) {
	// Starved phase one must surface ErrIncomplete, not a wrong value.
	spec := crn.Spec{Nodes: 64, ChannelsPerNode: 16, MinOverlap: 1, Topology: crn.Partitioned, Seed: 11}
	net := mustNetwork(t, spec)
	sawIncomplete := false
	for seed := int64(0); seed < 6 && !sawIncomplete; seed++ {
		_, err := net.Aggregate(make([]int64, 64), crn.AggregateOptions{Seed: seed, Kappa: 0.05})
		if err == nil {
			continue
		}
		if errors.Is(err, crn.ErrIncomplete) {
			sawIncomplete = true
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if !sawIncomplete {
		t.Skip("starved phase one happened to inform everyone on all seeds")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, any) {
		net := mustNetwork(t, defaultSpec())
		inputs := make([]int64, net.Nodes())
		for i := range inputs {
			inputs[i] = int64(i)
		}
		res, err := net.Aggregate(inputs, crn.AggregateOptions{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return res.Slots, res.Value
	}
	s1, v1 := run()
	s2, v2 := run()
	if s1 != s2 || v1 != v2 {
		t.Errorf("identical runs diverged: (%d,%v) vs (%d,%v)", s1, v1, s2, v2)
	}
}

func TestAggregateRecoverFaultFreeIdentity(t *testing.T) {
	// Recover with no outages must reproduce the classic run exactly.
	net := mustNetwork(t, defaultSpec())
	inputs := make([]int64, net.Nodes())
	for i := range inputs {
		inputs[i] = int64(i + 1)
	}
	classic, err := net.Aggregate(inputs, crn.AggregateOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := net.Aggregate(inputs, crn.AggregateOptions{Seed: 5, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Value != classic.Value || rec.Slots != classic.Slots {
		t.Errorf("recovered run diverged: (%v, %d slots) vs classic (%v, %d slots)",
			rec.Value, rec.Slots, classic.Value, classic.Slots)
	}
	if rec.Degraded || rec.Stalled || rec.Retries != 0 || rec.Restarts != 0 {
		t.Errorf("fault-free recovered run reports recovery activity: %+v", rec)
	}
	if len(rec.Contributors) != net.Nodes() {
		t.Errorf("contributors = %d, want n = %d", len(rec.Contributors), net.Nodes())
	}
}

func TestAggregateRecoverUnderOutages(t *testing.T) {
	// Injected crash-restart outages: the supervisor must settle every
	// seed without error, and settled runs must be exact or explicitly
	// degraded (value = fold over Contributors) — never silently wrong.
	net := mustNetwork(t, defaultSpec())
	inputs := make([]int64, net.Nodes())
	for i := range inputs {
		inputs[i] = int64(i + 1)
	}
	sawRestart := false
	for seed := int64(1); seed <= 4; seed++ {
		res, err := net.Aggregate(inputs, crn.AggregateOptions{
			Seed: seed, Recover: true, OutageRate: 0.003,
			EngineOptions: crn.EngineOptions{Check: true},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Restarts > 0 {
			sawRestart = true
		}
		if res.Stalled {
			if !res.Degraded {
				t.Errorf("seed %d: stalled but not degraded", seed)
			}
			continue
		}
		var want int64
		for _, id := range res.Contributors {
			want += inputs[id]
		}
		if res.Value != want {
			t.Errorf("seed %d: value %v != contributor fold %d", seed, res.Value, want)
		}
		if !res.Degraded && len(res.Contributors) != net.Nodes() {
			t.Errorf("seed %d: non-degraded run with %d contributors", seed, len(res.Contributors))
		}
	}
	if !sawRestart {
		t.Error("no seed exercised a crash-restart cycle; raise the rate")
	}
}

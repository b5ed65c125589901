package crn_test

import (
	"io"
	"strings"
	"testing"

	crn "github.com/cogradio/crn"
)

func TestGossipFacade(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	res, err := net.Gossip([]crn.NodeID{0, 11, 23}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("gossip incomplete after %d slots (min known %d)", res.Slots, res.MinKnown)
	}
	if res.MinKnown != 3 {
		t.Errorf("MinKnown = %d, want 3", res.MinKnown)
	}
}

func TestGossipFacadeValidation(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	if _, err := net.Gossip(nil, 1, 10); err == nil {
		t.Error("empty sources accepted")
	}
	if _, err := net.Gossip([]crn.NodeID{999}, 1, 10); err == nil {
		t.Error("bad source accepted")
	}
}

func TestRendezvousFacade(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	res, err := net.Rendezvous(3, 17, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("pair never met within automatic budget (%d slots)", res.Slots)
	}
	if res.Slots < 1 {
		t.Errorf("slots = %d", res.Slots)
	}
}

func TestRendezvousFacadeValidation(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	if _, err := net.Rendezvous(3, 3, 1, 10); err == nil {
		t.Error("self-rendezvous accepted")
	}
	if _, err := net.Rendezvous(-1, 3, 1, 10); err == nil {
		t.Error("negative node accepted")
	}
}

func TestGossipOverDynamicNetwork(t *testing.T) {
	spec := defaultSpec()
	spec.Dynamic = true
	net := mustNetwork(t, spec)
	res, err := net.Gossip([]crn.NodeID{0, 1}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Error("gossip over dynamic network incomplete")
	}
}

func TestPrimaryUserNetworkBroadcast(t *testing.T) {
	net, err := crn.NewPrimaryUserNetwork(crn.PrimaryUserSpec{
		Nodes: 24, Channels: 20, Pilots: 2,
		PBusy: 0.1, PFree: 0.3, MissProb: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !net.Dynamic() {
		t.Error("PU network should report dynamic")
	}
	if net.MinOverlap() != 2 {
		t.Errorf("MinOverlap = %d, want the pilot band size", net.MinOverlap())
	}
	res, err := net.Broadcast(crn.BroadcastOptions{Payload: "b", Seed: 2, RunToCompletion: true, EngineOptions: crn.EngineOptions{MaxSlots: 100000}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("broadcast over PU spectrum incomplete after %d slots", res.Slots)
	}
	if _, err := net.Aggregate(make([]int64, 24), crn.AggregateOptions{}); err == nil {
		t.Error("aggregate over PU network accepted")
	}
}

func TestPrimaryUserNetworkValidation(t *testing.T) {
	if _, err := crn.NewPrimaryUserNetwork(crn.PrimaryUserSpec{Nodes: 4, Channels: 8, Pilots: 0}); err == nil {
		t.Error("zero pilots accepted")
	}
}

func TestBroadcastMetrics(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	res, err := net.Broadcast(crn.BroadcastOptions{
		Payload: "m", Seed: 4, RunToCompletion: true, CollectMetrics: true,
		EngineOptions: crn.EngineOptions{MaxSlots: 50000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("metrics requested but missing")
	}
	if res.Metrics.BusyChannelsPerSlot <= 0 || res.Metrics.BroadcastsPerSlot <= 0 {
		t.Errorf("metrics = %+v", *res.Metrics)
	}
	// Not requested -> nil.
	res2, err := net.Broadcast(crn.BroadcastOptions{Payload: "m", Seed: 4, RunToCompletion: true, EngineOptions: crn.EngineOptions{MaxSlots: 50000}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics != nil {
		t.Error("metrics present without request")
	}
}

func TestAggregateRoundsFacade(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	rounds := make([][]int64, 3)
	wants := make([]int64, 3)
	for r := range rounds {
		rounds[r] = make([]int64, net.Nodes())
		for i := range rounds[r] {
			rounds[r][i] = int64(r*100 + i)
			wants[r] += rounds[r][i]
		}
	}
	res, err := net.AggregateRounds(rounds, crn.AggregateOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("got %d values", len(res.Values))
	}
	for r, want := range wants {
		if res.Values[r] != want {
			t.Errorf("round %d: %v != %d", r, res.Values[r], want)
		}
	}
	if res.SetupSlots <= 0 || res.RoundSlots <= 0 || res.Slots <= res.SetupSlots {
		t.Errorf("accounting: %+v", res)
	}
}

func TestAggregateRoundsValidation(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	if _, err := net.AggregateRounds(nil, crn.AggregateOptions{}); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := net.AggregateRounds([][]int64{{1}}, crn.AggregateOptions{}); err == nil {
		t.Error("short round accepted")
	}
	if _, err := net.AggregateRounds(make([][]int64, 1), crn.AggregateOptions{Func: "median"}); err == nil {
		t.Error("unknown func accepted")
	}
	dspec := defaultSpec()
	dspec.Dynamic = true
	dnet := mustNetwork(t, dspec)
	rounds := [][]int64{make([]int64, dnet.Nodes())}
	if _, err := dnet.AggregateRounds(rounds, crn.AggregateOptions{}); err == nil {
		t.Error("dynamic network accepted")
	}
	// Sessions have no slot budget and run untraced and unsupervised: the
	// options only other paths honour are rejected rather than silently
	// ignored.
	rounds = [][]int64{make([]int64, net.Nodes())}
	for name, opts := range map[string]crn.AggregateOptions{
		"Trace":      {EngineOptions: crn.EngineOptions{Trace: io.Discard}},
		"Recover":    {Recover: true},
		"OutageRate": {OutageRate: 0.01},
		"Faults":     {Faults: []crn.FaultSpec{{Kind: "random", Rate: 0.01}}},
		"Adversary":  {Adversary: "crasher"},
		"MaxSlots":   {EngineOptions: crn.EngineOptions{MaxSlots: 5}},
	} {
		if _, err := net.AggregateRounds(rounds, opts); err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %q does not name the option", name, err)
		}
	}
}

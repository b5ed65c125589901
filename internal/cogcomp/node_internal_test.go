package cogcomp

import (
	"slices"
	"testing"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/sim"
)

// newTestNode builds a node with a minimal real view (the embedded COGCAST
// node needs one) and a census of its own, whose phase-derived fields tests
// then set directly.
func newTestNode(t *testing.T, id sim.NodeID, n, l int) *Node {
	t.Helper()
	return newTestNodes(t, n, l, id)[0]
}

// newTestNodes builds nodes ids over one network of n nodes, sharing one
// census as an arena's nodes do.
func newTestNodes(t *testing.T, n, l int, ids ...sim.NodeID) []*Node {
	t.Helper()
	asn, err := assign.FullOverlap(n, 4, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	cen := new(census)
	cen.reset(asn)
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nodes[i] = new(Node)
		nodes[i].reinit(sim.View(asn, id), id == 0, n, l, 0, aggfunc.Sum{}, 1, cen)
	}
	return nodes
}

// setRoster gives the node the census entries es, as hearing them would.
func setRoster(nd *Node, es []rosterEntry) {
	for _, e := range es {
		nd.addRoster(sim.NodeID(e.id), int(e.r), int(e.slot))
	}
}

func TestPhaseBoundaries(t *testing.T) {
	nd := newTestNode(t, 1, 10, 7)
	if nd.p2start != 7 || nd.p3start != 17 || nd.p4start != 24 {
		t.Errorf("boundaries = (%d,%d,%d), want (7,17,24)", nd.p2start, nd.p3start, nd.p4start)
	}
}

func TestRewoundSlotMapping(t *testing.T) {
	nd := newTestNode(t, 1, 10, 5)
	// Phase three runs in slots [15, 20); slot 15 rewinds phase-one slot 4,
	// slot 19 rewinds slot 0.
	cases := []struct{ slot, want int }{
		{15, 4}, {16, 3}, {17, 2}, {18, 1}, {19, 0},
	}
	for _, c := range cases {
		if got := nd.rewoundSlot(c.slot); got != c.want {
			t.Errorf("rewoundSlot(%d) = %d, want %d", c.slot, got, c.want)
		}
	}
}

func TestCensusDerivation(t *testing.T) {
	// Roster: channel saw clusters r=3 (nodes 5, 7, 2) and r=6 (nodes 4, 9).
	// Node 2 was informed at r=3.
	nd := newTestNode(t, 2, 12, 8)
	nd.p2init = true
	nd.informed = true
	nd.r0 = 3
	setRoster(nd, []rosterEntry{
		{id: 5, r: 3}, {id: 7, r: 3}, {id: 2, r: 3},
		{id: 4, r: 6}, {id: 9, r: 6},
	})
	nd.initPhase3()
	if nd.clusterSize != 3 {
		t.Errorf("clusterSize = %d, want 3", nd.clusterSize)
	}
	if nd.isMediator {
		t.Error("node 2 (r=3) elected mediator; the r=6 cluster is later")
	}
}

// TestRewindReportFollowsReinit checks the phase-three report a cluster
// member broadcasts: it carries the member's own informed slot and cluster
// size, and a node reinitialized into another run reports its new cluster,
// not the one it boxed in the last run.
func TestRewindReportFollowsReinit(t *testing.T) {
	const n, l = 12, 8
	asn, err := assign.FullOverlap(n, 4, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	nd := new(Node)
	for _, tc := range []struct {
		r0     int
		roster []rosterEntry
		want   rewindMsg
	}{
		{3, []rosterEntry{{id: 5, r: 3}, {id: 2, r: 3}, {id: 7, r: 3}, {id: 4, r: 6}}, rewindMsg{R: 3, Size: 3}},
		{6, []rosterEntry{{id: 2, r: 6}, {id: 9, r: 2}}, rewindMsg{R: 6, Size: 1}},
	} {
		cen := new(census)
		cen.reset(asn)
		nd.reinit(sim.View(asn, 2), false, n, l, 0, aggfunc.Sum{}, 1, cen)
		nd.p2init, nd.informed, nd.r0 = true, true, tc.r0
		setRoster(nd, tc.roster)
		nd.acts = append(nd.acts, act{pos: tc.r0, ch: 1}) // the listen that informed it
		slot := nd.p3start + l - 1 - tc.r0                // replays phase-one slot r0
		if a := nd.Step(slot); a.Op != sim.OpBroadcast || a.Channel != 1 || a.Msg != tc.want {
			t.Errorf("r0=%d: phase-three step = %+v, want a broadcast of %+v on channel 1", tc.r0, a, tc.want)
		}
	}
}

func TestMediatorElectionSmallestIDInLatestCluster(t *testing.T) {
	roster := []rosterEntry{
		{id: 5, r: 3}, {id: 7, r: 3},
		{id: 4, r: 6}, {id: 9, r: 6},
	}
	// Node 4: in the latest cluster (r=6), smallest id -> mediator.
	nd := newTestNode(t, 4, 12, 8)
	nd.p2init, nd.informed, nd.r0 = true, true, 6
	setRoster(nd, roster)
	nd.initPhase3()
	if !nd.isMediator {
		t.Error("node 4 should be mediator")
	}
	if len(nd.medClusters) != 2 {
		t.Fatalf("mediator tracks %d clusters, want 2", len(nd.medClusters))
	}
	// Descending r order.
	if nd.medClusters[0].r != 6 || nd.medClusters[1].r != 3 {
		t.Errorf("mediator cluster order = [%d, %d], want [6, 3]", nd.medClusters[0].r, nd.medClusters[1].r)
	}
	if len(nd.medClusters[0].members) != 2 || !nd.medClusters[0].members[9] {
		t.Errorf("latest cluster members = %v", nd.medClusters[0].members)
	}

	// Node 9: same cluster but larger id -> not mediator.
	nd9 := newTestNode(t, 9, 12, 8)
	nd9.p2init, nd9.informed, nd9.r0 = true, true, 6
	setRoster(nd9, roster)
	nd9.initPhase3()
	if nd9.isMediator {
		t.Error("node 9 should not be mediator (node 4 is smaller)")
	}
}

func TestSourceSkipsCensusDerivation(t *testing.T) {
	nd := newTestNode(t, 0, 12, 8)
	nd.initPhase2()
	nd.initPhase3()
	if nd.isMediator || nd.clusterSize != 0 {
		t.Error("source must not join the census")
	}
}

func TestPhaseFourClusterOrdering(t *testing.T) {
	nd := newTestNode(t, 1, 12, 8)
	nd.collected = []infCluster{{r: 2, ch: 0, size: 1}, {r: 9, ch: 1, size: 2}, {r: 5, ch: 2, size: 1}}
	nd.initPhase4()
	if nd.collected[0].r != 9 || nd.collected[1].r != 5 || nd.collected[2].r != 2 {
		t.Errorf("collected order = %v, want descending r", nd.collected)
	}
	if nd.acc != int64(0) {
		t.Errorf("initial aggregate = %v, want leaf value", nd.acc)
	}
}

func TestStartStepAdvancesCompletedCluster(t *testing.T) {
	nd := newTestNode(t, 1, 12, 8)
	nd.p2init, nd.informed, nd.r0 = true, true, 2
	nd.collected = []infCluster{{r: 9, ch: 1, size: 2}, {r: 5, ch: 2, size: 1}}
	nd.initPhase4()
	nd.got = 2 // cluster (9) fully collected
	nd.startStep()
	if nd.idx != 1 || nd.got != 0 {
		t.Errorf("after advance idx=%d got=%d, want idx=1 got=0", nd.idx, nd.got)
	}
	if nd.done {
		t.Error("node done while a cluster remains")
	}
}

func TestStartStepTerminatesSenderAfterAck(t *testing.T) {
	nd := newTestNode(t, 1, 12, 8)
	nd.p2init, nd.informed, nd.r0 = true, true, 2
	nd.initPhase4()
	nd.ownSent = true
	nd.startStep()
	if !nd.done {
		t.Error("acked non-mediator sender should terminate")
	}
}

func TestStartStepKeepsMediatorAlive(t *testing.T) {
	nd := newTestNode(t, 1, 12, 8)
	nd.p2init, nd.informed, nd.r0 = true, true, 6
	nd.isMediator = true
	nd.medClusters = []medCluster{{r: 6, members: map[sim.NodeID]bool{1: true, 3: true}}}
	nd.medAcked = map[sim.NodeID]bool{}
	nd.initPhase4()
	nd.ownSent = true
	nd.startStep()
	if nd.done {
		t.Error("mediator with pending clusters must stay alive after its own ack")
	}
	// Once the cluster queue drains the mediator may leave.
	nd.medIdx = 1
	nd.startStep()
	if !nd.done {
		t.Error("mediator with drained queue should terminate")
	}
}

func TestSourceTerminatesWhenCollectingDone(t *testing.T) {
	nd := newTestNode(t, 0, 12, 8)
	nd.initPhase2()
	nd.initPhase4()
	nd.startStep() // no clusters at all
	if !nd.done {
		t.Error("source with nothing to collect should terminate")
	}
}

func TestPhaseOneLengthMatchesCogcastBound(t *testing.T) {
	if PhaseOneLength(128, 16, 4, 2) < PhaseOneLength(128, 16, 4, 1) {
		t.Error("phase-one length must grow with kappa")
	}
	if PhaseOneLength(1, 4, 2, 1) != 1 {
		t.Error("degenerate single-node length should be 1")
	}
}

// TestCensusLogSharedByChannel pins the census storage model: the nodes on
// a channel share one log, each holds only the entries it heard, a replayed
// broadcast fills a listener's hole without logging the entry twice, and
// DropRosterEntry clears only the caller's bit.
func TestCensusLogSharedByChannel(t *testing.T) {
	nodes := newTestNodes(t, 12, 8, 3, 6, 8, 10)
	a, src, b, other := nodes[0], nodes[1], nodes[2], nodes[3]
	for i, nd := range nodes {
		nd.p2init, nd.informed, nd.r0 = true, true, i+2
		nd.censusWire = censusMsg{ID: nd.id, R: nd.r0}
	}
	other.phys = 1 // a different physical channel, with a log of its own
	roster := func(nd *Node) []rosterEntry {
		var out []rosterEntry
		nd.RosterSnapshot(func(id sim.NodeID, r int) { out = append(out, rosterEntry{id: int32(id), r: int32(r)}) })
		return out
	}
	// src's census broadcast succeeds; a hears it, b is down and misses it.
	var act sim.Action
	src.stepPhase2(9, &act)
	src.deliverPhase2(9, sim.Event{Kind: sim.EvSendSucceeded, From: src.id, Msg: act.Msg})
	a.deliverPhase2(9, sim.Event{Kind: sim.EvReceived, From: src.id, Msg: act.Msg})
	other.deliverPhase2(9, sim.Event{Kind: sim.EvSendSucceeded, From: other.id, Msg: other.censusWire})
	want := []rosterEntry{{id: 6, r: 3}}
	if got := roster(a); !slices.Equal(got, want) {
		t.Fatalf("a's roster = %v, want %v", got, want)
	}
	if got := roster(b); len(got) != 0 {
		t.Fatalf("b missed the broadcast but holds %v", got)
	}

	// The supervisor replays the channel's census: src re-broadcasts, and
	// this time both listeners hear it.
	src.ResetCensus()
	if src.CensusDone() {
		t.Fatal("ResetCensus left the census done")
	}
	src.stepPhase2(30, &act)
	if act.Op != sim.OpBroadcast {
		t.Fatalf("reset node %v, want a census broadcast", act.Op)
	}
	src.deliverPhase2(30, sim.Event{Kind: sim.EvSendSucceeded, From: src.id, Msg: act.Msg})
	a.deliverPhase2(30, sim.Event{Kind: sim.EvReceived, From: src.id, Msg: act.Msg})
	b.deliverPhase2(30, sim.Event{Kind: sim.EvReceived, From: src.id, Msg: act.Msg})
	for _, nd := range []*Node{a, b, src} {
		if got := roster(nd); !slices.Equal(got, want) {
			t.Fatalf("node %d roster after replay = %v, want %v", nd.id, got, want)
		}
	}
	if log := a.cen.logs[a.phys]; len(log) != 1 {
		t.Fatalf("channel log = %v, want the entry logged once", log)
	}

	// Dropping an entry is one node's business, and an id logged on another
	// channel is not in this node's roster at all.
	a.DropRosterEntry(other.id)
	a.DropRosterEntry(src.id)
	if got := roster(a); len(got) != 0 {
		t.Errorf("a's roster after drop = %v, want empty", got)
	}
	if got := roster(b); !slices.Equal(got, want) {
		t.Errorf("b's roster after a's drop = %v, want %v", got, want)
	}
	if got := roster(other); !slices.Equal(got, []rosterEntry{{id: 10, r: 5}}) {
		t.Errorf("other channel's roster = %v", got)
	}
}

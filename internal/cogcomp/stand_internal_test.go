package cogcomp

import (
	"slices"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/faults"
	"github.com/cogradio/crn/internal/sim"
)

// TestWakeKeysDistinct pins that no announcement key is the census key or
// sim.NoKey: a census win must not arm a cluster's senders, and no key may
// read as "no key".
func TestWakeKeysDistinct(t *testing.T) {
	if censusKey == sim.NoKey {
		t.Fatal("the census key is sim.NoKey")
	}
	for _, r := range []int{0, 1, 2, 1 << 20} {
		if k := announceKey(r); k == censusKey || k == sim.NoKey {
			t.Errorf("announceKey(%d) = %d collides with the census key or NoKey", r, k)
		}
	}
}

// TestCatchUpHoldsSkippedSlots pins the census catch-up: a node holds
// exactly the entries its channel logged in the skipped slots, across
// word boundaries of its bitset, and nothing outside the census window.
func TestCatchUpHoldsSkippedSlots(t *testing.T) {
	nodes := newTestNodes(t, 200, 8, 3, 6)
	a, b := nodes[0], nodes[1]
	for _, nd := range nodes {
		nd.p2init, nd.informed = true, true
	}
	// b's broadcasts log 150 entries, one per slot from slot 10 on.
	for i := 0; i < 150; i++ {
		b.addRoster(sim.NodeID(i), i%5, 10+i)
	}
	a.CatchUp(40, 140) // positions 30..129, straddling two word boundaries
	var got []sim.NodeID
	a.RosterSnapshot(func(id sim.NodeID, _ int) { got = append(got, id) })
	if len(got) != 100 || got[0] != 30 || got[99] != 129 {
		t.Fatalf("CatchUp(40, 140) held %d entries %v..., want ids 30..129", len(got), got[:min(3, len(got))])
	}
	a.CatchUp(a.p4start, a.p4start+9) // phase four: nothing to hold
	if n := len(a.held); n > 3 {
		t.Fatalf("a phase-four catch-up grew the roster bitset to %d words", n)
	}
}

// TestCrasherDisarmsCensusStand pins how a fault wrapper meets a stand: a
// faults.Crasher strips Sleep, so a wrapped census contender reaches the
// sparse engine as a plain Broadcast every slot until it wins, and as a
// plain Listen afterwards; the Crasher does not implement sim.CatchUpper,
// so the contender is never served deaf. Under an outage it holds exactly
// the census entries delivered to it, and every node's roster matches the
// dense run with the same wrapper.
func TestCrasherDisarmsCensusStand(t *testing.T) {
	asn, err := assign.SharedCore(48, 6, 2, 12, assign.LocalLabels, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the non-source node whose own entry sits deepest in the longest
	// channel log: it loses the most census slots.
	dry, _ := runTapped(t, asn, Config{Sparse: true}, nil)
	x, deepest := sim.None, -1
	for _, nd := range dry.nodes[1:] {
		if p := nd.rosterPos(nd.id); nd.informed && p > deepest {
			x, deepest = nd.id, p
		}
	}
	if deepest < 4 {
		t.Fatalf("deepest census entry at position %d; want a contended channel", deepest)
	}
	l := dry.nodes[0].l
	var crasher *faults.Crasher
	down := func(id sim.NodeID, nd *Node) sim.Protocol {
		if id != x {
			return nd
		}
		blackout, err := faults.NewBlackout(l+1, l+4, x)
		if err != nil {
			t.Fatal(err)
		}
		crasher = faults.Wrap(nd, id, blackout)
		return crasher
	}
	if _, ok := sim.Protocol(faults.Wrap(nil, 0, nil)).(sim.CatchUpper); ok {
		t.Fatal("faults.Crasher implements sim.CatchUpper")
	}
	sparse, taps := runTapped(t, asn, Config{Sparse: true}, down)
	nd, tp := sparse.nodes[x], taps[x]
	won := -1
	for slot := l; slot < l+asn.Nodes(); slot++ {
		act, stepped := tp.acts[slot]
		if !stepped {
			t.Fatalf("slot %d: wrapped contender %d not stepped in the census window", slot, x)
		}
		if act.Sleep != 0 {
			t.Fatalf("slot %d: wrapped contender's action %+v reached the engine with a hint", slot, act)
		}
		if ev, ok := tp.events[slot]; ok && ev.Kind == sim.EvSendSucceeded {
			won = slot
		}
		if slot > l+4 && won < 0 && act.Op != sim.OpBroadcast {
			t.Fatalf("slot %d: contender %d awake and not broadcasting before its win", slot, x)
		}
	}
	if won < 0 {
		t.Fatalf("contender %d never won its census", x)
	}
	// Exactly the entries delivered to it, and fewer than its channel logged.
	var heard []sim.NodeID
	for slot := l; slot < l+asn.Nodes(); slot++ {
		if ev, ok := tp.events[slot]; ok {
			if m, ok := ev.Msg.(censusMsg); ok {
				heard = append(heard, m.ID)
			}
		}
	}
	var held []sim.NodeID
	nd.RosterSnapshot(func(id sim.NodeID, _ int) { held = append(held, id) })
	slices.Sort(heard)
	slices.Sort(held)
	if !slices.Equal(held, heard) {
		t.Fatalf("contender %d holds %v, heard %v", x, held, heard)
	}
	if len(held) >= len(nd.cen.logs[nd.phys]) {
		t.Fatalf("contender %d holds all %d logged entries through a census outage", x, len(held))
	}
	if crasher.DownSlots() != 3 {
		t.Fatalf("contender was down %d slots, want 3", crasher.DownSlots())
	}

	dense, _ := runTapped(t, asn, Config{}, down)
	for i := range dense.nodes {
		var want, got [][2]int
		dense.nodes[i].RosterSnapshot(func(id sim.NodeID, r int) { want = append(want, [2]int{int(id), r}) })
		sparse.nodes[i].RosterSnapshot(func(id sim.NodeID, r int) { got = append(got, [2]int{int(id), r}) })
		if !slices.Equal(got, want) {
			t.Fatalf("node %d: sparse roster %v != dense %v", i, got, want)
		}
	}
}

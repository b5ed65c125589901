package cogcomp

import (
	"errors"
	"slices"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/faults"
	"github.com/cogradio/crn/internal/sim"
)

// tap records every action a protocol returns and every event it is
// delivered, as the engine sees them.
type tap struct {
	inner  sim.Protocol
	acts   map[int]sim.Action
	events map[int]sim.Event
}

func newTap(inner sim.Protocol) *tap {
	return &tap{inner: inner, acts: map[int]sim.Action{}, events: map[int]sim.Event{}}
}

func (t *tap) Step(slot int) sim.Action {
	a := t.inner.Step(slot)
	t.acts[slot] = a
	return a
}

func (t *tap) Deliver(slot int, ev sim.Event) {
	t.events[slot] = ev
	t.inner.Deliver(slot, ev)
}

func (t *tap) Done() bool { return t.inner.Done() }

// runTapped runs COGCOMP over asn with every node behind a tap (and node
// down, when down is non-nil, behind it as well). The run's own outcome is
// not the subject, so only errors other than an incomplete or over-budget
// run fail the test.
func runTapped(t *testing.T, asn sim.Assignment, cfg Config, down func(sim.NodeID, *Node) sim.Protocol) (*Arena, []*tap) {
	t.Helper()
	n := asn.Nodes()
	taps := make([]*tap, n)
	a := new(Arena)
	wrap := func(id sim.NodeID, nd *Node) sim.Protocol {
		var p sim.Protocol = nd
		if down != nil {
			p = down(id, nd)
		}
		taps[id] = newTap(p)
		return taps[id]
	}
	inputs := make([]int64, n)
	_, err := a.RunWith(asn, 0, inputs, 8, cfg, wrap)
	if err != nil && !errors.Is(err, ErrIncomplete) && !errors.Is(err, sim.ErrMaxSlots) {
		t.Fatal(err)
	}
	return a, taps
}

// TestPhaseOneLog pins what the phase-one log holds: every won broadcast
// and the one listen that first informed the node, in ascending position,
// with position equal to the slot in a fault-free run. The source is never
// informed by a listen. The log sits beside what the node actually did:
// informed nodes broadcast, uninformed ones listen.
func TestPhaseOneLog(t *testing.T) {
	const n = 10
	asn, err := assign.FullOverlap(n, 3, assign.LocalLabels, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, taps := runTapped(t, asn, Config{Kappa: 15}, nil)
	l := a.nodes[0].l
	if l < 40 {
		t.Fatalf("phase one is %d slots; want a long one", l)
	}
	for i, nd := range a.nodes {
		if nd.pos != l {
			t.Errorf("node %d: pos %d after phase one, want l = %d", i, nd.pos, l)
		}
		informing := 0
		for k, e := range nd.acts {
			if k > 0 && e.pos <= nd.acts[k-1].pos {
				t.Errorf("node %d: entry %d at position %d after %d", i, k, e.pos, nd.acts[k-1].pos)
			}
			did := taps[i].acts[e.pos]
			ev := taps[i].events[e.pos]
			if did.Channel != e.ch {
				t.Errorf("node %d position %d: logged channel %d, acted on %d", i, e.pos, e.ch, did.Channel)
			}
			if e.won {
				if did.Op != sim.OpBroadcast || ev.Kind != sim.EvSendSucceeded {
					t.Errorf("node %d position %d: logged a win for %v / %v", i, e.pos, did.Op, ev.Kind)
				}
				if i != 0 && e.pos <= nd.InformedSlot() {
					t.Errorf("node %d: win at %d, not after its informing listen at %d", i, e.pos, nd.InformedSlot())
				}
				continue
			}
			informing++
			if did.Op != sim.OpListen || e.pos != nd.InformedSlot() || e.ch != nd.InformedChannel() {
				t.Errorf("node %d: informing entry (%v, pos %d, ch %d), want a listen at (%d, %d)",
					i, did.Op, e.pos, e.ch, nd.InformedSlot(), nd.InformedChannel())
			}
		}
		switch {
		case i == 0 && informing != 0:
			t.Errorf("source logged %d informing listens", informing)
		case i != 0 && nd.Informed() && informing != 1:
			t.Errorf("node %d logged %d informing listens, want 1", i, informing)
		}
		wins := 0
		for s := 0; s < l; s++ {
			did := taps[i].acts[s]
			informed := i == 0 || (nd.InformedSlot() >= 0 && s > nd.InformedSlot())
			if informed != (did.Op == sim.OpBroadcast) {
				t.Errorf("node %d slot %d: %v while informed=%v", i, s, did.Op, informed)
			}
			if ev, ok := taps[i].events[s]; ok && ev.Kind == sim.EvSendSucceeded {
				wins++
			}
		}
		if logged := len(nd.acts) - informing; logged != wins {
			t.Errorf("node %d: %d wins logged, %d won", i, logged, wins)
		}
	}
}

// TestPhaseOneLogPositions holds a node down for d phase-one slots. Under
// a plain outage it neither steps nor misses a slot, so every entry sits at
// the slot minus the down slots before it; under a crash-restart MissSlot
// counts the down slots and positions equal slots. Either way phase three
// replays the entry at position pos in slot p3base + p2start - 1 - pos and
// idles in every other slot.
func TestPhaseOneLogPositions(t *testing.T) {
	const n, v, from, d = 8, 3, 1, 4
	asn, err := assign.FullOverlap(n, 2, assign.LocalLabels, 8)
	if err != nil {
		t.Fatal(err)
	}
	blackout, err := faults.NewBlackout(from, from+d, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		restart bool
	}{{"outage", false}, {"restart", true}} {
		t.Run(tc.name, func(t *testing.T) {
			a, taps := runTapped(t, asn, Config{Kappa: 8}, func(id sim.NodeID, nd *Node) sim.Protocol {
				if id != v {
					return nd
				}
				if tc.restart {
					return faults.Wrap(nd, id, blackout, faults.WithRestart())
				}
				return faults.Wrap(nd, id, blackout)
			})
			nd, tp := a.nodes[v], taps[v]
			l := nd.l
			position := func(slot int) int {
				if tc.restart {
					return slot
				}
				return slot - min(max(slot-from, 0), d)
			}
			var want []act
			after := 0
			for s := 0; s < l; s++ {
				ev, ok := tp.events[s]
				won := ok && ev.Kind == sim.EvSendSucceeded
				if won || (ok && s == nd.InformedSlot()) {
					want = append(want, act{pos: position(s), ch: ev.Channel, won: won})
					if s >= from+d {
						after++
					}
				}
			}
			if after == 0 {
				t.Fatalf("node %d logged nothing after its outage; the test needs a later entry", v)
			}
			if !slices.Equal(nd.acts, want) {
				t.Fatalf("log %v, want %v", nd.acts, want)
			}
			if wantPos := position(l); nd.pos != wantPos {
				t.Errorf("pos %d after phase one, want %d", nd.pos, wantPos)
			}
			for s := nd.p3base; s < nd.p4start; s++ {
				got, ok := tp.acts[s]
				if !ok {
					t.Fatalf("phase-three slot %d: node %d not stepped", s, v)
				}
				wantAct := sim.Idle()
				for _, e := range nd.acts {
					if nd.p3base+nd.p2start-1-e.pos != s {
						continue
					}
					if e.won {
						wantAct = sim.Listen(e.ch)
					} else {
						wantAct = sim.Broadcast(e.ch, nil)
					}
				}
				if got.Op != wantAct.Op || (got.Op != sim.OpIdle && got.Channel != wantAct.Channel) {
					t.Errorf("phase-three slot %d: %v on %d, want %v on %d", s, got.Op, got.Channel, wantAct.Op, wantAct.Channel)
				}
			}
		})
	}
}

// TestReusedNodeLogMatchesFresh checks that an arena's reused nodes start
// their phase-one log afresh: after a run of another shape, the same run as
// a fresh arena's leaves every node with the same position and log.
func TestReusedNodeLogMatchesFresh(t *testing.T) {
	warm, err := assign.FullOverlap(16, 3, assign.LocalLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	asn, err := assign.FullOverlap(12, 3, assign.LocalLabels, 5)
	if err != nil {
		t.Fatal(err)
	}
	used, fresh := new(Arena), new(Arena)
	if _, err := used.Run(warm, 0, make([]int64, 16), 3, Config{}); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Arena{used, fresh} {
		if _, err := a.Run(asn, 0, make([]int64, 12), 5, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range fresh.nodes {
		u, f := used.nodes[i], fresh.nodes[i]
		if u.pos != f.pos || !slices.Equal(u.acts, f.acts) {
			t.Fatalf("node %d: reused (pos %d, log %v) != fresh (pos %d, log %v)", i, u.pos, u.acts, f.pos, f.acts)
		}
	}
}

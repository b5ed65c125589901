package invariant_test

import (
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
)

// scriptedNode returns acts[slot] from Step (Idle when absent) and ignores
// deliveries; catchingNode adds a CatchUp, so the wake oracle expects it
// to be served deaf while it stands or parks quietly. A catchingNode with
// finishes set is done after its first CatchUp.
type scriptedNode struct{ acts map[int]sim.Action }

func (s *scriptedNode) Step(slot int) sim.Action { return s.acts[slot] }
func (s *scriptedNode) Deliver(int, sim.Event)   {}
func (s *scriptedNode) Done() bool               { return false }

type catchingNode struct {
	scriptedNode
	finishes, done bool
}

func (c *catchingNode) CatchUp(int, int) { c.done = c.finishes }
func (c *catchingNode) Done() bool       { return c.done }

// wakeStream is a hand-fed sparse run: three nodes wrapped by one
// WakeChecker, with node 0 a CatchUpper.
type wakeStream struct {
	w       *invariant.WakeChecker
	nodes   []sim.Protocol
	acts    []map[int]sim.Action
	catcher *catchingNode
}

func newWakeStream() *wakeStream {
	s := &wakeStream{w: new(invariant.WakeChecker)}
	s.w.Reset(3, sim.UniformWinner)
	for i := 0; i < 3; i++ {
		acts := map[int]sim.Action{}
		var p sim.Protocol = &scriptedNode{acts}
		if i == 0 {
			s.catcher = &catchingNode{scriptedNode: scriptedNode{acts}}
			p = s.catcher
		}
		s.acts = append(s.acts, acts)
		s.nodes = append(s.nodes, s.w.Wrap(sim.NodeID(i), p))
	}
	return s
}

// step steps node v in slot with act.
func (s *wakeStream) step(slot, v int, act sim.Action) {
	s.acts[v][slot] = act
	s.nodes[v].Step(slot)
}

func (s *wakeStream) deliver(slot, v int, kind sim.EventKind) {
	s.nodes[v].Deliver(slot, sim.Event{Kind: kind})
}

func (s *wakeStream) catchUp(v, from, to int) {
	s.nodes[v].(sim.CatchUpper).CatchUp(from, to)
}

const standKey sim.WakeKey = 7

// standoff is slot 0 of every stand stream: node 0 stands on channel 0
// awaiting standKey, deaf to its loss, node 1's broadcast there, carrying
// key, wins, and node 2 sleeps for good.
func (s *wakeStream) standoff(key sim.WakeKey) {
	s.step(0, 0, sim.Stand(0, "v", standKey, 9))
	s.step(0, 1, sim.Broadcast(0, "a").Keyed(key))
	s.step(0, 2, sim.Sleep(sim.Forever))
	s.deliver(0, 1, sim.EvSendSucceeded)
	s.w.OnSlot(0, []sim.ChannelOutcome{out(0, 1, ids(0, 1), nil)})
}

// park is slot 0 of every park stream: node 0 takes act, the others sleep
// for good.
func (s *wakeStream) park(act sim.Action) {
	s.step(0, 0, act)
	s.step(0, 1, sim.Sleep(sim.Forever))
	s.step(0, 2, sim.Sleep(sim.Forever))
}

// TestWakeCheckerStands feeds the wake oracle hand-built sparse streams
// with stands and deaf service, one fault per promise it audits: a stander
// stepped early, a stander missing from or added to its channel's
// broadcasters, a deaf node delivered to or caught up wrongly, a catch-up
// that finishes its node, and an awake node delivered to without being
// stepped. The clean stream is a stand armed by its key and won after a
// catch-up.
func TestWakeCheckerStands(t *testing.T) {
	violations := []struct {
		name string
		feed func(s *wakeStream)
		want string
	}{
		{"stander stepped before it wins", func(s *wakeStream) {
			s.standoff(sim.NoKey)
			s.catchUp(0, 0, 1)
			s.step(1, 0, sim.Listen(0))
		}, "dormant node 0 stepped"},
		{"stander missing after its key won", func(s *wakeStream) {
			s.standoff(standKey)
			s.step(1, 1, sim.Listen(0))
			s.w.OnSlot(1, []sim.ChannelOutcome{{Channel: 0, Winner: sim.None, Listeners: ids(1), Parked: ids(0)}})
		}, "stander 0 missing from channel 0's broadcasters"},
		{"stander broadcasts without its key", func(s *wakeStream) {
			s.standoff(standKey + 1)
			s.step(1, 1, sim.Listen(0))
			s.catchUp(0, 0, 1)
			s.deliver(1, 0, sim.EvSendSucceeded)
			s.deliver(1, 1, sim.EvReceived)
			s.w.OnSlot(1, []sim.ChannelOutcome{out(0, 0, ids(0), ids(1))})
		}, "stander 0 broadcast on channel 0 without its key"},
		{"deaf stander delivered a loss", func(s *wakeStream) {
			s.standoff(sim.NoKey)
			s.deliver(0, 0, sim.EvSendFailed)
		}, "served deaf since slot 0 got a send-failed delivery"},
		{"deaf park delivered to", func(s *wakeStream) {
			s.park(sim.ParkListenQuiet(0, 3))
			s.deliver(0, 0, sim.EvReceived)
		}, "served deaf since slot 0 got a received delivery"},
		{"stepped without a catch-up", func(s *wakeStream) {
			s.park(sim.ParkListenQuiet(0, 1))
			s.w.OnSlot(0, []sim.ChannelOutcome{out(0, sim.None, nil, ids(0))})
			s.w.OnSlot(1, []sim.ChannelOutcome{parked(0, 0)})
			s.step(2, 0, sim.Idle())
		}, "deaf node 0 stepped without catching up from slot 0"},
		{"won without a catch-up", func(s *wakeStream) {
			s.standoff(standKey)
			s.deliver(1, 0, sim.EvSendSucceeded)
		}, "deaf node 0 won without catching up from slot 0"},
		{"catch-up from the wrong slot", func(s *wakeStream) {
			s.park(sim.ParkListenQuiet(0, 1))
			s.catchUp(0, 1, 2)
		}, "caught up on [1, 2), deaf since slot 0"},
		{"catch-up past the next step", func(s *wakeStream) {
			s.park(sim.ParkListenQuiet(0, 1))
			s.w.OnSlot(0, []sim.ChannelOutcome{out(0, sim.None, nil, ids(0))})
			s.w.OnSlot(1, []sim.ChannelOutcome{parked(0, 0)})
			s.catchUp(0, 0, 3)
			s.step(2, 0, sim.Idle())
		}, "stepped after catching up to slot 3"},
		{"catch-up of a hearing node", func(s *wakeStream) {
			s.park(sim.ParkListen(0, 1))
			s.catchUp(0, 0, 1)
		}, "was not served deaf"},
		{"delivery after a catch-up", func(s *wakeStream) {
			s.park(sim.ParkListenQuiet(0, 4))
			s.catchUp(0, 0, 1)
			s.deliver(1, 0, sim.EvReceived)
		}, "caught up to slot 1 but neither stepped nor won"},
		{"catch-up finishes the node", func(s *wakeStream) {
			s.park(sim.ParkListenQuiet(0, 3))
			s.catcher.finishes = true
			s.catchUp(0, 0, 1)
		}, "node 0 done after catching up on [0, 1)"},
		{"awake node delivered to but not stepped", func(s *wakeStream) {
			s.park(sim.Listen(0))
			s.w.OnSlot(0, []sim.ChannelOutcome{out(0, sim.None, nil, ids(0))})
			s.deliver(1, 0, sim.EvReceived)
		}, "slot 1: awake node 0 skipped by the sparse scan"},
	}
	for _, tc := range violations {
		t.Run(tc.name, func(t *testing.T) {
			s := newWakeStream()
			tc.feed(s)
			err := s.w.Err()
			if err == nil {
				t.Fatal("violation not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	s := newWakeStream()
	s.standoff(standKey)
	// Slot 1: node 1 listens, the stand is armed and wins.
	s.step(1, 1, sim.Listen(0))
	s.catchUp(0, 0, 1)
	s.deliver(1, 0, sim.EvSendSucceeded)
	s.deliver(1, 1, sim.EvReceived)
	s.w.OnSlot(1, []sim.ChannelOutcome{out(0, 0, ids(0), ids(1))})
	// Slot 2: the winner is stepped again, node 1 after its delivery.
	s.step(2, 0, sim.Idle())
	s.step(2, 1, sim.Idle())
	s.w.OnSlot(2, nil)
	if err := s.w.Err(); err != nil {
		t.Errorf("clean stand stream flagged: %v", err)
	}
}

// contend is slot 0 of every delivery stream: node 0 listens on channel 0
// while node 1 broadcasts there plainly and node 2 quietly.
func (s *wakeStream) contend() {
	s.step(0, 0, sim.Listen(0))
	s.step(0, 1, sim.Broadcast(0, "a"))
	s.step(0, 2, sim.BroadcastQuiet(0, "b"))
}

// TestWakeCheckerDeliveries feeds the wake oracle's delivery audit
// hand-built sparse slots, one fault per rule: a hearing loser, a winner
// or a listener denied its delivery, a quiet loser handed its loss, and a
// delivery on a channel nobody broadcast on. The clean streams are the
// slot won by either broadcaster, the quiet loser skipped.
func TestWakeCheckerDeliveries(t *testing.T) {
	contended := []sim.ChannelOutcome{out(0, 1, ids(1, 2), ids(0))}
	violations := []struct {
		name string
		feed func(s *wakeStream)
		want string
	}{
		{"hearing loser not told it lost", func(s *wakeStream) {
			s.deliver(0, 2, sim.EvSendSucceeded)
			s.deliver(0, 0, sim.EvReceived)
			s.w.OnSlot(0, []sim.ChannelOutcome{out(0, 2, ids(1, 2), ids(0))})
		}, "node 1 on channel 0 heard 0 wins, 0 losses and 0 receptions, want 0, 1 and 0"},
		{"quiet loser delivered its loss", func(s *wakeStream) {
			s.deliver(0, 1, sim.EvSendSucceeded)
			s.deliver(0, 2, sim.EvSendFailed)
			s.deliver(0, 0, sim.EvReceived)
			s.w.OnSlot(0, contended)
		}, "node 2 on channel 0 heard 0 wins, 1 losses and 0 receptions, want 0, 0 and 0"},
		{"winner told it lost", func(s *wakeStream) {
			s.deliver(0, 1, sim.EvSendFailed)
			s.deliver(0, 0, sim.EvReceived)
			s.w.OnSlot(0, contended)
		}, "node 1 on channel 0 heard 0 wins, 1 losses and 0 receptions, want 1, 0 and 0"},
		{"listener not delivered to", func(s *wakeStream) {
			s.deliver(0, 1, sim.EvSendSucceeded)
			s.w.OnSlot(0, contended)
		}, "node 0 on channel 0 heard 0 wins, 0 losses and 0 receptions, want 0, 0 and 1"},
		{"delivery on an idle channel", func(s *wakeStream) {
			s.deliver(0, 1, sim.EvSendSucceeded)
			s.deliver(0, 0, sim.EvReceived)
			s.w.OnSlot(0, []sim.ChannelOutcome{out(0, 1, ids(1, 2), nil), out(1, sim.None, nil, ids(0))})
		}, "node 0 delivered to off every contended channel"},
	}
	for _, tc := range violations {
		t.Run(tc.name, func(t *testing.T) {
			s := newWakeStream()
			s.contend()
			tc.feed(s)
			err := s.w.Err()
			if err == nil {
				t.Fatal("violation not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	for _, winner := range []int{1, 2} {
		s := newWakeStream()
		s.contend()
		s.deliver(0, winner, sim.EvSendSucceeded)
		if winner == 2 {
			s.deliver(0, 1, sim.EvSendFailed)
		}
		s.deliver(0, 0, sim.EvReceived)
		s.w.OnSlot(0, []sim.ChannelOutcome{out(0, sim.NodeID(winner), ids(1, 2), ids(0))})
		if err := s.w.Err(); err != nil {
			t.Errorf("clean slot won by node %d flagged: %v", winner, err)
		}
	}
}

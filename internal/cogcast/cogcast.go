// Package cogcast implements COGCAST, the epidemic local-broadcast protocol
// of Section 4: in every slot each node picks a channel uniformly at random
// from its available set; nodes that already hold the message broadcast it,
// all others listen. Information spreads like an epidemic — the more nodes
// are informed, the faster the remainder is reached — completing in
// O((c/k)·max{1,c/n}·lg n) slots w.h.p. (Theorem 4).
//
// An informed node broadcasts quietly (sim.BroadcastQuiet): it ignores
// all feedback once it holds the message, so a sparse engine need not
// hand it the winner's message when it loses. The paper's model delivers
// that loss, and the dense engine still does; the node's state is the same
// either way.
//
// A node reads no global parameter: the caller's slot budget (SlotBound)
// decides when to stop, and the per-slot behavior depends on nothing but the
// node's own channel set, which is why it tolerates dynamic channel
// assignments unchanged (Theorem 17 discussion).
package cogcast

import (
	"math"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// Payload is the message an informed node broadcasts: the original body
// disseminated by the source. The sender identity travels in the engine's
// event metadata.
type Payload struct {
	Body sim.Message
}

// Node is one COGCAST participant. It implements sim.Protocol.
type Node struct {
	view sim.NodeView
	rand rng.Stream

	informed bool
	payload  sim.Message
	// wire is the boxed Payload an informed node broadcasts. Building it
	// once when the node learns the message (instead of wrapping payload on
	// every Step) keeps the steady-state slot path allocation-free.
	wire sim.Message

	parent        sim.NodeID
	informedSlot  int
	informedLocal int
}

var _ sim.Protocol = (*Node)(nil)

// New creates a COGCAST node. If source is true the node starts informed
// and will broadcast payload from slot 0. Non-source nodes ignore payload.
// The node's random stream is derived from (seed, node id), so a network of
// nodes built from one seed is reproducible yet uncorrelated.
func New(view sim.NodeView, source bool, payload sim.Message, seed int64) *Node {
	n := &Node{}
	n.Reinit(view, source, payload, seed)
	return n
}

// Reinit re-initializes the node exactly as New would, but reuses its random
// source so trial arenas can rebuild a network without per-node
// allocations. A reinitialized node's behavior is draw-for-draw identical to
// a fresh one.
func (n *Node) Reinit(view sim.NodeView, source bool, payload sim.Message, seed int64) {
	*n = Node{
		view:         view,
		rand:         n.rand, // keeps the stream's state array; reseeded below
		informed:     source,
		payload:      payload,
		parent:       sim.None,
		informedSlot: -1,
	}
	n.rand.Reseed(seed, int64(view.ID()), 0xca57)
	if source {
		n.wire = Payload{Body: payload}
	}
}

// Step implements sim.Protocol: choose a uniform random channel; broadcast
// if informed, listen otherwise. The broadcast is quiet, because Deliver
// returns at once for an informed node: a loss teaches it nothing.
func (n *Node) Step(slot int) (a sim.Action) {
	n.StepInto(slot, &a)
	return a
}

// StepInto is Step writing its action into *a: sim.BroadcastQuiet(ch, wire)
// if the node is informed, sim.Listen(ch) otherwise. Every field of *a is
// written, so a caller may pass an action that holds an earlier slot's.
//
// The fields are written one by one on purpose. Returning the constructor's
// result builds the action in a stack temporary with byte stores and copies
// it out with 16-byte loads, which stall on store forwarding, and this is
// the per-node, per-slot path of COGCAST and of COGCOMP's phase one.
// TestStepIntoMatchesConstructors pins the writes to the constructors.
func (n *Node) StepInto(slot int, a *sim.Action) {
	a.Channel = n.rand.Intn(n.view.NumChannels(slot))
	a.Key, a.Sleep, a.Await = sim.NoKey, 0, sim.NoKey
	if n.informed {
		a.Op, a.Quiet, a.Msg = sim.OpBroadcast, true, n.wire
		return
	}
	a.Op, a.Quiet, a.Msg = sim.OpListen, false, nil
}

// Deliver implements sim.Protocol. Only a first reception changes state:
// send outcomes carry nothing an informed node does not already hold.
func (n *Node) Deliver(slot int, ev sim.Event) {
	if ev.Kind != sim.EvReceived || n.informed {
		return
	}
	p, ok := ev.Msg.(Payload)
	if !ok {
		return // foreign traffic; ignore
	}
	n.informed = true
	n.payload = p.Body
	n.wire = ev.Msg // already the boxed Payload; reuse it
	n.parent = ev.From
	n.informedSlot = slot
	n.informedLocal = ev.Channel
}

// Done implements sim.Protocol. COGCAST never terminates on its own: the
// caller's slot budget ends the run (the natural mode for a long-lived
// primitive, per the Section 4 discussion).
func (n *Node) Done() bool { return false }

// Informed reports whether the node holds the message.
func (n *Node) Informed() bool { return n.informed }

// Payload returns the message body the node holds (nil if uninformed).
func (n *Node) Payload() sim.Message {
	if !n.informed {
		return nil
	}
	return n.payload
}

// Parent returns the node that first informed this node, or sim.None for
// the source and for uninformed nodes. Parents define the distribution tree
// COGCOMP aggregates over.
func (n *Node) Parent() sim.NodeID { return n.parent }

// InformedSlot returns the slot in which the node was first informed, or -1.
func (n *Node) InformedSlot() int { return n.informedSlot }

// InformedChannel returns the node's local index of the channel on which it
// was first informed, or 0 if it was never informed. Together with
// InformedSlot it names the node's (r, c)-cluster.
func (n *Node) InformedChannel() int { return n.informedLocal }

// SlotBound returns the protocol's theoretical run length
// κ·(c/k)·max{1,c/n}·lg n, rounded up and at least 1. κ absorbs the
// constants hidden by the Θ in Theorem 4; κ = 4 empirically suffices for
// w.h.p. completion across the topologies in this repository (see the E1/E2
// experiments).
func SlotBound(n, c, k int, kappa float64) int {
	if n < 2 {
		return 1
	}
	slots := kappa * (float64(c) / float64(k)) * math.Max(1, float64(c)/float64(n)) * math.Log2(float64(n))
	if slots < 1 {
		return 1
	}
	return int(math.Ceil(slots))
}

// DefaultKappa is the constant used by the convenience runners when the
// caller does not specify one.
const DefaultKappa = 4.0

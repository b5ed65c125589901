// Package cogcast implements COGCAST, the epidemic local-broadcast protocol
// of Section 4: in every slot each node picks a channel uniformly at random
// from its available set; nodes that already hold the message broadcast it,
// all others listen. Information spreads like an epidemic — the more nodes
// are informed, the faster the remainder is reached — completing in
// O((c/k)·max{1,c/n}·lg n) slots w.h.p. (Theorem 4).
//
// The protocol's only use of global parameters is to decide when to stop;
// the per-slot behavior depends on nothing but the node's own channel set,
// which is why it tolerates dynamic channel assignments unchanged
// (Theorem 17 discussion).
package cogcast

import (
	"math"
	"math/rand"
	"slices"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// Payload is the message an informed node broadcasts: the original body
// disseminated by the source. The sender identity travels in the engine's
// event metadata.
type Payload struct {
	Body sim.Message
}

// SlotRecord is one entry of a node's action log, kept when recording is
// enabled. COGCOMP's phases two and three replay this log: phase two needs
// the slot and channel on which the node was first informed, and phase
// three "rewinds" the whole schedule, so every slot's operation, local
// channel, and outcome must be remembered.
type SlotRecord struct {
	// Op is what the node did (listen or broadcast).
	Op sim.Op
	// Channel is the local channel index used.
	Channel int
	// SendSucceeded reports whether a broadcast in this slot won the channel.
	SendSucceeded bool
	// FirstInformed reports whether a listen in this slot delivered the
	// message to a previously uninformed node.
	FirstInformed bool
}

// Node is one COGCAST participant. It implements sim.Protocol.
type Node struct {
	id   sim.NodeID
	view sim.NodeView
	rand *rand.Rand

	informed bool
	payload  sim.Message
	// wire is the boxed Payload an informed node broadcasts. Building it
	// once when the node learns the message (instead of wrapping payload on
	// every Step) keeps the steady-state slot path allocation-free.
	wire sim.Message

	parent        sim.NodeID
	informedSlot  int
	informedLocal int

	horizon int
	steps   int

	// record is the recording capacity hint (WithRecording); zero means
	// the node keeps no action log.
	record  int
	records []SlotRecord

	// lastAction is the pending record for the slot being resolved; Deliver
	// fills in the outcome fields.
	lastSlot int
}

var _ sim.Protocol = (*Node)(nil)

// Option configures a Node.
type Option func(*Node)

// WithHorizon makes the node terminate after the given number of slots.
// Without a horizon the node runs until the engine stops it (the natural
// mode for a long-lived primitive, per the Section 4 discussion).
func WithHorizon(slots int) Option {
	return func(n *Node) { n.horizon = slots }
}

// WithRecording makes the node keep a SlotRecord per slot, as COGCOMP's
// phase one requires. slots is the expected log length: the first recorded
// append sizes the log to it, so a phase of that many slots fills the log
// without regrowing it. Values below 1 still enable recording.
func WithRecording(slots int) Option {
	return func(n *Node) { n.record = max(slots, 1) }
}

// New creates a COGCAST node. If source is true the node starts informed
// and will broadcast payload from slot 0. Non-source nodes ignore payload.
// The node's random stream is derived from (seed, node id), so a network of
// nodes built from one seed is reproducible yet uncorrelated.
func New(view sim.NodeView, source bool, payload sim.Message, seed int64, opts ...Option) *Node {
	n := &Node{}
	n.Reinit(view, source, payload, seed, opts...)
	return n
}

// Reinit re-initializes the node exactly as New would, but reuses its random
// source and record backing so trial arenas can rebuild a network without
// per-node allocations. A reinitialized node's behavior is draw-for-draw
// identical to a fresh one.
func (n *Node) Reinit(view sim.NodeView, source bool, payload sim.Message, seed int64, opts ...Option) {
	r := n.rand
	if r == nil {
		r = rng.New(seed, int64(view.ID()), 0xca57)
	} else {
		rng.Reseed(r, seed, int64(view.ID()), 0xca57)
	}
	*n = Node{
		id:           view.ID(),
		view:         view,
		rand:         r,
		informed:     source,
		payload:      payload,
		parent:       sim.None,
		informedSlot: -1,
		lastSlot:     -1,
		records:      n.records[:0],
	}
	if source {
		n.wire = Payload{Body: payload}
	}
	for _, opt := range opts {
		opt(n)
	}
}

// Step implements sim.Protocol: choose a uniform random channel; broadcast
// if informed, listen otherwise.
func (n *Node) Step(slot int) sim.Action {
	n.steps++
	ch := n.rand.Intn(n.view.NumChannels(slot))
	n.lastSlot = slot
	var act sim.Action
	if n.informed {
		act = sim.Broadcast(ch, n.wire)
	} else {
		act = sim.Listen(ch)
	}
	if n.record > 0 {
		n.appendRecord(SlotRecord{Op: act.Op, Channel: ch})
	}
	return act
}

// appendRecord appends one entry to the action log, first growing the log
// to the recording hint if its backing is smaller (fresh, or reused from a
// shorter trial).
func (n *Node) appendRecord(rec SlotRecord) {
	if cap(n.records) < n.record {
		n.records = slices.Grow(n.records, n.record-len(n.records))
	}
	n.records = append(n.records, rec)
}

// Deliver implements sim.Protocol.
func (n *Node) Deliver(slot int, ev sim.Event) {
	switch ev.Kind {
	case sim.EvReceived:
		if n.informed {
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
		if n.record > 0 && slot == n.lastSlot {
			n.records[len(n.records)-1].FirstInformed = true
		}
	case sim.EvSendSucceeded:
		if n.record > 0 && slot == n.lastSlot {
			n.records[len(n.records)-1].SendSucceeded = true
		}
	case sim.EvSendFailed:
		// Failed broadcasters receive the winning message, but an informed
		// node has nothing to learn from it.
	}
}

// Done implements sim.Protocol: true once the horizon (if any) is reached.
func (n *Node) Done() bool {
	return n.horizon > 0 && n.steps >= n.horizon
}

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

// Records returns the node's action log (nil unless recording was enabled).
// The returned slice is owned by the node.
func (n *Node) Records() []SlotRecord { return n.records }

// MissSlot appends an idle entry to the action log for a slot the node did
// not act in (e.g. it was down under a fault schedule, so Step was never
// called). Keeping the log slot-aligned is what lets COGCOMP's phase-three
// rewind replay a faulty phase one: a missed slot rewinds to "no role".
// No-op unless recording is enabled.
func (n *Node) MissSlot(slot int) {
	if n.record == 0 {
		return
	}
	n.lastSlot = slot
	n.appendRecord(SlotRecord{Op: sim.OpIdle})
}

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

// Package gossip extends COGCAST from one source to m concurrent sources —
// the all-to-all "gossip" variant of local broadcast. The paper motivates
// local broadcast as a primitive for synchronizing a network (disseminating
// shared random bits or configuration); when several nodes hold pieces of
// that state simultaneously, the natural generalization is for every node
// to relay the *union* of the rumors it has heard.
//
// The protocol is COGCAST's: every slot each node picks a uniform channel;
// nodes knowing at least one rumor broadcast their full rumor set, others
// listen, and receivers merge. One-winner collisions mean a slot transfers
// one set per channel. This is an extension of the paper (no theorem covers
// it); experiment E18 measures how completion scales with the rumor count m
// and network size n.
package gossip

import (
	"errors"
	"fmt"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// Rumor identifies one of the m rumors by its source's index 0..m-1.
type Rumor int

// rumorSet is an immutable bitset of rumors; messages share these values,
// so senders must never mutate a set after broadcasting it.
type rumorSet []uint64

func newRumorSet(m int) rumorSet { return make(rumorSet, (m+63)/64) }

func (s rumorSet) clone() rumorSet {
	out := make(rumorSet, len(s))
	copy(out, s)
	return out
}

func (s rumorSet) withAll(other rumorSet) rumorSet {
	out := s.clone()
	for i, w := range other {
		out[i] |= w
	}
	return out
}

// subsetOf reports whether every rumor in s is also in t (same length).
func (s rumorSet) subsetOf(t rumorSet) bool {
	for i, w := range s {
		if w&^t[i] != 0 {
			return false
		}
	}
	return true
}

func (s rumorSet) with(r Rumor) rumorSet {
	out := s.clone()
	out[r/64] |= 1 << (uint(r) % 64)
	return out
}

func (s rumorSet) count() int {
	n := 0
	for _, w := range s {
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}

// message is the broadcast payload: the sender's current rumor set.
type message struct {
	rumors rumorSet
}

// Node is one gossip participant. It implements sim.Protocol.
type Node struct {
	view   sim.NodeView
	rand   rng.Stream
	rumors rumorSet
	// wire is the boxed message holding rumors, rebuilt only when the set
	// grows, so the steady-state slot path does not re-box every broadcast.
	wire sim.Message
}

var _ sim.Protocol = (*Node)(nil)

// NewNode creates a gossip node that initially knows the given rumors (nil
// for a node starting empty). totalRumors is m, known to all nodes.
func NewNode(view sim.NodeView, initial []Rumor, totalRumors int, seed int64) *Node {
	set := newRumorSet(totalRumors)
	for _, r := range initial {
		set = set.with(r)
	}
	n := &Node{
		view:   view,
		rumors: set,
		wire:   message{rumors: set},
	}
	n.rand.Reseed(seed, int64(view.ID()), 0x6055)
	return n
}

// Step implements sim.Protocol: broadcast the known set if nonempty,
// otherwise listen — both on a uniform random channel.
func (n *Node) Step(slot int) sim.Action {
	ch := n.rand.Intn(n.view.NumChannels(slot))
	if n.rumors.count() > 0 {
		return sim.Broadcast(ch, n.wire)
	}
	return sim.Listen(ch)
}

// Deliver implements sim.Protocol: merge any heard rumor set. Failed
// broadcasters also receive the winning set, so co-channel senders merge
// into each other — collisions still make progress, unlike in single-source
// COGCAST where they are pure loss.
func (n *Node) Deliver(_ int, ev sim.Event) {
	m, ok := ev.Msg.(message)
	if !ok || ev.Kind == sim.EvSendSucceeded {
		return
	}
	if m.rumors.subsetOf(n.rumors) {
		return // nothing new; merging would reproduce the current set
	}
	n.rumors = n.rumors.withAll(m.rumors)
	n.wire = message{rumors: n.rumors}
}

// Done implements sim.Protocol; gossip nodes are engine-stopped.
func (n *Node) Done() bool { return false }

// Count returns how many rumors the node holds.
func (n *Node) Count() int { return n.rumors.count() }

// Result reports one gossip execution.
type Result struct {
	// Slots until every node held every rumor (or the budget).
	Slots int
	// Complete reports full dissemination.
	Complete bool
	// MinKnown is the smallest per-node rumor count at the end.
	MinKnown int
}

// Run disseminates m rumors, initially held by nodes sources[0..m-1]
// respectively, until every node knows all of them or maxSlots elapse.
func Run(asn sim.Assignment, sources []sim.NodeID, seed int64, maxSlots int) (*Result, error) {
	n := asn.Nodes()
	m := len(sources)
	if m == 0 {
		return nil, fmt.Errorf("gossip: no sources")
	}
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("gossip: source %d outside [0,%d)", s, n)
		}
	}
	initial := make(map[sim.NodeID][]Rumor, m)
	for i, s := range sources {
		initial[s] = append(initial[s], Rumor(i))
	}
	nodes := make([]*Node, n)
	protos := make([]sim.Protocol, n)
	for i := range nodes {
		nodes[i] = NewNode(sim.View(asn, sim.NodeID(i)), initial[sim.NodeID(i)], m, seed)
		protos[i] = nodes[i]
	}
	eng, err := sim.NewEngine(asn, protos, seed)
	if err != nil {
		return nil, err
	}
	complete := func() bool {
		for _, nd := range nodes {
			if nd.Count() < m {
				return false
			}
		}
		return true
	}
	if _, err := eng.RunWhile(maxSlots, func() bool { return !complete() }); err != nil && !errors.Is(err, sim.ErrMaxSlots) {
		return nil, err
	}
	minKnown := m
	for _, nd := range nodes {
		if c := nd.Count(); c < minKnown {
			minKnown = c
		}
	}
	return &Result{Slots: eng.Slot(), Complete: complete(), MinKnown: minKnown}, nil
}

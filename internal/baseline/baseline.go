// Package baseline implements the straightforward strategies the paper
// compares COGCAST and COGCOMP against:
//
//   - Rendezvous broadcast (Section 1): only the source transmits; every
//     other node hops uniformly until it happens to meet the source.
//     O((c²/k)·lg n) slots — a factor c slower than COGCAST when n >= c,
//     because the epidemic relay is missing.
//   - Rendezvous aggregation (Section 1): the source listens on a random
//     channel per slot while every other node broadcasts its datum on a
//     random channel; with fair contention this needs O(c²n/k) slots.
//   - Hopping-together (Section 6 discussion): under *global* channel
//     labels, all nodes scan the full spectrum in the same predefined
//     order, meeting on a shared channel after O(C/k) expected slots —
//     which beats COGCAST when c >> n, and is impossible under local
//     labels.
package baseline

import (
	"errors"
	"fmt"
	"slices"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// payload is the broadcast body used by the baseline broadcasters.
type payload struct {
	Body sim.Message
}

// datum is a rendezvous-aggregation report.
type datum struct {
	ID    sim.NodeID
	Value int64
}

// --- Rendezvous broadcast ----------------------------------------------------

// rdvNode is a rendezvous-broadcast participant: the source broadcasts on a
// uniform random channel every slot; everyone else listens on a uniform
// random channel until informed. Informed non-source nodes keep listening —
// they do not relay (that relay is precisely COGCAST's advantage).
type rdvNode struct {
	view     sim.NodeView
	rand     rng.Stream
	source   bool
	informed bool
	body     sim.Message
	// wire is the boxed payload the source broadcasts, built once so the
	// steady-state slot path stays allocation-free.
	wire sim.Message
}

var _ sim.Protocol = (*rdvNode)(nil)

func (n *rdvNode) Step(slot int) sim.Action {
	ch := n.rand.Intn(n.view.NumChannels(slot))
	if n.source {
		return sim.Broadcast(ch, n.wire)
	}
	return sim.Listen(ch)
}

func (n *rdvNode) Deliver(_ int, ev sim.Event) {
	if ev.Kind != sim.EvReceived || n.informed {
		return
	}
	if p, ok := ev.Msg.(payload); ok {
		n.informed = true
		n.body = p.Body
	}
}

func (n *rdvNode) Done() bool { return false }

// BroadcastResult reports a rendezvous-broadcast run.
type BroadcastResult struct {
	Slots       int
	AllInformed bool
}

// RendezvousBroadcast runs the baseline broadcast until every node is
// informed or maxSlots elapse.
func RendezvousBroadcast(asn sim.Assignment, source sim.NodeID, body sim.Message, seed int64, maxSlots int, opts ...sim.Option) (*BroadcastResult, error) {
	n := asn.Nodes()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("baseline: source %d outside [0,%d)", source, n)
	}
	nodes := make([]*rdvNode, n)
	protos := make([]sim.Protocol, n)
	for i := range nodes {
		nodes[i] = &rdvNode{
			view:     sim.View(asn, sim.NodeID(i)),
			source:   sim.NodeID(i) == source,
			informed: sim.NodeID(i) == source,
			body:     body,
			wire:     payload{Body: body},
		}
		nodes[i].rand.Reseed(seed, int64(i), 0xba5e)
		protos[i] = nodes[i]
	}
	eng, err := sim.NewEngine(asn, protos, seed, opts...)
	if err != nil {
		return nil, err
	}
	allInformed := func() bool {
		for _, nd := range nodes {
			if !nd.informed {
				return false
			}
		}
		return true
	}
	if _, err := eng.RunWhile(maxSlots, func() bool { return !allInformed() }); err != nil && !errors.Is(err, sim.ErrMaxSlots) {
		return nil, err
	}
	return &BroadcastResult{Slots: eng.Slot(), AllInformed: allInformed()}, nil
}

// --- Rendezvous aggregation ---------------------------------------------------

// aggSender hops uniformly, broadcasting its datum every slot. It never
// learns whether the source heard it — fair contention simply keeps every
// sender in the race, which is what makes the baseline cost O(c²n/k).
type aggSender struct {
	view sim.NodeView
	rand rng.Stream
	// wire is the boxed datum, built once: the report never changes, and
	// re-boxing it every Step was the dominant allocation of the whole
	// rendezvous-aggregation baseline.
	wire sim.Message
}

var _ sim.Protocol = (*aggSender)(nil)

func (n *aggSender) Step(slot int) sim.Action {
	ch := n.rand.Intn(n.view.NumChannels(slot))
	return sim.Broadcast(ch, n.wire)
}

func (n *aggSender) Deliver(int, sim.Event) {}
func (n *aggSender) Done() bool             { return false }

// aggSource listens on a uniform random channel per slot, recording each
// distinct datum it hears.
type aggSource struct {
	view  sim.NodeView
	rand  rng.Stream
	heard map[sim.NodeID]int64
}

var _ sim.Protocol = (*aggSource)(nil)

func (n *aggSource) Step(slot int) sim.Action {
	return sim.Listen(n.rand.Intn(n.view.NumChannels(slot)))
}

func (n *aggSource) Deliver(_ int, ev sim.Event) {
	if ev.Kind != sim.EvReceived {
		return
	}
	if d, ok := ev.Msg.(datum); ok {
		n.heard[d.ID] = d.Value
	}
}

func (n *aggSource) Done() bool { return false }

// AggregationResult reports a rendezvous-aggregation run.
type AggregationResult struct {
	Slots    int
	Complete bool
	// Values maps each reporting node to the datum the source received.
	Values map[sim.NodeID]int64
}

// RendezvousAggregation runs the baseline aggregation until the source has
// heard every non-source node's datum or maxSlots elapse.
func RendezvousAggregation(asn sim.Assignment, source sim.NodeID, inputs []int64, seed int64, maxSlots int) (*AggregationResult, error) {
	n := asn.Nodes()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("baseline: source %d outside [0,%d)", source, n)
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("baseline: got %d inputs for %d nodes", len(inputs), n)
	}
	src := &aggSource{
		view:  sim.View(asn, source),
		heard: make(map[sim.NodeID]int64, n-1),
	}
	src.rand.Reseed(seed, int64(source), 0xa66)
	protos := make([]sim.Protocol, n)
	for i := range protos {
		if sim.NodeID(i) == source {
			protos[i] = src
			continue
		}
		snd := &aggSender{
			view: sim.View(asn, sim.NodeID(i)),
			wire: datum{ID: sim.NodeID(i), Value: inputs[i]},
		}
		snd.rand.Reseed(seed, int64(i), 0xa66)
		protos[i] = snd
	}
	eng, err := sim.NewEngine(asn, protos, seed)
	if err != nil {
		return nil, err
	}
	if _, err := eng.RunWhile(maxSlots, func() bool { return len(src.heard) < n-1 }); err != nil && !errors.Is(err, sim.ErrMaxSlots) {
		return nil, err
	}
	return &AggregationResult{
		Slots:    eng.Slot(),
		Complete: len(src.heard) == n-1,
		Values:   src.heard,
	}, nil
}

// --- Hopping together ----------------------------------------------------------

// hopNode scans the global spectrum in lockstep with everyone else: in slot
// t it tunes to physical channel t mod C if that channel is in its set, and
// stays off the air otherwise. Informed nodes broadcast; uninformed listen.
// This strategy requires global channel labels — each node must know the
// physical identity of its channels — which is exactly why it does not
// exist in the local-label model (Section 6 discussion).
type hopNode struct {
	total    int
	localOf  map[int]int // physical channel -> local index
	owned    []int       // sorted scan positions (physical channels) in the set
	informed bool
	body     sim.Message
	// wire is the boxed payload an informed node rebroadcasts; built once by
	// the source and adopted from the received message by everyone else.
	wire sim.Message
}

var _ sim.Protocol = (*hopNode)(nil)

func (n *hopNode) Step(slot int) sim.Action {
	if len(n.owned) == 0 {
		return sim.Sleep(sim.Forever)
	}
	pos := slot % n.total
	local, ok := n.localOf[pos]
	if !ok {
		// Off the air until the scan next reaches an owned channel. The gap
		// is pure arithmetic — no state, no randomness — so it carries a
		// dormancy hint (idle nodes receive nothing, making the promise
		// trivially safe even mid-run).
		return sim.Sleep(n.gapAfter(pos) - 1)
	}
	if n.informed {
		return sim.Broadcast(local, n.wire)
	}
	return sim.Listen(local)
}

// gapAfter returns the number of slots from scan position pos (exclusive)
// to the node's next owned position (inclusive), in [1, total].
func (n *hopNode) gapAfter(pos int) int {
	for _, p := range n.owned {
		if p > pos {
			return p - pos
		}
	}
	return n.owned[0] + n.total - pos
}

func (n *hopNode) Deliver(_ int, ev sim.Event) {
	if ev.Kind != sim.EvReceived || n.informed {
		return
	}
	if p, ok := ev.Msg.(payload); ok {
		n.informed = true
		n.body = p.Body
		n.wire = ev.Msg // already the boxed payload; reuse it
	}
}

func (n *hopNode) Done() bool { return false }

// HoppingTogether runs the global-label sequential-scan broadcast until all
// nodes are informed or maxSlots elapse. The assignment must be static.
// Nodes emit dormancy hints across their off-spectrum gaps, so running with
// sim.WithSparse() steps only the nodes that own the channel being scanned.
func HoppingTogether(asn sim.Assignment, source sim.NodeID, body sim.Message, seed int64, maxSlots int, opts ...sim.Option) (*BroadcastResult, error) {
	n := asn.Nodes()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("baseline: source %d outside [0,%d)", source, n)
	}
	nodes := make([]*hopNode, n)
	protos := make([]sim.Protocol, n)
	for i := range nodes {
		set := asn.ChannelSet(sim.NodeID(i), 0)
		localOf := make(map[int]int, len(set))
		owned := make([]int, 0, len(set))
		for local, phys := range set {
			localOf[phys] = local
			owned = append(owned, phys)
		}
		slices.Sort(owned)
		nodes[i] = &hopNode{
			total:    asn.Channels(),
			localOf:  localOf,
			owned:    owned,
			informed: sim.NodeID(i) == source,
			body:     body,
			wire:     payload{Body: body},
		}
		protos[i] = nodes[i]
	}
	eng, err := sim.NewEngine(asn, protos, seed, opts...)
	if err != nil {
		return nil, err
	}
	allInformed := func() bool {
		for _, nd := range nodes {
			if !nd.informed {
				return false
			}
		}
		return true
	}
	if _, err := eng.RunWhile(maxSlots, func() bool { return !allInformed() }); err != nil && !errors.Is(err, sim.ErrMaxSlots) {
		return nil, err
	}
	return &BroadcastResult{Slots: eng.Slot(), AllInformed: allInformed()}, nil
}

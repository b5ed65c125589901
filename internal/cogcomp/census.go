package cogcomp

import (
	"cmp"
	"math/bits"
	"slices"

	"github.com/cogradio/crn/internal/sim"
)

// rosterEntry is one phase-two success: node id announced that it was first
// informed in phase-one slot r, and the announcement won in slot slot. The
// fields are int32 so that recording the slot shrinks an entry rather than
// growing it.
type rosterEntry struct {
	id, r, slot int32
}

// census is the storage behind every node's phase-two roster, owned by the
// Arena: one append-only log of roster entries per physical channel, in the
// order the entries were first delivered on that channel, and each logged
// id's position in its channel's log. A node keeps only a bitset over its
// own channel's log (Node.held) and counts an entry as part of its roster
// once it has heard it, so the log is storage, not knowledge: a node that
// was down, or that never heard a success, holds a strict subset of its
// channel's log. An id only ever broadcasts on its own informed channel, so
// one position array serves every log.
//
// Each entry records the slot it won in, and a channel's log is in slot
// order, because every slot has at most one winner and its entry is
// logged by the first delivery of that slot's win, and later ones find
// it. Every delivery of a win carries the same entry, so the log does not
// depend on which node the engine delivers to first (node order on a
// dense engine, channel order on a sparse one). So the entries a node
// would have heard while it was not delivered to — a sparse engine serves
// census contenders and listeners deaf, see Node.CatchUp — are one range
// of positions, which holdSlots finds by slot.
//
// Logs are written only from Deliver, which the engine calls serially;
// Step, which may run on several shards, only reads them. That needs the
// physical channel behind a node's local index to stay put, which COGCOMP's
// static assignment guarantees.
type census struct {
	asn  sim.Assignment
	logs [][]rosterEntry // per physical channel
	pos  []int32         // per id: position in its channel's log, -1 if unlogged
}

// reset empties every log for a run over asn, keeping the backings.
func (c *census) reset(asn sim.Assignment) {
	c.asn = asn
	n, chans := asn.Nodes(), asn.Channels()
	c.pos = slices.Grow(c.pos[:0], n)[:n]
	for i := range c.pos {
		c.pos[i] = -1
	}
	c.logs = slices.Grow(c.logs[:0], chans)[:chans]
	for ch := range c.logs {
		c.logs[ch] = c.logs[ch][:0]
	}
}

// rosterPos returns the position of id's entry in the node's channel log,
// or -1 if the log holds no entry for id (it is unlogged, or it belongs to
// another channel).
func (nd *Node) rosterPos(id sim.NodeID) int {
	p := int(nd.cen.pos[id])
	if log := nd.cen.logs[nd.phys]; p < 0 || p >= len(log) || sim.NodeID(log[p].id) != id {
		return -1
	}
	return p
}

// inRoster reports whether the node already holds a census entry for id.
// Classically every id succeeds exactly once, so the lookup never finds a
// duplicate; under recovery a re-run census replays entries the node may
// already hold.
func (nd *Node) inRoster(id sim.NodeID) bool {
	p := nd.rosterPos(id)
	return p >= 0 && p>>6 < len(nd.held) && nd.held[p>>6]&(1<<(uint(p)&63)) != 0
}

// addRoster records that the node heard id's census entry in slot: the
// entry is logged on the node's channel unless an earlier delivery logged
// it, and the node's bit for it is set.
func (nd *Node) addRoster(id sim.NodeID, r, slot int) {
	p := nd.rosterPos(id)
	if p < 0 {
		log := &nd.cen.logs[nd.phys]
		p = len(*log)
		*log = append(*log, rosterEntry{id: int32(id), r: int32(r), slot: int32(slot)})
		nd.cen.pos[id] = int32(p)
	}
	for len(nd.held) <= p>>6 {
		nd.held = append(nd.held, 0)
	}
	nd.held[p>>6] |= 1 << (uint(p) & 63)
}

// hold sets the node's bits for log positions [lo, hi), a word at a time.
func (nd *Node) hold(lo, hi int) {
	for len(nd.held) < (hi+63)>>6 {
		nd.held = append(nd.held, 0)
	}
	for p := lo; p < hi; {
		end := min(hi, (p>>6+1)<<6)
		nd.held[p>>6] |= ^uint64(0) >> (64 - (end - p)) << (p & 63)
		p = end
	}
}

// holdSlots holds every entry the node's channel logged in slots
// [from, to): what the census deliveries of those slots would have added.
func (nd *Node) holdSlots(from, to int) {
	log := nd.cen.logs[nd.phys]
	bySlot := func(e rosterEntry, s int) int { return cmp.Compare(int(e.slot), s) }
	lo, _ := slices.BinarySearchFunc(log, from, bySlot)
	hi, _ := slices.BinarySearchFunc(log, to, bySlot)
	if lo < hi {
		nd.hold(lo, hi)
	}
}

// eachHeld calls f for every entry the node holds, in log order.
func (nd *Node) eachHeld(f func(rosterEntry)) {
	log := nd.cen.logs[nd.phys]
	for w, word := range nd.held {
		for ; word != 0; word &= word - 1 {
			f(log[w<<6|bits.TrailingZeros64(word)])
		}
	}
}

// buildClusters builds the node's mediator schedule: one cluster per
// informed slot among the entries it holds, latest first, leaving out every
// id skip reports (nil keeps all). The initial election and a
// recovery re-election (AssumeMediator) both build the schedule here.
func (nd *Node) buildClusters(skip func(sim.NodeID) bool) {
	var es []rosterEntry
	nd.eachHeld(func(e rosterEntry) {
		if skip == nil || !skip(sim.NodeID(e.id)) {
			es = append(es, e)
		}
	})
	slices.SortFunc(es, func(a, b rosterEntry) int { return cmp.Compare(b.r, a.r) })
	nd.medClusters = nd.medClusters[:0]
	for i := 0; i < len(es); {
		cl := medCluster{r: int(es[i].r), members: make(map[sim.NodeID]bool)}
		for ; i < len(es) && int(es[i].r) == cl.r; i++ {
			cl.members[sim.NodeID(es[i].id)] = true
		}
		nd.medClusters = append(nd.medClusters, cl)
	}
	nd.medIdx = 0
	nd.medAcked = make(map[sim.NodeID]bool)
}

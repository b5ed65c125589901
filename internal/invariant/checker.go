// Package invariant implements an independent oracle for the slot model:
// a per-slot checker that re-verifies, from outside the engine, that every
// observed slot obeys the paper's Section 2 semantics — each node uses one
// channel from its own set, channels resolve to exactly one winner drawn
// from the broadcasters (uniformly under the default model), and listeners
// and losers are reported consistently — plus offline checks for the
// k-overlap contract of channel assignments, distribution-tree
// well-formedness (Section 5), COGCOMP's cluster census, and aggregate
// ground truth.
//
// The checker deliberately shares no code with the engine's hot path or
// with package assign's Validate, Index or bitmap sets: membership is
// re-derived from ChannelSet alone, overlap is counted over the oracle's
// own copy of the sets, and winner uniformity is tested statistically
// (chi-square over winner positions pooled across runs). A bug in the
// engine's dense scratch bookkeeping or in assign's bitmap sets therefore
// cannot hide itself from the oracle.
//
// Under a sim.Fixed assignment, whose sets never change, Reset copies
// every node's ChannelSet into a table the checker owns, one row per node,
// and every membership test is a lookup in it. The row layout is picked
// from the channel count C and the longest set c alone: a bitmap of
// ⌈C/64⌉ words wherever that is no wider than an open-addressed hash row
// of the next power of two ≥ 2c int32 slots (one word at C = 48), and the
// hash row otherwise (the partitioned shapes, whose C grows with n). Only
// the chosen layout is allocated. The table is rebuilt at every Reset,
// never cached by assignment, so an assignment rebuilt in place is checked
// against its new sets. Any other assignment may change its sets every
// slot, so its memberships are re-derived by scanning that slot's
// ChannelSet.
//
// Stepped participants (broadcasters and Listeners) are re-derived in every
// slot. Parked listeners (ChannelOutcome.Parked) are checked when a park
// starts: the checker keeps its own copy of each channel's last reported
// parked list and of the channel each node is parked on. In every slot it
// compares each reported list with its copy as raw memory, trusting no
// slice header, so a list the engine rewrote in place is still seen to
// change. A changed list is diffed against its copy in one merged walk
// that touches only the ids that differ, and membership is tested once per
// arrival. Parks exist only under a sim.Fixed assignment, so the
// membership holds for the whole park; a parked list under any other
// assignment is itself a violation. A park must be the node's only radio:
// a node parked on two channels, or stepped while parked, is reported.
//
// Checking is opt-in and zero-cost when disabled: nothing is attached to
// the engine, so the untraced slot path remains the pinned zero-allocation
// loop. When enabled, a warm Checker's OnSlot allocates only on the
// violation path.
package invariant

import (
	"bytes"
	"fmt"
	"unsafe"

	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/stats"
)

// Checker is a sim.Observer that re-verifies each slot's channel outcomes
// against the model. The zero value is not usable; call Reset before a
// run. A Checker may be reused across runs (arenas keep one per worker):
// Reset clears per-run state but keeps the winner-position tallies, so
// uniformity is tested over everything the checker has ever observed.
// Checkers are not safe for concurrent use.
type Checker struct {
	asn     sim.Assignment
	model   sim.CollisionModel
	n       int
	numChan int
	fixed   bool // sim.Fixed(asn): the only assignments that may report parks

	// members copies the sets of a fixed assignment at Reset; tabled
	// reports that inSet reads it instead of scanning ChannelSet.
	members memberTable
	tabled  bool

	lastSlot int
	stamp    int
	nodeSeen []int // stamp when the node last participated in a slot

	// Parks as last reported, kept apart from the engine's own lists and
	// allocated on the first non-empty Parked, so dense runs pay nothing.
	parked    [][]sim.NodeID // channel -> copy of its last Parked list
	parkedOn  []int32        // node -> 1 + channel it is parked on, 0 = none
	parkSeen  []int          // channel -> stamp of the last slot reporting it
	parkTouch []int          // channels with a non-empty copy
	arrivals  []parkArrival  // parks starting in this slot (scratch)

	// tally[b][pos] counts contended channels with b broadcasters whose
	// winner sat at position pos of the ascending broadcaster list. Under
	// UniformWinner each position is equally likely; Uniformity tests that.
	tally [][]int64

	violations int
	firstErr   error
}

var _ sim.Observer = (*Checker)(nil)

// Reset prepares the checker for one run over the given assignment and
// collision model. Violation state and the slot cursor reset, and a fixed
// assignment's sets are copied afresh; the pooled uniformity tallies are
// kept (call a fresh Checker to drop them).
func (c *Checker) Reset(asn sim.Assignment, model sim.CollisionModel) {
	c.asn = asn
	c.model = model
	c.n = asn.Nodes()
	c.numChan = asn.Channels()
	c.fixed = sim.Fixed(asn)
	c.tabled = c.fixed && c.numChan <= maxTableChannel
	if c.tabled {
		c.members.load(asn, c.numChan)
	}
	c.lastSlot = -1
	c.firstErr = nil
	c.violations = 0
	if short := c.n - len(c.nodeSeen); short > 0 {
		c.nodeSeen = append(c.nodeSeen, make([]int, short)...)
	}
	for _, ch := range c.parkTouch {
		c.depart(ch)
		c.parked[ch] = c.parked[ch][:0]
	}
	c.parkTouch = c.parkTouch[:0]
	if c.parkedOn != nil {
		c.growParked()
	}
}

// growParked sizes the park state to the current run's nodes and channels.
func (c *Checker) growParked() {
	if short := c.n - len(c.parkedOn); short > 0 {
		c.parkedOn = append(c.parkedOn, make([]int32, short)...)
		// A slot starts each node's park at most once on a clean run.
		c.arrivals = make([]parkArrival, 0, c.n)
	}
	if short := c.numChan - len(c.parked); short > 0 {
		c.parked = append(c.parked, make([][]sim.NodeID, short)...)
		c.parkSeen = append(c.parkSeen, make([]int, short)...)
	}
}

// OnSlot implements sim.Observer: it re-checks every reported channel
// outcome of the slot. Violations are recorded, not panicked on; see Err.
func (c *Checker) OnSlot(slot int, outcomes []sim.ChannelOutcome) {
	if c.asn == nil {
		c.failf("checker used before Reset (slot %d)", slot)
		return
	}
	if slot != c.lastSlot+1 {
		c.failf("slot %d reported after slot %d: observed slots must be consecutive", slot, c.lastSlot)
	}
	c.lastSlot = slot
	c.stamp++
	c.checkParks(slot, outcomes)
	prevCh := -1
	for i := range outcomes {
		o := &outcomes[i]
		if o.Channel <= prevCh {
			c.failf("slot %d: channel %d out of ascending order (previous %d)", slot, o.Channel, prevCh)
		}
		prevCh = o.Channel
		if o.Channel < 0 || o.Channel >= c.numChan {
			c.failf("slot %d: channel %d outside [0,%d)", slot, o.Channel, c.numChan)
			continue
		}
		if len(o.Broadcasters) == 0 && len(o.Listeners) == 0 && len(o.Parked) == 0 {
			c.failf("slot %d: channel %d reported with no participants", slot, o.Channel)
		}
		winnerPos := -1
		prev := sim.NodeID(-1)
		for pos, b := range o.Broadcasters {
			c.checkParticipant(slot, o.Channel, b, &prev)
			if b == o.Winner {
				winnerPos = pos
			}
		}
		prev = -1
		for _, l := range o.Listeners {
			c.checkParticipant(slot, o.Channel, l, &prev)
		}
		if len(o.Broadcasters) == 0 {
			if o.Winner != sim.None {
				c.failf("slot %d: channel %d has winner %d but no broadcasters", slot, o.Channel, o.Winner)
			}
			continue
		}
		if winnerPos < 0 {
			c.failf("slot %d: channel %d winner %d is not among its %d broadcasters",
				slot, o.Channel, o.Winner, len(o.Broadcasters))
			continue
		}
		switch c.model {
		case sim.AllDelivered:
			// Footnote-3 semantics deliver everything; the engine reports
			// the first (smallest-id) broadcaster as the nominal winner.
			if winnerPos != 0 {
				c.failf("slot %d: channel %d all-delivered winner %d is not the first broadcaster",
					slot, o.Channel, o.Winner)
			}
		default:
			if len(o.Broadcasters) > 1 {
				c.tallyWin(len(o.Broadcasters), winnerPos)
			}
		}
	}
}

// checkParks applies the slot's parked lists to the checker's copies
// before any stepped participant is checked. Every departure — from a
// changed list, or from a channel that dropped out of the report, whose
// parks all ended — is applied before any arrival, so a node that leaves
// one park and starts another in the same slot is not taken for a node on
// two channels.
func (c *Checker) checkParks(slot int, outcomes []sim.ChannelOutcome) {
	c.arrivals = c.arrivals[:0]
	for i := range outcomes {
		o := &outcomes[i]
		if o.Channel < 0 || o.Channel >= c.numChan {
			continue // reported by OnSlot
		}
		if len(o.Parked) == 0 && (c.parkedOn == nil || len(c.parked[o.Channel]) == 0) {
			continue
		}
		if !c.fixed {
			c.failf("slot %d: channel %d reports %d parked listeners under an assignment that is not fixed",
				slot, o.Channel, len(o.Parked))
			continue
		}
		if c.parkedOn == nil {
			c.growParked()
		}
		c.parkSeen[o.Channel] = c.stamp
		if !sameIDs(c.parked[o.Channel], o.Parked) {
			c.repark(slot, o.Channel, o.Parked)
		}
	}
	keep := c.parkTouch[:0]
	for _, ch := range c.parkTouch {
		if c.parkSeen[ch] != c.stamp {
			c.depart(ch)
			c.parked[ch] = c.parked[ch][:0]
		}
		if len(c.parked[ch]) > 0 {
			keep = append(keep, ch)
		}
	}
	c.parkTouch = keep
	for _, a := range c.arrivals {
		c.arrive(slot, a)
	}
}

// sameIDs reports whether two id lists hold the same ids in the same
// order. Parked lists are long and mostly unchanged from slot to slot, so
// the lists are compared as raw memory, which the runtime does in vector
// blocks rather than one id at a time. The element width comes from
// sim.NodeID itself, since it is an int and so 4 or 8 bytes by target.
// This is the package's only use of unsafe.
func sameIDs(a, b []sim.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	size := len(a) * int(unsafe.Sizeof(sim.NodeID(0)))
	return bytes.Equal(
		unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), size),
		unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), size))
}

// parkArrival is a park that starts in the current slot: node id on
// channel ch. Both fit an int32, as parkedOn's channels do, which halves
// the queue.
type parkArrival struct{ id, ch int32 }

// repark makes channel ch's changed parked list pk the checker's copy,
// diffing the two in one merged walk. Ids must be in range and strictly
// ascending. A node only in the old copy departs at once; a node only in
// pk is queued for arrive, which checkParks applies after every departure
// of the slot; a node in both goes on with its park and is not touched.
// A list that breaks the order ends every park in the copy and leaves the
// copy empty.
func (c *Checker) repark(slot, ch int, pk []sim.NodeID) {
	old, j := c.parked[ch], 0
	queued := len(c.arrivals)
	prev := sim.NodeID(-1)
	for _, id := range pk {
		if id < 0 || int(id) >= c.n {
			c.failf("slot %d: channel %d parked listener %d outside [0,%d)", slot, ch, id, c.n)
			c.dropPark(ch, queued)
			return
		}
		if id <= prev {
			c.failf("slot %d: channel %d parked listeners out of ascending order (%d after %d)", slot, ch, id, prev)
			c.dropPark(ch, queued)
			return
		}
		prev = id
		for ; j < len(old) && old[j] < id; j++ {
			c.leave(ch, old[j])
		}
		if j < len(old) && old[j] == id {
			j++ // the park goes on
			continue
		}
		c.arrivals = append(c.arrivals, parkArrival{int32(id), int32(ch)})
	}
	for ; j < len(old); j++ {
		c.leave(ch, old[j])
	}
	if len(old) == 0 && len(pk) > 0 {
		c.parkTouch = append(c.parkTouch, ch)
	}
	c.parked[ch] = append(old[:0], pk...)
}

// dropPark ends every park in channel ch's copy, empties it, and forgets
// the arrivals queued for it since the queue held queued entries.
func (c *Checker) dropPark(ch, queued int) {
	c.arrivals = c.arrivals[:queued]
	c.depart(ch)
	c.parked[ch] = c.parked[ch][:0]
}

// depart ends every park in the checker's copy of channel ch. The copy
// itself stays; the caller empties or replaces it.
func (c *Checker) depart(ch int) {
	for _, id := range c.parked[ch] {
		c.leave(ch, id)
	}
}

// leave ends node id's park on channel ch, unless the node is parked on
// another channel, which a violation already reported.
func (c *Checker) leave(ch int, id sim.NodeID) {
	if c.parkedOn[id] == int32(ch)+1 {
		c.parkedOn[id] = 0
	}
}

// arrive starts a park: the node must be parked nowhere else, and its
// channel set must hold the channel.
func (c *Checker) arrive(slot int, a parkArrival) {
	id, ch := sim.NodeID(a.id), int(a.ch)
	if on := c.parkedOn[id]; on != 0 {
		c.failf("slot %d: node %d parked on channel %d while parked on channel %d", slot, id, ch, on-1)
	}
	c.parkedOn[id] = a.ch + 1
	if !c.inSet(id, slot, ch) {
		c.failf("slot %d: node %d parked on physical channel %d outside its %d-channel set",
			slot, id, ch, len(c.asn.ChannelSet(id, slot)))
	}
}

// inSet reports whether physical channel ch, which lies in [0, numChan),
// is in node id's channel set for the slot: a lookup in the table under a
// fixed assignment, a scan of the slot's ChannelSet otherwise.
func (c *Checker) inSet(id sim.NodeID, slot, ch int) bool {
	if c.tabled {
		return c.members.has(int(id), int32(ch))
	}
	for _, p := range c.asn.ChannelSet(id, slot) {
		if p == ch {
			return true
		}
	}
	return false
}

// checkParticipant verifies one stepped node's appearance on a channel: id
// in range, lists ascending, one radio per node per slot (which rules out
// a park), and — re-derived independently from the assignment — the
// physical channel really is in the node's channel set for this slot.
func (c *Checker) checkParticipant(slot, ch int, id sim.NodeID, prev *sim.NodeID) {
	if id < 0 || int(id) >= c.n {
		c.failf("slot %d: channel %d participant %d outside [0,%d)", slot, ch, id, c.n)
		return
	}
	if id <= *prev {
		c.failf("slot %d: channel %d participants out of ascending order (%d after %d)", slot, ch, id, *prev)
	}
	*prev = id
	if c.nodeSeen[id] == c.stamp {
		c.failf("slot %d: node %d participates on two channels in one slot", slot, id)
	}
	c.nodeSeen[id] = c.stamp
	if c.parkedOn != nil && c.parkedOn[id] != 0 {
		c.failf("slot %d: node %d stepped on channel %d while parked on channel %d", slot, id, ch, c.parkedOn[id]-1)
	}
	if !c.inSet(id, slot, ch) {
		c.failf("slot %d: node %d used physical channel %d outside its %d-channel set",
			slot, id, ch, len(c.asn.ChannelSet(id, slot)))
	}
}

// tallyWin records a contended-channel (b >= 2 broadcasters) winner
// position, growing the tally table lazily (each contender count allocates
// its row once). Uncontended channels have a forced winner and carry no
// uniformity information.
func (c *Checker) tallyWin(b, pos int) {
	if b >= len(c.tally) {
		c.tally = append(c.tally, make([][]int64, b+1-len(c.tally))...)
	}
	if c.tally[b] == nil {
		c.tally[b] = make([]int64, b)
	}
	c.tally[b][pos]++
}

func (c *Checker) failf(format string, args ...any) {
	c.violations++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("invariant: "+format, args...)
	}
}

// Err returns the first violation recorded since the last Reset, or nil.
func (c *Checker) Err() error { return c.firstErr }

// Violations returns the number of violations since the last Reset.
func (c *Checker) Violations() int { return c.violations }

// Tallied returns the number of contended-channel resolutions recorded in
// the pooled winner-position tallies (all runs since the checker was
// created).
func (c *Checker) Tallied() int64 {
	var total int64
	for _, row := range c.tally {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// Uniformity tests the pooled winner-position tallies against the uniform
// null: under the paper's collision model the winner of a channel with b
// broadcasters is uniform over them, so its position in the ascending
// broadcaster list is uniform over [0,b). Buckets with expected cell count
// below 5 are excluded (standard chi-square validity); statistics pool
// across the remaining buckets. It returns an error when the combined
// p-value falls below minP, and nil when there is too little data to test.
func (c *Checker) Uniformity(minP float64) error {
	var stat float64
	dof := 0
	var pooled int64
	for b := 2; b < len(c.tally); b++ {
		counts := c.tally[b]
		if counts == nil {
			continue
		}
		var total int64
		for _, v := range counts {
			total += v
		}
		if total == 0 || float64(total)/float64(b) < 5 {
			continue
		}
		s, d, err := stats.ChiSquareUniform(counts)
		if err != nil {
			continue
		}
		stat += s
		dof += d
		pooled += total
	}
	if dof == 0 {
		return nil
	}
	if p := stats.ChiSquareP(stat, dof); p < minP {
		return fmt.Errorf("invariant: winner positions non-uniform over %d contended channels: chi2=%.2f dof=%d p=%.3g < %.3g",
			pooled, stat, dof, p, minP)
	}
	return nil
}

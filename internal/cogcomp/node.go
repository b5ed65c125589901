// Package cogcomp implements COGCOMP, the data-aggregation protocol of
// Section 5. A designated source learns the aggregate of every node's input
// in O((c/k)·max{1,c/n}·lg n + n) slots w.h.p. (Theorem 10).
//
// The protocol has four phases, all driven off the global slot number:
//
//	Phase 1 [0, l):        COGCAST disseminates INIT; each node logs the
//	                       slots phase three replays: its won broadcasts
//	                       and the listen that informed it. The "first
//	                       informed by" relation implicitly builds a
//	                       distribution tree.
//	Phase 2 [l, l+n):      census. Each non-source node broadcasts ⟨id, r⟩
//	                       on the channel where it was informed until it
//	                       succeeds, then listens. Everyone on a channel
//	                       learns the channel's roster: cluster sizes and
//	                       the mediator (smallest id in the latest cluster).
//	Phase 3 [l+n, 2l+n):   rewind. Phase one is replayed backwards; cluster
//	                       members report their cluster's size, so each
//	                       informer learns which clusters it created.
//	Phase 4 [2l+n, ...):   mediated convergecast in 3-slot steps: the
//	                       mediator announces a cluster, one member passes
//	                       its subtree aggregate to its parent, the parent
//	                       acks. O(n) steps total.
//
// Phases 2–4 are fully deterministic given the phase-1 transcript — the
// only randomness in COGCOMP is COGCAST's channel hopping.
package cogcomp

import (
	"sort"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/sim"
)

// medCluster is a cluster on the mediator's channel, with full membership
// (reconstructed from the phase-two roster).
type medCluster struct {
	r       int
	members map[sim.NodeID]bool
}

// act is one entry of a node's phase-one log: a slot phase three replays.
type act struct {
	pos int  // phase-one log position (see Node.pos)
	ch  int  // local channel index used
	won bool // a won broadcast; otherwise the listen that informed the node
}

// infCluster is a cluster this node informed (learned in phase three).
type infCluster struct {
	r    int // phase-one slot in which the cluster was informed
	ch   int // local channel index the informing broadcast used
	size int
}

// Node is one COGCOMP participant. It implements sim.Protocol. Its idle
// and holding-pattern actions carry dormancy hints in every engine mode:
// each honours the Action.Sleep contract, and a dense engine ignores them.
type Node struct {
	id     sim.NodeID
	n      int
	l      int // phase-one length
	source bool
	f      aggfunc.Func
	input  int64

	cast cogcast.Node

	// Phase-one log. pos counts the phase-one slots the node stepped or
	// missed (MissSlot); a plain outage does neither, so pos trails the
	// slot number by the node's down slots. acts holds, in ascending pos,
	// the slots phase three replays, and cur is the rewind's cursor into
	// it (see seek).
	pos  int
	acts []act
	cur  int

	p2start, p3start, p4start int

	// p3base is the slot phase three's rewind is anchored at. It equals
	// p3start classically; the recovery supervisor moves it forward when it
	// re-executes the rewind (RetryRewind), so that slots before the new
	// base map to out-of-range rewound indices and the node idles.
	p3base int
	// holdUntil makes the node idle in every slot before it (recovery
	// backoff gaps). Zero classically, so the guard never fires.
	holdUntil int

	// Captured from the embedded COGCAST node when phase two begins.
	p2init   bool
	informed bool
	r0       int // slot of first information (-1 for source/uninformed)
	ch0      int // local channel index of the informed channel
	parent   sim.NodeID

	// Phase two state. The roster is the set of held bits over the arena's
	// log for the node's physical channel phys (see census): the census
	// delivers Θ(m²) entries per channel (m = channel members), so a node
	// keeps one bit per entry instead of a copy of it. censusWire is the
	// node's boxed census entry, built once when phase two begins.
	censusDone bool
	cen        *census
	phys       int
	held       []uint64
	censusWire sim.Message

	// Derived at the start of phase three.
	p3init      bool
	clusterSize int
	isMediator  bool
	medClusters []medCluster // descending r

	// Phase three harvest.
	collected []infCluster

	// Phase four state.
	p4init       bool
	acc          aggfunc.Value
	valueWire    sim.Message // boxed valueMsg for acc; nil once acc changes
	idx          int         // current cluster being collected
	got          int         // values received for collected[idx]
	pendingAck   sim.NodeID  // sender to ack in slot three
	pendingAckCh int         // local channel the pending ack goes out on
	announced    int         // r' heard (or self-announced) this step
	ownSent      bool        // this node's value was acked by its parent
	medIdx       int         // current mediator cluster
	medAcked     map[sim.NodeID]bool
	// mergedFrom records every sender whose value this node merged, across
	// the whole round. A duplicate value (resent because the sender missed
	// its ack under faults) is re-acked without re-merging — the "no
	// duplicate contribution" recovery invariant. Cleared per round.
	mergedFrom  []sim.NodeID
	mergesTotal int // monotone merge counter (recovery progress metric)

	maxMsgSize int
	done       bool

	// Multi-round session state (see session.go). roundSteps == 0 means the
	// classic single-round protocol.
	rounds        []int64 // per-round inputs; index 0 == input
	roundSteps    int     // steps per round
	round         int
	roundFinished bool
	results       []aggfunc.Value // source only: aggregate per round
	completeRound []bool          // source only: round finished in budget
	finishSteps   []int           // source only: step within round at finish
	stepInRound   int
}

var _ sim.Protocol = (*Node)(nil)

// reinit (re)initializes the node for one execution, storing its census
// roster in cen. All nodes must agree on n (the network size) and phase1Len
// (computed with PhaseOneLength). input is the node's datum; f the
// associative aggregate to compute. The source initiates the broadcast and
// ultimately holds the network-wide aggregate. The embedded COGCAST node
// (including its random source) and the slice backings, the phase-one log's
// among them, are reused, so trial arenas rebuild a network without
// per-node allocations; a reinitialized node is draw-for-draw identical to
// a fresh one.
func (nd *Node) reinit(view sim.NodeView, source bool, n, phase1Len int, input int64, f aggfunc.Func, seed int64, cen *census) {
	cast := nd.cast
	cast.Reinit(view, source, initPayload{}, seed)
	*nd = Node{
		id:          view.ID(),
		n:           n,
		l:           phase1Len,
		source:      source,
		f:           f,
		input:       input,
		cast:        cast,
		p2start:     phase1Len,
		p3start:     phase1Len + n,
		p3base:      phase1Len + n,
		p4start:     2*phase1Len + n,
		r0:          -1,
		parent:      sim.None,
		pendingAck:  sim.None,
		announced:   -1,
		cen:         cen,
		acts:        nd.acts[:0],
		held:        nd.held[:0],
		medClusters: nd.medClusters[:0],
		collected:   nd.collected[:0],
		mergedFrom:  nd.mergedFrom[:0],
		// Session backings survive too; RunRounds refills them per session.
		rounds:        nd.rounds[:0],
		results:       nd.results[:0],
		completeRound: nd.completeRound[:0],
		finishSteps:   nd.finishSteps[:0],
	}
}

// PhaseOneLength returns the phase-one slot count all nodes must share:
// COGCAST's theoretical bound for the network parameters.
func PhaseOneLength(n, c, k int, kappa float64) int {
	return cogcast.SlotBound(n, c, k, kappa)
}

// Step implements sim.Protocol.
func (nd *Node) Step(slot int) sim.Action {
	if slot < nd.holdUntil {
		return sim.Idle() // recovery backoff gap
	}
	switch {
	case slot < nd.p2start:
		nd.pos++
		return nd.cast.Step(slot)
	case slot < nd.p3start:
		nd.initPhase2()
		return nd.stepPhase2(slot)
	case slot < nd.p4start:
		nd.initPhase3()
		return nd.stepPhase3(slot)
	default:
		nd.initPhase4()
		return nd.stepPhase4(slot)
	}
}

// Deliver implements sim.Protocol.
func (nd *Node) Deliver(slot int, ev sim.Event) {
	switch {
	case slot < nd.p2start:
		nd.deliverPhase1(slot, ev)
	case slot < nd.p3start:
		nd.deliverPhase2(slot, ev)
	case slot < nd.p4start:
		nd.deliverPhase3(slot, ev)
	default:
		nd.deliverPhase4(slot, ev)
	}
}

// Done implements sim.Protocol.
func (nd *Node) Done() bool { return nd.done }

// --- Phase 1: COGCAST -------------------------------------------------------

// deliverPhase1 hands the outcome to COGCAST and logs the slot if phase three
// replays it: a won broadcast, or the listen that first informed the node.
// A loss changes nothing here or in COGCAST, which is what lets phase
// one's broadcasts be quiet (sim.BroadcastQuiet): a sparse engine skips
// them.
func (nd *Node) deliverPhase1(slot int, ev sim.Event) {
	was := nd.cast.Informed()
	nd.cast.Deliver(slot, ev)
	if won := ev.Kind == sim.EvSendSucceeded; won || nd.cast.Informed() != was {
		nd.acts = append(nd.acts, act{pos: nd.pos - 1, ch: ev.Channel, won: won})
	}
}

// --- Phase 2: census -------------------------------------------------------

func (nd *Node) initPhase2() {
	if nd.p2init {
		return
	}
	nd.p2init = true
	nd.informed = nd.cast.Informed()
	nd.r0 = nd.cast.InformedSlot()
	nd.ch0 = nd.cast.InformedChannel()
	nd.parent = nd.cast.Parent()
	switch {
	case nd.source:
	case !nd.informed:
		// The w.h.p. event failed for this node: it cannot participate in
		// aggregation. Withdraw; the run will be reported incomplete.
		nd.done = true
	default:
		// The physical channel behind ch0 names the census log the node's
		// roster bits index; a static assignment never remaps it.
		nd.phys = nd.cen.asn.ChannelSet(nd.id, 0)[nd.ch0]
		nd.censusWire = censusMsg{ID: nd.id, R: nd.r0}
	}
}

func (nd *Node) stepPhase2(slot int) sim.Action {
	if nd.source || !nd.informed {
		// The source belongs to no cluster and needs no census. Idling
		// through the rest of the window is pure, so it carries a hint up
		// to (not across) the phase boundary — the waking Step runs
		// initPhase3.
		return sim.Sleep(nd.p3start - 1 - slot)
	}
	if !nd.censusDone {
		// A contender re-sends the same entry every slot until it wins,
		// whatever it hears, so it stands, bounded by the rewind. Every
		// census message carries the census key, and while contenders are
		// left on the channel one of their entries wins each slot, which
		// re-arms the rest for the next.
		return sim.Stand(nd.ch0, nd.censusWire, censusKey, nd.p3start-1-slot).Keyed(censusKey)
	}
	// Census done: pure listening until the rewind. The park is quiet —
	// every census broadcast on the channel still reaches the roster,
	// through CatchUp, but none of it changes this node's behavior before
	// phase three, so the engine need not re-step it per delivery. Without
	// the quiet flag the drain would re-wake the channel's whole audience
	// every slot, making sparse census Θ(n·m) in steps instead of Θ(m²) in
	// deliveries.
	return sim.ParkListenQuiet(nd.ch0, nd.p3start-1-slot)
}

func (nd *Node) deliverPhase2(slot int, ev sim.Event) {
	switch ev.Kind {
	case sim.EvSendSucceeded:
		nd.censusDone = true
		if !nd.inRoster(nd.id) {
			nd.addRoster(nd.id, nd.r0, slot)
		}
	case sim.EvSendFailed, sim.EvReceived:
		if m, ok := ev.Msg.(censusMsg); ok && !nd.inRoster(m.ID) {
			nd.addRoster(m.ID, m.R, slot)
		}
	}
}

// CatchUp implements sim.CatchUpper. A sparse engine serves the node deaf
// while it stands or sits in a quiet park, and reports the slots it
// skipped here. In the census that is every delivery of a stand or of the
// quiet park after it, and each would have held one entry of the channel's
// log: a winner always receives its own success and logs its entry in its
// winning slot, so the node holds the entries logged in [from, to). In
// phase four only a sender's stand is deaf, and every delivery it skips is
// inert (see send). No other phase stands or parks quietly.
func (nd *Node) CatchUp(from, to int) {
	if from < nd.p3start && to > nd.p2start {
		nd.holdSlots(max(from, nd.p2start), min(to, nd.p3start))
	}
}

// --- Phase 3: rewind -------------------------------------------------------

func (nd *Node) initPhase3() {
	if nd.p3init {
		return
	}
	nd.p3init = true
	nd.cur = len(nd.acts)
	if nd.source || !nd.informed {
		return
	}
	// One pass over the roster: the cluster size counts the entries sharing
	// this node's informed slot (its own successful census is among them),
	// and the election needs the latest slot rmax and its smallest id.
	rmax, minID := -1, sim.None
	nd.eachHeld(func(e rosterEntry) {
		r, id := int(e.r), sim.NodeID(e.id)
		if r == nd.r0 {
			nd.clusterSize++
		}
		if r > rmax || (r == rmax && id < minID) {
			rmax, minID = r, id
		}
	})
	// Mediator: smallest id in the latest cluster on this channel.
	nd.isMediator = nd.r0 == rmax && nd.id <= minID
	if nd.isMediator {
		nd.buildClusters(nil)
	}
}

// rewoundSlot maps a phase-three slot to the phase-one slot it replays:
// phase-three slot i (0-based, counted from the rewind anchor p3base)
// rewinds phase-one slot p2start-1-i. Classically p3base == p3start and
// p2start == l, giving the paper's l-1-i; after a recovery retry the
// anchor moves so the whole (possibly extended) phase one replays again.
func (nd *Node) rewoundSlot(slot int) int {
	return nd.p2start - 1 - (slot - nd.p3base)
}

func (nd *Node) stepPhase3(slot int) sim.Action {
	a, ok := nd.seek(nd.rewoundSlot(slot))
	switch {
	case !ok:
		// A roleless node would retune to the rewound channel; staying off
		// the air is observably identical and cheaper. Idling is pure, so
		// the hint spans the gap to the node's next acting rewound slot.
		return sim.Sleep(nd.rewindGap(slot))
	case a.won:
		// This node informed the cluster of the rewound slot and channel —
		// if the cluster is nonempty its members report their size now.
		return sim.Listen(a.ch)
	default:
		return sim.Broadcast(a.ch, rewindMsg{R: nd.r0, Size: nd.clusterSize})
	}
}

// seek moves the rewind cursor to phase-one position j and returns the log
// entry there, if the node acted at j. Afterwards acts[:cur] holds exactly
// the entries at or before j. The rewind visits positions in descending
// order, so between resets (initPhase3, RetryRewind) the cursor only moves
// down and walks the log once.
func (nd *Node) seek(j int) (act, bool) {
	for nd.cur > 0 && nd.acts[nd.cur-1].pos > j {
		nd.cur--
	}
	if nd.cur > 0 && nd.acts[nd.cur-1].pos == j {
		return nd.acts[nd.cur-1], true
	}
	return act{}, false
}

// rewindGap returns how many upcoming phase-three slots (after slot, which
// seek has just found roleless) are roleless too: the rewind plays the log
// backwards, so the next acting slot replays acts[cur-1], the nearest
// earlier entry. With no entry left the gap runs to phase four — the waking
// Step then runs initPhase4, so the hint must not cross that boundary.
func (nd *Node) rewindGap(slot int) int {
	wake := nd.p4start
	if nd.cur > 0 {
		wake = nd.p3base + (nd.p2start - 1 - nd.acts[nd.cur-1].pos)
	}
	return wake - slot - 1
}

func (nd *Node) deliverPhase3(slot int, ev sim.Event) {
	if ev.Kind != sim.EvReceived {
		return // cluster-mates' wins and own win carry no new information
	}
	m, ok := ev.Msg.(rewindMsg)
	if !ok {
		return
	}
	a, ok := nd.seek(nd.rewoundSlot(slot))
	if !ok {
		return
	}
	// An informer creates at most one cluster per phase-one slot, so r is a
	// unique key. Classically each slot rewinds once and the scan finds
	// nothing; a recovery retry replays the full rewind, so clusters the
	// node already collected come around again.
	for i := range nd.collected {
		if nd.collected[i].r == m.R {
			return
		}
	}
	nd.collected = append(nd.collected, infCluster{r: m.R, ch: a.ch, size: m.Size})
}

// --- Phase 4: mediated convergecast -----------------------------------------

func (nd *Node) initPhase4() {
	if nd.p4init {
		return
	}
	nd.p4init = true
	// Clusters are collected in descending slot order: children informed
	// later sit deeper in the section schedule and must aggregate first.
	sort.Slice(nd.collected, func(i, j int) bool { return nd.collected[i].r > nd.collected[j].r })
	nd.acc = nd.f.Leaf(nd.id, nd.input)
}

// mediatorActive reports whether the node's mediator duties have begun: a
// mediator runs as a normal node until it starts sending values to its
// parent (i.e. it has finished collecting), then coordinates its channel
// until every cluster there has been aggregated.
func (nd *Node) mediatorActive() bool {
	return nd.isMediator && nd.idx >= len(nd.collected) && nd.medIdx < len(nd.medClusters)
}

// startStep advances cluster pointers and recomputes the node's role at the
// first slot of each 3-slot step.
func (nd *Node) startStep() {
	nd.pendingAck = sim.None
	nd.announced = -1
	if nd.idx < len(nd.collected) && nd.got >= nd.collected[nd.idx].size {
		nd.idx++
		nd.got = 0
	}
	// Termination checks.
	if nd.idx >= len(nd.collected) {
		if nd.source {
			nd.finishRound()
			return
		}
		if nd.ownSent && !nd.mediatorActive() {
			nd.finishRound()
		}
	}
}

// finishRound marks the node's work in the current round complete. In the
// classic single-round protocol the node terminates; in a session it idles
// until the next round boundary, terminating only after the last round.
func (nd *Node) finishRound() {
	if nd.roundSteps == 0 {
		nd.done = true
		return
	}
	if !nd.roundFinished {
		nd.roundFinished = true
		if nd.source {
			nd.results[nd.round] = nd.acc
			nd.completeRound[nd.round] = true
			nd.finishSteps[nd.round] = nd.stepInRound
		}
	}
	if nd.round == len(nd.rounds)-1 {
		nd.done = true
	}
}

// resetRound re-arms the phase-four state machine for round r using the
// node's round-r input. The tree, census and informer structures from
// phases one to three are reused untouched — that is the whole point of a
// session.
func (nd *Node) resetRound(r int) {
	// Settle the previous round: its final ack may have landed in the
	// window's very last step, after that step's startStep already ran, so
	// re-check completion before declaring the round short.
	if nd.source && !nd.roundFinished && nd.round < len(nd.results) {
		if nd.idx < len(nd.collected) && nd.got >= nd.collected[nd.idx].size {
			nd.idx++
			nd.got = 0
		}
		nd.results[nd.round] = nd.acc
		if nd.idx >= len(nd.collected) {
			nd.completeRound[nd.round] = true
			nd.finishSteps[nd.round] = nd.roundSteps - 1
		}
	}
	if r >= len(nd.rounds) {
		// Past the final round: nothing left to do regardless of role.
		nd.done = true
		return
	}
	nd.round = r
	nd.roundFinished = false
	nd.idx = 0
	nd.got = 0
	nd.pendingAck = sim.None
	nd.announced = -1
	nd.ownSent = false
	nd.medIdx = 0
	nd.mergedFrom = nd.mergedFrom[:0] // each round re-merges every child
	if nd.isMediator {
		nd.medAcked = make(map[sim.NodeID]bool)
	}
	input := nd.input
	if r < len(nd.rounds) {
		input = nd.rounds[r]
	}
	nd.acc = nd.f.Leaf(nd.id, input)
	nd.valueWire = nil
}

func (nd *Node) stepPhase4(slot int) sim.Action {
	step := (slot - nd.p4start) / 3
	sub := (slot - nd.p4start) % 3
	if nd.roundSteps > 0 {
		if r := step / nd.roundSteps; r != nd.round {
			nd.resetRound(r)
			if nd.done {
				return sim.Idle()
			}
		}
		nd.stepInRound = step % nd.roundSteps
		if nd.roundFinished {
			// Idle until the next round boundary, whose Step runs
			// resetRound — the hint must wake the node exactly there.
			return sim.Sleep(nd.holdBound(slot))
		}
	}
	if sub == 0 {
		nd.startStep()
		if nd.done || nd.roundFinished {
			return sim.Idle()
		}
	}
	receiver := nd.idx < len(nd.collected)
	switch sub {
	case 0:
		if nd.mediatorActive() {
			r := nd.medClusters[nd.medIdx].r
			nd.announced = r
			return sim.Broadcast(nd.ch0, announceMsg{R: r}).Keyed(announceKey(r))
		}
		if receiver {
			return nd.wait(slot, nd.collected[nd.idx].ch)
		}
		return nd.wait(slot, nd.ch0) // sender awaiting its cluster's announcement
	case 1:
		if receiver {
			return nd.wait(slot, nd.collected[nd.idx].ch)
		}
		if !nd.ownSent && nd.announced == nd.r0 {
			if nd.valueWire == nil {
				nd.valueWire = valueMsg{R: nd.r0, Sender: nd.id, Agg: nd.acc}
			}
			if size := nd.f.Size(nd.acc); size > nd.maxMsgSize {
				nd.maxMsgSize = size
			}
			return nd.send(slot)
		}
		return nd.wait(slot, nd.ch0)
	default:
		// A pending ack may also belong to a past cluster (duplicate
		// resend under faults); it always names its own channel.
		// Classically only the current receiver ever holds one, and
		// pendingAckCh is then collected[idx].ch — identical behavior.
		if nd.pendingAck != sim.None {
			return sim.Broadcast(nd.pendingAckCh, ackMsg{ID: nd.pendingAck})
		}
		if receiver {
			return nd.wait(slot, nd.collected[nd.idx].ch)
		}
		return nd.wait(slot, nd.ch0)
	}
}

// roundBoundary returns the first slot of the next session round.
func (nd *Node) roundBoundary() int {
	return nd.p4start + 3*nd.roundSteps*(nd.round+1)
}

// send returns a sender's value broadcast in sub-slot one of a step that
// announced its cluster. A sender that is not a mediator stands on it,
// awaiting its cluster's announcement key, until its value wins or, in a
// session, the round ends. Dense stepping would have it listen on ch0 in
// every slot of the stand but one: sub-slot one after the announcement of
// its cluster, where it re-sends the same valueWire, because ownSent stays
// false until its parent acks a value of its own, which needs a win, and
// acc only changes by merging a value of the cluster at collected[idx],
// and a sender has collected every cluster. Its skipped Steps would only
// refresh stepInRound, which only the source reads, and run startStep,
// which finds pendingAck clear, the cluster pointer past the end and
// ownSent false, and resets announced (see below). The deliveries a deaf
// stander skips are inert too:
//
//   - EvSendFailed in sub-slot one: deliverPhase4 ignores every
//     sub-slot-one event but a received value;
//   - a value of another cluster: it only matters to a node that informed
//     that cluster, and then only as a resend, which re-arms an ack. A
//     value's winner is woken, listens for its parent's ack, the only
//     broadcast on the channel in sub-slot two, and stops sending, so
//     without faults no value is resent; a fault wrapper strips the stand;
//   - an ack naming another node: it sets ownSent only for its own id, and
//     the ack stream feeds only an active mediator, which never stands;
//   - an announcement: it only sets announced, which the stand makes no
//     Step read before startStep resets it — sub-slot two, where a won
//     stand resumes, reads pendingAck and the cluster pointer, and a
//     bound that expires lands on a round boundary, where resetRound
//     resets it.
func (nd *Node) send(slot int) sim.Action {
	if nd.isMediator {
		return sim.Broadcast(nd.ch0, nd.valueWire)
	}
	return sim.Stand(nd.ch0, nd.valueWire, announceKey(nd.r0), nd.holdBound(slot))
}

// wait returns the Listen action for a phase-four holding pattern, carrying
// a dormancy hint when the wait is provably inert: every state change that
// could alter the node's next action arrives as a delivery on the very
// channel it is parked on (announcements, values, acks — all of which
// re-wake it), the skipped startStep resets are no-ops or unread until the
// first post-wake step re-runs them, and the promise stops at the next
// round boundary, whose resetRound is a real state change. Mediators drive
// the phase-four schedule and always run dense, and a pending ack breaks
// the pattern on the next sub-slot, so neither parks.
func (nd *Node) wait(slot, ch int) sim.Action {
	if nd.isMediator || nd.pendingAck != sim.None {
		return sim.Listen(ch)
	}
	return sim.ParkListen(ch, nd.holdBound(slot))
}

// holdBound returns how long a phase-four hint may last from slot on:
// open-ended in the classic single-round protocol, and up to (not across)
// the next round boundary in a session, whose resetRound is a real state
// change.
func (nd *Node) holdBound(slot int) int {
	if nd.roundSteps == 0 {
		return sim.Forever
	}
	return nd.roundBoundary() - slot - 1
}

func (nd *Node) deliverPhase4(slot int, ev sim.Event) {
	sub := (slot - nd.p4start) % 3
	switch sub {
	case 0:
		// Senders learn which cluster transmits this step.
		if m, ok := ev.Msg.(announceMsg); ok && ev.Kind == sim.EvReceived {
			nd.announced = m.R
		}
	case 1:
		if ev.Kind != sim.EvReceived {
			return // send success/failure resolves via the slot-three ack
		}
		m, ok := ev.Msg.(valueMsg)
		if !ok {
			return
		}
		for i := range nd.collected {
			if nd.collected[i].r != m.R {
				continue
			}
			if nd.hasMerged(m.Sender) {
				// Duplicate resend (the sender missed our earlier ack
				// under faults): re-ack without re-merging, so the
				// sender's value contributes exactly once.
				nd.pendingAck = m.Sender
				nd.pendingAckCh = nd.collected[i].ch
			} else if i == nd.idx {
				nd.acc = nd.f.Merge(nd.acc, m.Agg)
				nd.valueWire = nil
				nd.got++
				nd.mergedFrom = append(nd.mergedFrom, m.Sender)
				nd.mergesTotal++
				nd.pendingAck = m.Sender
				nd.pendingAckCh = nd.collected[i].ch
			}
			return
		}
	default:
		m, ok := ev.Msg.(ackMsg)
		if !ok || ev.Kind == sim.EvSendFailed {
			return
		}
		if m.ID == nd.id {
			nd.ownSent = true
		}
		if nd.mediatorActive() {
			cl := nd.medClusters[nd.medIdx]
			if cl.members[m.ID] && !nd.medAcked[m.ID] {
				nd.medAcked[m.ID] = true
				if len(nd.medAcked) == len(cl.members) {
					nd.medIdx++
					nd.medAcked = make(map[sim.NodeID]bool)
				}
			}
		}
	}
}

// --- Accessors ---------------------------------------------------------------

// Informed reports whether the node received INIT during phase one.
func (nd *Node) Informed() bool {
	if !nd.p2init {
		return nd.cast.Informed()
	}
	return nd.informed || nd.source
}

// Parent returns the node's parent in the distribution tree.
func (nd *Node) Parent() sim.NodeID {
	if !nd.p2init {
		return nd.cast.Parent()
	}
	return nd.parent
}

// InformedSlot returns the slot the node was first informed in, or -1.
func (nd *Node) InformedSlot() int {
	if !nd.p2init {
		return nd.cast.InformedSlot()
	}
	return nd.r0
}

// Aggregate returns the node's current partial aggregate (the network-wide
// aggregate, at the source, once the node is done).
func (nd *Node) Aggregate() aggfunc.Value { return nd.acc }

// IsMediator reports whether the node won the mediator election for its
// channel.
func (nd *Node) IsMediator() bool { return nd.isMediator }

// MaxMessageSize returns the largest value-message size (in abstract words)
// the node sent during phase four.
func (nd *Node) MaxMessageSize() int { return nd.maxMsgSize }

// --- Recovery hooks ----------------------------------------------------------
//
// Everything below exists for internal/recover's supervisor, which models a
// reliable control plane around the radio protocol: it reads durable state,
// extends phase windows, resets nodes to their last checkpoint, applies
// membership changes, and re-elects mediators. None of these methods is
// called on the classic path, and the few classic-path changes above
// (dedup scans, the hold guard, the ack-channel indirection) are all
// provably no-ops in fault-free runs, keeping them byte-identical.

func (nd *Node) hasMerged(id sim.NodeID) bool {
	for _, s := range nd.mergedFrom {
		if s == id {
			return true
		}
	}
	return false
}

// MissSlot records that the node was down (crashed) for slot: during phase
// one it advances the log position, so the phase-three rewind stays
// slot-aligned and replays the missed slot as idle. Later phases are
// event-driven and need no accounting.
func (nd *Node) MissSlot(slot int) {
	if slot < nd.p2start {
		nd.pos++
	}
}

// Restart recovers the node's state as a crash-restart at slot would.
// The durability model (DESIGN.md §7) is WAL-before-use: every protocol
// fact — the phase-one log, census roster entries, collected
// clusters, phase-four merges — is logged to stable storage before the
// node acts on it, so all of them survive a crash (the state is a few
// dozen words; a real node would fsync it). What a crash loses is
// availability (the slots spent down, counted by MissSlot) and the
// transient acknowledgement that the node's own census entry got
// through: a node restarting mid-census conservatively re-broadcasts it
// until a fresh success, which deliverPhase2's dedup makes a no-op on
// its peers.
func (nd *Node) Restart(slot int) {
	if slot >= nd.p2start && slot < nd.p3start {
		nd.censusDone = false
	}
}

// Hold makes the node idle in every slot before until (a recovery backoff
// gap). Holds only ever extend.
func (nd *Node) Hold(until int) {
	if until > nd.holdUntil {
		nd.holdUntil = until
	}
}

// ExtendPhase1 lengthens the phase-one window by extra slots, shifting the
// later phases accordingly. The rewind window grows with phase one, so
// phase four moves by twice the extension.
func (nd *Node) ExtendPhase1(extra int) {
	nd.p2start += extra
	nd.p3start += extra
	nd.p3base += extra
	nd.p4start += 2 * extra
}

// ExtendCensus lengthens the census window by extra slots.
func (nd *Node) ExtendCensus(extra int) {
	nd.p3start += extra
	nd.p3base += extra
	nd.p4start += extra
}

// ResetCensus makes the node re-broadcast its census entry in the next
// retry window while keeping the roster it has gathered so far. The
// supervisor resets every node on a deficient channel together, so every
// entry is re-announced and listeners that were down during a previous
// window fill their holes — census progress accumulates monotonically
// across retries (the dedup in deliverPhase2 keeps rosters
// duplicate-free), which is what lets the census converge while outages
// keep happening.
func (nd *Node) ResetCensus() {
	nd.censusDone = false
}

// RetryRewind re-anchors phase three at base: the full phase-one log
// replays over [base, base+p2start). Slots before base map out of range
// and the node idles through them. Clusters already collected are kept —
// the replay re-offers every cluster and the dedup in deliverPhase3
// ignores the ones the informer already holds, so rewind progress, like
// the census's, accumulates across retries.
func (nd *Node) RetryRewind(base int) {
	nd.p3base = base
	nd.p4start = base + nd.p2start
	nd.cur = len(nd.acts)
}

// Withdraw removes the node from the protocol (recovery pruning after the
// retry budget is exhausted).
func (nd *Node) Withdraw() { nd.done = true }

// DropRosterEntry removes a pruned peer from the node's census roster by
// clearing the node's bit for it; the channel log and every other node's
// bits are untouched. Only meaningful before phase three derives cluster
// structure from it.
func (nd *Node) DropRosterEntry(id sim.NodeID) {
	if p := nd.rosterPos(id); p >= 0 && p>>6 < len(nd.held) {
		nd.held[p>>6] &^= 1 << (uint(p) & 63)
	}
}

// DropCollected removes the cluster informed at phase-one slot r from the
// node's collected list (the cluster's members were pruned). Only
// meaningful before phase four starts consuming the list.
func (nd *Node) DropCollected(r int) {
	out := nd.collected[:0]
	for _, c := range nd.collected {
		if c.r != r {
			out = append(out, c)
		}
	}
	nd.collected = out
}

// DropMedMember removes a pruned node from every cluster the mediator
// coordinates, dropping clusters that become empty. Only valid before
// phase four begins (medIdx 0, no acks recorded yet).
func (nd *Node) DropMedMember(id sim.NodeID) {
	if !nd.isMediator {
		return
	}
	out := nd.medClusters[:0]
	for _, cl := range nd.medClusters {
		delete(cl.members, id)
		if len(cl.members) > 0 {
			out = append(out, cl)
		}
	}
	nd.medClusters = out
}

// Demote strips the node of its mediator role (it was re-elected away, or
// its channel's clusters were all pruned).
func (nd *Node) Demote() {
	nd.isMediator = false
	nd.medClusters = nd.medClusters[:0]
	nd.medAcked = nil
}

// AssumeMediator makes the node the mediator of its channel, rebuilding
// the cluster schedule from its own durable roster. acked reports whether
// a member's value has already been acked (so fully-collected clusters are
// fast-forwarded past and partially-collected ones resume mid-cluster);
// skip reports members the supervisor has pruned. Either may be nil.
func (nd *Node) AssumeMediator(acked, skip func(sim.NodeID) bool) {
	nd.isMediator = true
	nd.buildClusters(skip)
	for nd.medIdx < len(nd.medClusters) {
		cl := nd.medClusters[nd.medIdx]
		for id := range cl.members {
			if acked != nil && acked(id) {
				nd.medAcked[id] = true
			}
		}
		if len(nd.medAcked) < len(cl.members) {
			break
		}
		nd.medIdx++
		nd.medAcked = make(map[sim.NodeID]bool)
	}
}

// MarkOwnSent records that the node's value reached its parent (the
// supervisor reconciled a lost ack against the parent's durable state).
func (nd *Node) MarkOwnSent() { nd.ownSent = true }

// MarkMedAcked records on the mediator that member id's value was acked,
// exactly as hearing the ack on-channel would, advancing the cluster
// pointer when the current cluster completes.
func (nd *Node) MarkMedAcked(id sim.NodeID) {
	if !nd.isMediator || nd.medIdx >= len(nd.medClusters) {
		return
	}
	cl := nd.medClusters[nd.medIdx]
	if cl.members[id] && !nd.medAcked[id] {
		nd.medAcked[id] = true
		if len(nd.medAcked) == len(cl.members) {
			nd.medIdx++
			nd.medAcked = make(map[sim.NodeID]bool)
		}
	}
}

// MedPending calls f for every member of the mediator's current cluster
// whose value has not been acked yet. Iteration order is unspecified;
// callers that need determinism must sort.
func (nd *Node) MedPending(f func(sim.NodeID)) {
	if !nd.isMediator || nd.medIdx >= len(nd.medClusters) {
		return
	}
	for id := range nd.medClusters[nd.medIdx].members {
		if !nd.medAcked[id] {
			f(id)
		}
	}
}

// HasMerged reports whether this node merged a value from id in the
// current round (durable, WAL-backed).
func (nd *Node) HasMerged(id sim.NodeID) bool { return nd.hasMerged(id) }

// CensusDone reports whether the node's census broadcast has succeeded.
func (nd *Node) CensusDone() bool { return nd.censusDone }

// InformedChannel returns the node's local index of the channel it was
// informed on (0 if never informed).
func (nd *Node) InformedChannel() int {
	if !nd.p2init {
		return nd.cast.InformedChannel()
	}
	return nd.ch0
}

// RosterSnapshot calls f for every entry in the node's census roster, in
// the order of its channel's log (the order entries were first delivered on
// the channel), which may differ from the order this node heard them.
func (nd *Node) RosterSnapshot(f func(id sim.NodeID, r int)) {
	nd.eachHeld(func(e rosterEntry) { f(sim.NodeID(e.id), int(e.r)) })
}

// CollectedSnapshot calls f for every cluster the node informed, in
// collection order.
func (nd *Node) CollectedSnapshot(f func(r, ch, size int)) {
	for _, c := range nd.collected {
		f(c.r, c.ch, c.size)
	}
}

// OwnSent reports whether the node's value was acked by its parent.
func (nd *Node) OwnSent() bool { return nd.ownSent }

// MedRemaining returns how many clusters the mediator still has to
// coordinate (0 for non-mediators).
func (nd *Node) MedRemaining() int {
	if !nd.isMediator {
		return 0
	}
	return len(nd.medClusters) - nd.medIdx
}

// Progress returns a monotone per-node progress counter: merges performed,
// mediator clusters completed, own value delivered, protocol finished.
// The recovery supervisor sums it across nodes to detect stalls.
func (nd *Node) Progress() int {
	p := nd.mergesTotal + nd.medIdx
	if nd.ownSent {
		p++
	}
	if nd.done {
		p++
	}
	return p
}

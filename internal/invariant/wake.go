package invariant

import (
	"fmt"
	"math"

	"github.com/cogradio/crn/internal/sim"
)

// WakeChecker cross-checks the sparse engine's wake-queue from outside.
// Interpose it on every node with Wrap and attach it as the engine's
// observer: it rebuilds the dormancy schedule from the hints the wrapped
// protocols return and the deliveries they receive, and verifies, slot by
// slot, that
//
//   - no dormant node acts: a node that promised Sleep=k is not stepped
//     again before the promise expires unless a delivery woke it,
//   - no awake node is skipped: a node whose promise expires (or that never
//     made one) is stepped at exactly the slot the dense engine would have
//     stepped it, before any delivery reaches it in that slot,
//   - one dormancy contract: a delivery wakes a parked node, or the node
//     waived it — a quiet loser has nothing to learn, and a deaf node
//     catches up. A delivered node is stepped in the next slot. A node
//     that implements sim.CatchUpper and stands, stands by or parks
//     quietly under sim.UniformWinner is deaf: from the slot of that
//     action it gets no delivery but a winning one, and before its next
//     Step or its winning delivery in slot t it gets exactly one
//     CatchUp(from, t), from being that slot, unless it won in that very
//     slot; the CatchUp leaves it not done. Any other quiet park or
//     stand-by is a plain park, and any other stand a plain broadcast,
//   - a stander (sim.Stand, or sim.StandBy, which is deaf from the listen
//     that opens it) is not stepped before it wins or its bound expires,
//     and it is among its channel's Broadcasters exactly in the slots
//     after a message carrying its awaited key won there — the
//     checker takes each winner's message key from the winner's last
//     recorded action, not from the engine,
//   - every node hears what its channel's outcome says, and nothing
//     else: under sim.UniformWinner each broadcaster gets
//     EvSendSucceeded exactly if it is the reported winner, each losing
//     broadcaster one EvSendFailed unless it broadcast quietly
//     (sim.BroadcastQuiet) or is deaf, in which case none, and each
//     listener, stepped or parked, one EvReceived unless it is deaf; under
//     sim.AllDelivered each broadcaster gets one EvSendSucceeded and each
//     listener one EvReceived per broadcaster. A quiet loser's Deliver
//     would ignore the loss, so the dense engine's delivery of it changes
//     nothing; the audit holds a sparse engine to skipping it,
//   - retirement is final: a node whose own Done reported true at the end
//     of a slot is never stepped or delivered to again.
//
// Like Checker it shares no code or state with the engine: it sees only the
// public Protocol and Observer interfaces, so bookkeeping bugs in the wake
// heap, the parked lists or the stand groups surface as violations. It
// checks sparse runs only — a dense engine steps every node every slot,
// hints or not — under the collision model given to Reset. OnSlot is O(n),
// which is fine for the test workloads the checker exists for.
type WakeChecker struct {
	protos []sim.Protocol // the wrapped protocols, by node
	keyed  bool           // the model is sim.UniformWinner: catchers hold deaf

	retired   []bool
	retireDay []int        // slot the node retired in (valid when retired)
	expect    []int        // slot the node must next be stepped at; never = delivery-only
	stepped   []int        // last slot the node was stepped, -1 initially
	last      []sim.Action // the node's last action, for its message key

	// Stands: standAt is the slot of the node's current stand or stand-by,
	// -1 if it does not stand; standCh is its physical channel, read from
	// the stand slot's Broadcasters, or its Listeners for a stand-by;
	// wonAt is the slot a stand was won in.
	standAt []int
	standCh []int
	wonAt   []int
	// The slot's broadcasters, and the (channel, key) pairs whose winning
	// message armed the standers awaiting key there for the next slot.
	bcastAt   []int
	bcastCh   []int
	armed     map[armKey]bool
	armedNext map[armKey]bool

	// Deaf service: catcher marks CatchUpper nodes; deafFrom is the slot a
	// node has been served deaf since (-1 = hearing); caughtTo is the end
	// of a CatchUp received and not yet followed by a Step or win (-1 =
	// none).
	catcher  []bool
	deafFrom []int
	caughtTo []int

	// heard counts each node's deliveries in its last delivered slot, for
	// OnSlot's audit against the outcome.
	heard []heardCount

	violations int
	firstErr   error
}

// heardCount is the deliveries of each kind a node got in slot.
type heardCount struct {
	slot            int
	win, fail, recv int
}

// armKey is a channel and a wake key.
type armKey struct {
	ch  int
	key sim.WakeKey
}

var _ sim.Observer = (*WakeChecker)(nil)

// never marks a node woken only by deliveries (Sleep >= sim.Forever).
const never = math.MaxInt

// Reset prepares the checker for one run over n nodes under collision
// model m: every node is expected awake at slot 0. Wrap every node
// afterwards.
func (w *WakeChecker) Reset(n int, m sim.CollisionModel) {
	w.keyed = m == sim.UniformWinner
	if cap(w.retired) < n {
		w.protos = make([]sim.Protocol, n)
		w.retired = make([]bool, n)
		w.retireDay = make([]int, n)
		w.expect = make([]int, n)
		w.stepped = make([]int, n)
		w.last = make([]sim.Action, n)
		w.standAt = make([]int, n)
		w.standCh = make([]int, n)
		w.wonAt = make([]int, n)
		w.bcastAt = make([]int, n)
		w.bcastCh = make([]int, n)
		w.catcher = make([]bool, n)
		w.deafFrom = make([]int, n)
		w.caughtTo = make([]int, n)
		w.heard = make([]heardCount, n)
	}
	w.protos = w.protos[:n]
	w.retired = w.retired[:n]
	w.retireDay = w.retireDay[:n]
	w.expect = w.expect[:n]
	w.stepped = w.stepped[:n]
	w.last = w.last[:n]
	w.standAt = w.standAt[:n]
	w.standCh = w.standCh[:n]
	w.wonAt = w.wonAt[:n]
	w.bcastAt = w.bcastAt[:n]
	w.bcastCh = w.bcastCh[:n]
	w.catcher = w.catcher[:n]
	w.deafFrom = w.deafFrom[:n]
	w.caughtTo = w.caughtTo[:n]
	w.heard = w.heard[:n]
	for i := 0; i < n; i++ {
		w.protos[i] = nil
		w.retired[i] = false
		w.expect[i] = 0
		w.stepped[i] = -1
		w.last[i] = sim.Action{}
		w.standAt[i] = -1
		w.wonAt[i] = -1
		w.bcastAt[i] = -1
		w.catcher[i] = false
		w.deafFrom[i] = -1
		w.caughtTo[i] = -1
		w.heard[i] = heardCount{slot: -1}
	}
	w.armed = make(map[armKey]bool)
	w.armedNext = make(map[armKey]bool)
	w.violations = 0
	w.firstErr = nil
}

// Wrap interposes the checker between the engine and node id's protocol p,
// which must be in its initial state: a node already done is retired
// before slot 0. id must lie in the range given to Reset. The wrapper
// implements sim.CatchUpper exactly when p does, and sim.StepperInto
// always: it steps p through p's StepInto when p has one and through Step
// otherwise, so the audited run steps its nodes as an unaudited one would.
func (w *WakeChecker) Wrap(id sim.NodeID, p sim.Protocol) sim.Protocol {
	w.protos[id] = p
	if p.Done() {
		w.retired[id] = true
		w.retireDay[id] = -1
	}
	q := wakeProbe{w: w, id: id, p: p}
	if _, ok := p.(sim.CatchUpper); ok {
		w.catcher[id] = true
		return catchUpProbe{q}
	}
	return q
}

// wakeProbe reports node id's steps and deliveries to the checker. It
// forwards sim.StepperInto (see WakeChecker.Wrap), and catchUpProbe
// forwards sim.CatchUpper too.
type wakeProbe struct {
	w  *WakeChecker
	id sim.NodeID
	p  sim.Protocol
}

func (q wakeProbe) Step(slot int) (a sim.Action) {
	q.StepInto(slot, &a)
	return a
}

func (q wakeProbe) StepInto(slot int, a *sim.Action) {
	q.w.caughtUp(slot, q.id, "stepped")
	if in, ok := q.p.(sim.StepperInto); ok {
		in.StepInto(slot, a)
	} else {
		*a = q.p.Step(slot)
	}
	q.w.onStep(slot, q.id, *a)
}

func (q wakeProbe) Deliver(slot int, ev sim.Event) {
	q.w.beforeDeliver(slot, q.id, ev)
	q.p.Deliver(slot, ev)
	q.w.onDeliver(slot, q.id, ev)
}

func (q wakeProbe) Done() bool { return q.p.Done() }

// catchUpProbe is wakeProbe for a protocol that implements sim.CatchUpper.
type catchUpProbe struct{ wakeProbe }

func (q catchUpProbe) CatchUp(from, to int) {
	q.w.onCatchUp(q.id, from, to)
	q.p.(sim.CatchUpper).CatchUp(from, to)
	if q.p.Done() {
		q.w.failf("node %d done after catching up on [%d, %d)", q.id, from, to)
	}
}

// onCatchUp checks that a catch-up reaches a deaf node and starts where
// its deaf service started.
func (w *WakeChecker) onCatchUp(node sim.NodeID, from, to int) {
	v := int(node)
	switch {
	case w.deafFrom[v] < 0:
		w.failf("node %d caught up on [%d, %d) but was not served deaf", node, from, to)
	case from != w.deafFrom[v] || to <= from:
		w.failf("node %d caught up on [%d, %d), deaf since slot %d", node, from, to, w.deafFrom[v])
	}
	w.deafFrom[v] = -1
	w.caughtTo[v] = to
}

// caughtUp checks that node's deaf service, if any, ended with a catch-up
// to slot, where it is stepped or wins; what names the event.
func (w *WakeChecker) caughtUp(slot int, node sim.NodeID, what string) {
	v := int(node)
	if from := w.deafFrom[v]; from >= 0 && from < slot {
		w.failf("slot %d: deaf node %d %s without catching up from slot %d", slot, node, what, from)
	}
	if to := w.caughtTo[v]; to >= 0 && to != slot {
		w.failf("slot %d: node %d %s after catching up to slot %d", slot, node, what, to)
	}
	w.deafFrom[v] = -1
	w.caughtTo[v] = -1
}

// onStep checks that the stepped node is exactly due.
func (w *WakeChecker) onStep(slot int, node sim.NodeID, act sim.Action) {
	v := int(node)
	if w.retired[v] {
		w.failf("slot %d: retired node %d stepped again", slot, node)
	}
	switch exp := w.expect[v]; {
	case slot < exp:
		w.failf("slot %d: dormant node %d stepped (promised asleep until slot %d)", slot, node, exp)
	case slot > exp:
		w.failf("slot %d: node %d stepped late (was due at slot %d)", slot, node, exp)
	}
	w.stepped[v] = slot
	w.last[v] = act
	deaf := w.catcher[v] && w.keyed && act.Sleep > 0
	stand := deaf && act.Op != sim.OpIdle && act.Await != sim.NoKey
	w.standAt[v] = -1
	if stand {
		w.standAt[v] = slot
	}
	if stand || deaf && act.Op == sim.OpListen && act.Quiet {
		w.deafFrom[v] = slot
	}
	switch {
	case (act.Op == sim.OpBroadcast && !stand) || act.Sleep <= 0:
		w.expect[v] = slot + 1
	case act.Sleep >= sim.Forever:
		w.expect[v] = never
	default:
		w.expect[v] = slot + act.Sleep + 1
	}
}

// beforeDeliver checks that a node served deaf is delivered to only when
// it wins, after catching up.
func (w *WakeChecker) beforeDeliver(slot int, node sim.NodeID, ev sim.Event) {
	v := int(node)
	if ev.Kind == sim.EvSendSucceeded {
		if w.deafFrom[v] >= 0 || w.caughtTo[v] >= 0 {
			w.caughtUp(slot, node, "won")
		}
		return
	}
	if w.deafFrom[v] >= 0 {
		w.failf("slot %d: node %d served deaf since slot %d got a %v delivery", slot, node, w.deafFrom[v], ev.Kind)
	}
	if w.caughtTo[v] >= 0 {
		w.failf("slot %d: node %d caught up to slot %d but neither stepped nor won", slot, node, w.caughtTo[v])
		w.caughtTo[v] = -1
	}
}

// onDeliver checks that a delivery goes to a node that was stepped this
// slot or is dormant, and wakes it for the next slot, and that no node is
// delivered to after its retirement slot (its final action resolves that
// slot, exactly as the dense engine resolves it). A won stand ends.
func (w *WakeChecker) onDeliver(slot int, node sim.NodeID, ev sim.Event) {
	v := int(node)
	h := &w.heard[v]
	if h.slot != slot {
		*h = heardCount{slot: slot}
	}
	switch ev.Kind {
	case sim.EvSendSucceeded:
		h.win++
	case sim.EvSendFailed:
		h.fail++
	default:
		h.recv++
	}
	if w.retired[v] {
		w.failf("slot %d: delivery to node %d retired in slot %d", slot, node, w.retireDay[v])
		return
	}
	if w.expect[v] <= slot && w.stepped[v] != slot {
		w.failf("slot %d: awake node %d skipped by the sparse scan", slot, node)
	}
	if w.standAt[v] >= 0 && ev.Kind == sim.EvSendSucceeded {
		w.wonAt[v] = slot
	}
	w.expect[v] = slot + 1
}

// OnSlot implements sim.Observer: every node that was due this slot must
// have been stepped, every delivery must match its channel's outcome,
// every stander must broadcast exactly when its key won its channel in the
// previous slot, and a node whose Done now reports true retires.
func (w *WakeChecker) OnSlot(slot int, outcomes []sim.ChannelOutcome) {
	clear(w.armedNext)
	for _, o := range outcomes {
		for _, b := range o.Broadcasters {
			if b >= 0 && int(b) < len(w.protos) {
				w.bcastAt[b], w.bcastCh[b] = slot, o.Channel
				w.opened(slot, b, o.Channel)
			}
		}
		for _, l := range o.Listeners {
			if l >= 0 && int(l) < len(w.protos) {
				w.opened(slot, l, o.Channel)
			}
		}
		if len(o.Broadcasters) > 0 {
			w.auditChannel(slot, o)
		}
		if o.Winner >= 0 && int(o.Winner) < len(w.protos) {
			if key := w.last[o.Winner].Key; key != sim.NoKey {
				w.armedNext[armKey{o.Channel, key}] = true
			}
		}
	}
	for v, p := range w.protos {
		if w.retired[v] {
			continue
		}
		if w.heard[v].slot == slot {
			w.failf("slot %d: node %d delivered to off every contended channel", slot, v)
		}
		if w.expect[v] == slot && w.stepped[v] != slot {
			w.failf("slot %d: awake node %d skipped by the sparse scan", slot, v)
			w.expect[v] = slot + 1
		}
		if at := w.standAt[v]; at >= 0 && at < slot {
			w.checkStander(slot, v)
		}
		if w.wonAt[v] == slot {
			w.standAt[v] = -1
		}
		if p.Done() {
			w.retired[v] = true
			w.retireDay[v] = slot
		}
	}
	w.armed, w.armedNext = w.armedNext, w.armed
}

// auditChannel checks the deliveries of one contended channel against its
// outcome and marks them audited, so OnSlot can flag any delivery left
// over. A broadcaster not stepped this slot is an armed stander, whose
// last action is its stand. Ids outside the run are the slot checker's
// to report.
func (w *WakeChecker) auditChannel(slot int, o sim.ChannelOutcome) {
	known := func(v sim.NodeID) bool { return v >= 0 && int(v) < len(w.protos) }
	all := !w.keyed
	for _, b := range o.Broadcasters {
		if !known(b) {
			continue
		}
		want := heardCount{win: 1}
		if !all && b != o.Winner {
			want.win = 0
			if !w.last[b].Quiet && w.deafFrom[b] < 0 {
				want.fail = 1
			}
		}
		w.audit(slot, o.Channel, b, want)
	}
	recv := 1
	if all {
		recv = len(o.Broadcasters)
	}
	for _, ls := range [][]sim.NodeID{o.Listeners, o.Parked} {
		for _, l := range ls {
			if !known(l) {
				continue
			}
			want := heardCount{recv: recv}
			if w.deafFrom[l] >= 0 {
				want.recv = 0
			}
			w.audit(slot, o.Channel, l, want)
		}
	}
}

// audit compares node's deliveries in slot with want and consumes them.
func (w *WakeChecker) audit(slot, ch int, node sim.NodeID, want heardCount) {
	got := w.heard[node]
	if got.slot != slot {
		got = heardCount{}
	}
	w.heard[node].slot = -1
	if got.win != want.win || got.fail != want.fail || got.recv != want.recv {
		w.failf("slot %d: node %d on channel %d heard %d wins, %d losses and %d receptions, want %d, %d and %d",
			slot, node, ch, got.win, got.fail, got.recv, want.win, want.fail, want.recv)
	}
}

// opened records ch as node v's stand channel if v's stand or stand-by
// opened in slot, where v broadcast or listened on ch.
func (w *WakeChecker) opened(slot int, v sim.NodeID, ch int) {
	if w.standAt[v] == slot {
		w.standCh[v] = ch
	}
}

// checkStander checks that stander v, not stepped this slot, broadcast on
// its channel exactly if its key won there in the previous slot.
func (w *WakeChecker) checkStander(slot, v int) {
	want := w.armed[armKey{w.standCh[v], w.last[v].Await}]
	got := w.bcastAt[v] == slot
	switch {
	case want && !got:
		w.failf("slot %d: stander %d missing from channel %d's broadcasters after its key won there", slot, v, w.standCh[v])
	case !want && got:
		w.failf("slot %d: stander %d broadcast on channel %d without its key winning there", slot, v, w.bcastCh[v])
	case got && w.bcastCh[v] != w.standCh[v]:
		w.failf("slot %d: stander %d broadcast on channel %d, stands on channel %d", slot, v, w.bcastCh[v], w.standCh[v])
	}
}

func (w *WakeChecker) failf(format string, args ...any) {
	w.violations++
	if w.firstErr == nil {
		w.firstErr = fmt.Errorf("invariant: wake: "+format, args...)
	}
}

// Err returns the first violation recorded since the last Reset, or nil.
func (w *WakeChecker) Err() error { return w.firstErr }

// WakeViolations returns the number of violations since the last Reset.
func (w *WakeChecker) WakeViolations() int { return w.violations }

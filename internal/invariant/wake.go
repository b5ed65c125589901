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
//     stepped it,
//   - every delivery wakes: a delivered node is stepped in the next slot —
//     unless its promise was quiet (sim.ParkListenQuiet), in which case
//     deliveries leave the schedule untouched and the promise runs to its
//     expiry,
//   - retirement is final: a node whose own Done reported true at the end
//     of a slot is never stepped or delivered to again.
//
// Like Checker it shares no code or state with the engine: it sees only the
// public Protocol and Observer interfaces, so bookkeeping bugs in the wake
// heap or the parked lists surface as violations. It checks sparse runs
// only — a dense engine steps every node every slot, hints or not. OnSlot
// is O(n), which is fine for the test workloads the checker exists for.
type WakeChecker struct {
	protos []sim.Protocol // the wrapped protocols, by node

	retired   []bool
	retireDay []int  // slot the node retired in (valid when retired)
	expect    []int  // slot the node must next be stepped at; never = delivery-only
	stepped   []int  // last slot the node was stepped, -1 initially
	quiet     []bool // current promise is delivery-proof (Action.Quiet)

	violations int
	firstErr   error
}

var _ sim.Observer = (*WakeChecker)(nil)

// never marks a node woken only by deliveries (Sleep >= sim.Forever).
const never = math.MaxInt

// Reset prepares the checker for one run over n nodes: every node is
// expected awake at slot 0. Wrap every node afterwards.
func (w *WakeChecker) Reset(n int) {
	if cap(w.retired) < n {
		w.protos = make([]sim.Protocol, n)
		w.retired = make([]bool, n)
		w.retireDay = make([]int, n)
		w.expect = make([]int, n)
		w.stepped = make([]int, n)
		w.quiet = make([]bool, n)
	}
	w.protos = w.protos[:n]
	w.retired = w.retired[:n]
	w.retireDay = w.retireDay[:n]
	w.expect = w.expect[:n]
	w.stepped = w.stepped[:n]
	w.quiet = w.quiet[:n]
	for i := 0; i < n; i++ {
		w.protos[i] = nil
		w.retired[i] = false
		w.expect[i] = 0
		w.stepped[i] = -1
		w.quiet[i] = false
	}
	w.violations = 0
	w.firstErr = nil
}

// Wrap interposes the checker between the engine and node id's protocol p,
// which must be in its initial state: a node already done is retired
// before slot 0. id must lie in the range given to Reset.
func (w *WakeChecker) Wrap(id sim.NodeID, p sim.Protocol) sim.Protocol {
	w.protos[id] = p
	if p.Done() {
		w.retired[id] = true
		w.retireDay[id] = -1
	}
	return wakeProbe{w: w, id: id, p: p}
}

// wakeProbe reports node id's steps and deliveries to the checker.
type wakeProbe struct {
	w  *WakeChecker
	id sim.NodeID
	p  sim.Protocol
}

func (q wakeProbe) Step(slot int) sim.Action {
	act := q.p.Step(slot)
	q.w.onStep(slot, q.id, act)
	return act
}

func (q wakeProbe) Deliver(slot int, ev sim.Event) {
	q.p.Deliver(slot, ev)
	q.w.onDeliver(slot, q.id)
}

func (q wakeProbe) Done() bool { return q.p.Done() }

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
	w.quiet[v] = act.Op == sim.OpListen && act.Sleep > 0 && act.Quiet
	switch {
	case act.Op == sim.OpBroadcast || act.Sleep <= 0:
		w.expect[v] = slot + 1
	case act.Sleep >= sim.Forever:
		w.expect[v] = never
	default:
		w.expect[v] = slot + act.Sleep + 1
	}
}

// onDeliver checks that a delivery re-wakes its target for the next slot —
// unless the target's current promise is quiet, which the delivery leaves
// untouched — and that no node is delivered to after its retirement slot
// (its final action resolves that slot, exactly as the dense engine
// resolves it).
func (w *WakeChecker) onDeliver(slot int, node sim.NodeID) {
	v := int(node)
	if w.retired[v] {
		w.failf("slot %d: delivery to node %d retired in slot %d", slot, node, w.retireDay[v])
		return
	}
	if w.quiet[v] && slot < w.expect[v] {
		return
	}
	w.expect[v] = slot + 1
}

// OnSlot implements sim.Observer: every node that was due this slot must
// have been stepped, and a node whose Done now reports true retires.
func (w *WakeChecker) OnSlot(slot int, _ []sim.ChannelOutcome) {
	for v, p := range w.protos {
		if w.retired[v] {
			continue
		}
		if w.expect[v] == slot && w.stepped[v] != slot {
			w.failf("slot %d: awake node %d skipped by the sparse scan", slot, v)
			w.expect[v] = slot + 1
		}
		if p.Done() {
			w.retired[v] = true
			w.retireDay[v] = slot
		}
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

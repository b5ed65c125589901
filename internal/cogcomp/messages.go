package cogcomp

import (
	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/sim"
)

// initPayload is the body of the INIT message the source disseminates with
// COGCAST in phase one.
type initPayload struct{}

// censusMsg is the phase-two message ⟨u, r⟩: node u announces on its
// informed channel that it was first informed in slot r. From the stream of
// winning censusMsgs every node on the channel reconstructs the channel's
// full roster, which yields both cluster sizes and the mediator election.
type censusMsg struct {
	ID sim.NodeID
	R  int
}

// rewindMsg is the phase-three message: a member of cluster (r, c) reports
// the cluster's size while the schedule of phase one is replayed backwards,
// so the cluster's informer learns that the cluster exists and how big it is.
type rewindMsg struct {
	R    int
	Size int
}

// censusKey is the wake key every census message carries: a census win
// re-arms the channel's standing contenders (see Node.stepPhase2).
const censusKey sim.WakeKey = 1

// announceKey is the wake key of the announcement of cluster r: its win
// re-arms the cluster's standing senders (see Node.send). Phase-one slots
// are non-negative, so announcement keys start above censusKey, and no key
// is sim.NoKey.
func announceKey(r int) sim.WakeKey { return sim.WakeKey(r) + censusKey + 1 }

// announceMsg is slot one of a phase-four step: the channel's mediator
// announces that cluster (r', c) should send now.
type announceMsg struct {
	R int
}

// valueMsg is slot two of a phase-four step: a sender in cluster (r, c)
// passes its aggregated subtree value to its parent. R lets co-channel
// informers attribute the message to the right cluster; Sender is echoed in
// the ack.
type valueMsg struct {
	R      int
	Sender sim.NodeID
	Agg    aggfunc.Value
}

// ackMsg is slot three of a phase-four step: the receiving informer echoes
// the identity of the sender whose value it just accepted. The named sender
// may terminate; the mediator uses the ack stream to decide when a cluster
// is fully aggregated.
type ackMsg struct {
	ID sim.NodeID
}

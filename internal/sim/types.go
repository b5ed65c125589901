// Package sim implements the synchronous slotted radio model of Gilbert,
// Kuhn, Newport and Zheng (PODC 2015): a single-hop cognitive radio network
// in which, per slot, every node tunes to one of its available channels and
// either broadcasts or listens.
//
// The collision model follows Section 2 of the paper exactly: if several
// nodes broadcast concurrently on one channel, one of their messages —
// chosen uniformly at random — is received by every listener on that
// channel. Every broadcaster learns whether it succeeded, and each failed
// broadcaster also receives the winning message. (The paper argues this
// abstraction is implementable with poly-logarithmic overhead via standard
// backoff; package backoff reproduces that claim empirically.)
package sim

// NodeID identifies a node. Nodes are numbered 0..n-1 and IDs double as the
// "unique identity" the model grants every node.
type NodeID int

// None is the sentinel NodeID meaning "no node" (e.g. no winner on an idle
// channel).
const None NodeID = -1

// Op is what a node does with its radio during one slot.
type Op uint8

// Radio operations. OpIdle means the node does not touch the medium at all
// (a terminated node); OpListen tunes to a channel and receives; OpBroadcast
// transmits a message on a channel.
const (
	OpIdle Op = iota
	OpListen
	OpBroadcast
)

// String returns a short human-readable name for the operation.
func (o Op) String() string {
	switch o {
	case OpIdle:
		return "idle"
	case OpListen:
		return "listen"
	case OpBroadcast:
		return "broadcast"
	default:
		return "invalid"
	}
}

// Message is an opaque protocol payload. Protocols define their own concrete
// message types and type-switch on delivery. Messages must be treated as
// immutable once handed to the engine.
type Message any

// Action is a node's decision for one slot. Channel is a *local* channel
// index in [0, c): the engine translates it to a physical channel through
// the node's assignment, so protocols can be written against local labels
// only, exactly as the model prescribes.
//
// Sleep is an optional dormancy hint (see Forever). A positive Sleep on an
// OpIdle or OpListen action promises: "absent any delivery to this node, my
// next Sleep calls to Step would return exactly this action, mutate no
// state, and draw no randomness." A sparse engine (WithSparse) uses the
// hint to skip those Step calls — parking listeners on their channel so
// deliveries still reach them and re-wake them eagerly — while the dense
// engine ignores it entirely, which is what keeps sparse and dense
// executions byte-identical. On an OpBroadcast action the hint means
// nothing unless Await names a wake key, which makes the broadcast a
// standing one (see Stand); a plain broadcaster always gets feedback, so
// it is stepped again in the next slot. On an OpListen action Await makes
// the park a stand-by (see StandBy). A Sleep <= 0 promises no dormancy: a
// park or stand is then the plain listen or broadcast, whatever Quiet and
// Await say, so a protocol may pass a bound that has run down to zero or
// below straight to any hinted constructor (FuzzEngineSlot's scripted
// holds issue Sleep = 0 in their last slot). Quiet on a broadcast is the
// one hint that needs no Sleep: it promises only that losing this slot
// teaches the node nothing (see BroadcastQuiet).
//
// The field order packs Op, Quiet and Key into one word, so the wake keys
// do not grow the engine's per-node action buffer.
type Action struct {
	Op Op
	// Quiet on an OpBroadcast action promises that losing changes
	// nothing: the node's Deliver would ignore the EvSendFailed, so a
	// sparse engine delivers a quiet broadcaster only its win (see
	// BroadcastQuiet). On an OpListen action with a positive Sleep it makes
	// the park a deaf hold for a CatchUpper under UniformWinner (see
	// ParkListenQuiet). The dense engine never reads it, and otherwise the
	// sparse engine ignores it too.
	Quiet bool
	// Key is the wake key the broadcast message carries (see WakeKey):
	// when it wins its channel, the nodes standing there on Key broadcast
	// again in the next slot. NoKey wakes no one.
	Key     WakeKey
	Channel int
	Msg     Message
	Sleep   int
	// Await is the wake key a standing broadcast or a stand-by waits for
	// (see Stand, StandBy). NoKey, the zero value, makes a broadcast plain
	// and a listen a park.
	Await WakeKey
}

// Forever is the Sleep value for an open-ended dormancy hint: the node
// promises to repeat its action until a delivery wakes it. An OpIdle action
// with Sleep >= Forever is only re-stepped if the slot budget ends first (a
// parked listener is re-woken by any broadcast on its channel).
const Forever = 1 << 30

// WakeKey names a class of messages that standing broadcasters wait for
// (Action.Key, Action.Await). Protocols choose their own keys; every key
// but NoKey is a real one.
type WakeKey uint32

// NoKey is the zero WakeKey: a message that carries it wakes no stander,
// and a broadcast that awaits it is not a stand.
const NoKey WakeKey = 0

// Idle returns the action of a node that has terminated or sleeps this slot.
func Idle() Action { return Action{Op: OpIdle} }

// Sleep returns an Idle action carrying a dormancy hint: the node promises
// that, absent deliveries, its next k Steps would also return Idle with no
// state change and no RNG draws. With k <= 0 it acts as Idle().
func Sleep(k int) Action { return Action{Op: OpIdle, Sleep: k} }

// Listen returns the action of listening on local channel ch.
func Listen(ch int) Action { return Action{Op: OpListen, Channel: ch} }

// ParkListen returns a Listen action carrying a dormancy hint: the node
// promises that, absent deliveries, its next k Steps would also return
// Listen(ch) with no state change and no RNG draws. A sparse engine keeps
// the node tuned to the channel (any broadcast there is delivered and
// re-wakes it) without stepping it. With k <= 0 it acts as Listen(ch).
func ParkListen(ch, k int) Action { return Action{Op: OpListen, Channel: ch, Sleep: k} }

// ParkListenQuiet is ParkListen with a stronger promise: deliveries may
// change the node's state but not the actions its next k Steps would
// return. A sparse engine holds a CatchUpper's quiet park deaf under
// UniformWinner (see CatchUpper): no delivery and no wake until it ends.
// This is the hint for drain patterns — a node that collects a long
// stream of messages while its own behavior stays a fixed listen
// (COGCOMP's census roster fill) — where eager wakes would re-step the
// whole audience every slot. For any other node it is ParkListen. With
// k <= 0 it acts as Listen(ch).
func ParkListenQuiet(ch, k int) Action {
	return Action{Op: OpListen, Channel: ch, Sleep: k, Quiet: true}
}

// Broadcast returns the action of broadcasting msg on local channel ch.
func Broadcast(ch int, msg Message) Action {
	return Action{Op: OpBroadcast, Channel: ch, Msg: msg}
}

// BroadcastQuiet is Broadcast with a waiver: the node promises that its
// Deliver would ignore an EvSendFailed for this slot — no state change, no
// randomness — so losing teaches it nothing. A sparse engine delivers a
// quiet broadcaster only its win, and the dense engine, which reads no
// hint, delivers every loss, so both leave the node in the same state.
// This is COGCAST's informed node, which ignores all feedback once it
// holds the message; under the paper's model every loser would get the
// winner's message. A quiet broadcast is stepped again in the next slot
// like any plain one, and needs no Sleep.
func BroadcastQuiet(ch int, msg Message) Action {
	return Action{Op: OpBroadcast, Channel: ch, Msg: msg, Quiet: true}
}

// Stand returns a standing broadcast of msg on local channel ch: the node
// broadcasts now and promises that, until it wins or k slots pass, its
// Step would return Listen(ch) — except in the slot after a message
// carrying wake key key wins that channel (it is the channel's reported
// winner), where Step would return this same broadcast. Deliveries
// meanwhile change none of those actions, and the skipped Steps draw no
// randomness. A sparse engine honours the stand of a CatchUpper under
// UniformWinner, held deaf (see CatchUpper): it keeps standers per channel
// and key, never steps them, and merges a group into its channel's
// broadcasters in the slot after its key wins; the winner is stepped in
// the next slot, and a stand whose bound runs out is stepped again. Any
// other stand is a plain broadcast, stepped every slot as the dense engine
// steps every stand. With key NoKey or k <= 0 the broadcast is plain. The
// broadcast's own message carries no key; set Key for that (COGCOMP's
// census contenders wait for the very key they send).
func Stand(ch int, msg Message, key WakeKey, k int) Action {
	return Action{Op: OpBroadcast, Channel: ch, Msg: msg, Sleep: k, Await: key}
}

// StandBy returns a stand that opens with a listen on local channel ch:
// from this slot on the node makes Stand's promise, until it wins or k
// slots pass its Step returning Listen(ch) but Broadcast(ch, msg), with
// the action's Key, in the slot after a message carrying key wins the
// channel. A sparse engine holds it deaf in key's stand group from this
// listen on; any other stand-by, or one with key NoKey, is
// ParkListen(ch, k). With k <= 0 it is Listen(ch).
func StandBy(ch int, msg Message, key WakeKey, k int) Action {
	return Action{Op: OpListen, Channel: ch, Msg: msg, Sleep: k, Await: key}
}

// Keyed returns the action with its message carrying wake key key (see
// Action.Key).
func (a Action) Keyed(key WakeKey) Action {
	a.Key = key
	return a
}

// EventKind classifies feedback delivered to a node after a slot resolves.
type EventKind uint8

// Event kinds. EvReceived is delivered to listeners that heard a message.
// EvSendSucceeded is delivered to the (unique) winning broadcaster on a
// contended channel. EvSendFailed is delivered to losing broadcasters and
// carries the winning message, per the model.
const (
	EvReceived EventKind = iota + 1
	EvSendSucceeded
	EvSendFailed
)

// String returns a short human-readable name for the event kind.
func (k EventKind) String() string {
	switch k {
	case EvReceived:
		return "received"
	case EvSendSucceeded:
		return "send-succeeded"
	case EvSendFailed:
		return "send-failed"
	default:
		return "invalid"
	}
}

// Event is the feedback a node receives after a slot. From is the sender of
// Msg (the winning broadcaster). Channel is the node's own *local* index of
// the channel on which the event happened, so protocols never observe
// physical channel identities.
type Event struct {
	Kind    EventKind
	From    NodeID
	Msg     Message
	Channel int
}

// Protocol is the behavior of one node. The engine drives all nodes in
// lockstep: each slot it calls Step (or StepInto, see StepperInto) on every
// non-done node, resolves the medium, then calls Deliver for every node that
// received feedback. A node for which Done reports true is skipped entirely
// (its radio is off).
//
// A node's calls never overlap. Deliver runs on one goroutine, but under
// WithShards other nodes' Steps run on shard goroutines: state nodes share
// is written only from Deliver. A slot's deliveries come in node order or
// in channel order, by engine mode and slot size (see resolveChannels), and
// no Deliver may depend on the order in which other nodes are delivered to.
type Protocol interface {
	// Step returns the node's action for the given slot.
	Step(slot int) Action
	// Deliver reports the outcome of the node's action in the given slot
	// (silent listening produces no call): at most once per slot, but once
	// per broadcaster on its channel for a listener under AllDelivered.
	Deliver(slot int, ev Event)
	// Done reports whether the node has terminated.
	Done() bool
}

// StepperInto is an optional Protocol interface: StepInto(slot, a) is
// Step(slot) writing every field of the action into *a, which may hold an
// earlier one. An engine whose nodes all have it steps them in place,
// sparing a returned Action's copy (DESIGN.md §5). Wrappers forward it.
type StepperInto interface {
	StepInto(slot int, a *Action)
}

// CatchUpper is an optional Protocol interface for nodes that can rebuild
// the deliveries they missed from state shared outside the radio (COGCOMP
// re-reads its channel's census log). A sparse engine keeps one dormancy
// contract: a delivery wakes a parked node, or the node waived it — a
// quiet loser (BroadcastQuiet) has nothing to learn, and a deaf
// CatchUpper catches up. Only a CatchUpper under UniformWinner is held deaf, while it
// stands (Stand, StandBy) or sits in a quiet park (ParkListenQuiet): the engine
// skips every delivery to it but a winning one and, before the node's next
// Step or that win, calls CatchUp once with the skipped slots. CatchUp
// must leave Done false: the engine reads a deaf node's Done only when it
// steps it again, so deliveries that would finish the node cannot be
// skipped.
type CatchUpper interface {
	// CatchUp reports that the node spent slots [from, to) tuned to the
	// channel of its stand or park without seeing a delivery: it must end
	// up in the state those slots' deliveries would have left it in.
	CatchUp(from, to int)
}

// Assignment describes which physical channels each node may use in each
// slot. Implementations live in package assign; the interface is defined
// here so the engine does not depend on generators.
type Assignment interface {
	// Nodes returns n, the number of nodes.
	Nodes() int
	// Channels returns C, the number of physical channels.
	Channels() int
	// PerNode returns c, the number of channels available to each node.
	PerNode() int
	// MinOverlap returns k, the guaranteed pairwise overlap.
	MinOverlap() int
	// ChannelSet returns the node's channel set for the given slot as a
	// slice mapping local index -> physical channel. The returned slice is
	// owned by the assignment and must not be mutated; for static
	// assignments it is independent of slot.
	ChannelSet(node NodeID, slot int) []int
}

// FixedAssignment is an optional Assignment interface declaring that
// channel sets never change: ChannelSet ignores its slot argument and is
// safe to call concurrently for distinct nodes. True for immutable static
// assignments (assign.Static); dynamic re-draws and jamming adapters cache
// or re-draw sets per slot and do not implement it. The engine shards its
// scan (WithShards) and parks listeners by physical channel (WithSparse)
// only over fixed assignments.
type FixedAssignment interface {
	Assignment
	// FixedChannelSets reports whether every node's channel set is the
	// same in every slot and readable concurrently.
	FixedChannelSets() bool
}

// Fixed reports whether asn implements FixedAssignment and reports true.
func Fixed(asn Assignment) bool {
	f, ok := asn.(FixedAssignment)
	return ok && f.FixedChannelSets()
}

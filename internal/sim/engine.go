package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/cogradio/crn/internal/rng"
)

// ErrMaxSlots is returned by Engine.Run when the slot budget is exhausted
// before every protocol reported Done.
var ErrMaxSlots = errors.New("sim: slot budget exhausted before all nodes terminated")

// ChannelOutcome describes what happened on one physical channel during one
// slot. It is produced only when an Observer is attached. The Broadcasters
// and Listeners slices alias the engine's per-slot scratch: they are valid
// only for the duration of the OnSlot call and must be copied to be kept.
type ChannelOutcome struct {
	// Channel is the physical channel index.
	Channel int
	// Broadcasters lists all nodes that transmitted on the channel.
	Broadcasters []NodeID
	// Winner is the broadcaster whose message was received, or None if the
	// channel carried no transmission.
	Winner NodeID
	// Listeners lists all nodes that listened on the channel.
	Listeners []NodeID
}

// Observer receives a per-slot report of all channels that saw activity
// (at least one broadcaster or listener). Outcomes are sorted by channel.
// The outcomes slice and the node slices inside each ChannelOutcome are
// engine-owned scratch, reused on the next slot: they are only valid for
// the duration of the call and must be copied to be retained.
type Observer interface {
	OnSlot(slot int, outcomes []ChannelOutcome)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(slot int, outcomes []ChannelOutcome)

// OnSlot implements Observer.
func (f ObserverFunc) OnSlot(slot int, outcomes []ChannelOutcome) { f(slot, outcomes) }

var _ Observer = (ObserverFunc)(nil)

// Engine drives a set of protocol nodes through synchronous slots over a
// channel assignment, resolving contention per the paper's collision model.
// Engines are deterministic: the same assignment, protocols and seed yield
// the same execution.
type Engine struct {
	asn        Assignment
	nodes      []Protocol
	rand       *rand.Rand
	collisions CollisionModel

	slot int
	obs  Observer
	ctx  context.Context // slot-boundary interrupt check; nil = never

	// Per-slot scratch, reused across slots so a steady-state RunSlot does
	// not allocate. bcast and listen are dense, indexed by physical channel
	// and sized to asn.Channels() up front (grown on demand should an
	// assignment hand out a larger index). touched marks the channels used
	// this slot and active lists them so reset is O(active), not O(C);
	// maxCh is the highest of them and broadcasts counts the slot's
	// broadcasters. Resolution scans physical channels in ascending index
	// order — the same deterministic order the previous sorted-map
	// implementation produced.
	acts       []Action
	bcast      [][]NodeID // physical channel -> broadcasters
	listen     [][]NodeID // physical channel -> listeners
	touched    []bool     // physical channel -> used this slot
	active     []int      // physical channels touched this slot (unordered)
	maxCh      int        // highest channel touched this slot; -1 if none
	broadcasts int
	outScratch []ChannelOutcome

	// Dense phase-A scan. shards is the count requested via WithShards;
	// shardAcc holds one scratch accumulator per effective shard (at least
	// one: a single shard is the serial scan, see configure) and shardFns
	// the pre-built goroutine bodies of shards 1.., so a steady-state
	// sharded slot spawns goroutines without allocating closures. scanSlot
	// carries the slot number into the workers.
	shards   int
	shardAcc []shardScan
	shardFns []func()
	shardWG  sync.WaitGroup
	scanSlot int

	// Event-driven stepping (WithSparse). sparseReq is the requested mode;
	// sp holds the wake-queue state and is live only while sp.on (see
	// configure for the gating rules). audit, when set, receives the sparse
	// scheduler's decisions for external cross-checking.
	sparseReq bool
	audit     WakeAuditor
	sp        sparseState
}

// shardScan is the per-shard scratch of the dense phase-A scan: the node
// range [lo, hi), the pending (node, physical channel, op) triples collected
// in node-ascending order, and the shard's first error. pend is kept across
// slots so the steady state appends into pre-grown backing.
type shardScan struct {
	lo, hi int
	pend   []pendingAct
	err    error
}

// pendingAct records one non-idle action discovered by a shard, to be merged
// into the global per-channel buckets serially. Buffering flat triples
// instead of per-shard dense buckets keeps shard scratch O(nodes/shard)
// rather than O(channels) — partitioned assignments make C grow with n, and
// a per-shard dense copy would multiply that by the shard count.
type pendingAct struct {
	node NodeID
	phys int
	op   Op
}

// slotsExecuted counts every slot executed by any engine in the process; see
// SlotsExecuted.
var slotsExecuted atomic.Int64

// SlotsExecuted returns the total number of slots executed by all engines in
// this process since it started. The counter is monotonic and safe for
// concurrent use; callers measure work by differencing two reads (this is
// what cogbench's -bench-out accounting does).
func SlotsExecuted() int64 { return slotsExecuted.Load() }

// nodesSimulated counts every node instantiated into any engine by Reset;
// see NodesSimulated.
var nodesSimulated atomic.Int64

// NodesSimulated returns the total number of protocol nodes handed to engine
// Resets in this process since it started — one increment of n per trial.
// Like SlotsExecuted it is monotonic and differenced by benchmarks; cogbench
// uses it to amortize allocated bytes into a bytes-per-node figure.
func NodesSimulated() int64 { return nodesSimulated.Load() }

// CollisionModel selects how concurrent broadcasts on one channel resolve.
type CollisionModel uint8

const (
	// UniformWinner is the paper's model (Section 2): one uniformly chosen
	// message is delivered; losers learn they failed and receive the
	// winner's message. This is the default.
	UniformWinner CollisionModel = iota
	// AllDelivered is the stronger model common in the cognitive radio
	// literature (the paper's footnote 3): every concurrent message is
	// received by every listener, and every broadcaster succeeds. Useful
	// for ablations; COGCOMP's census phase assumes UniformWinner.
	AllDelivered
)

// String returns the model's name.
func (m CollisionModel) String() string {
	switch m {
	case UniformWinner:
		return "uniform-winner"
	case AllDelivered:
		return "all-delivered"
	default:
		return "invalid"
	}
}

// Option configures an Engine.
type Option func(*Engine)

// WithObserver attaches an observer that is invoked after every slot.
func WithObserver(o Observer) Option {
	return func(e *Engine) { e.obs = o }
}

// WithCollisionModel selects the contention semantics (default
// UniformWinner).
func WithCollisionModel(m CollisionModel) Option {
	return func(e *Engine) { e.collisions = m }
}

// WithShards splits the per-slot protocol scan (phase A of RunSlot) across s
// goroutines over contiguous node ranges. Results are merged in shard- and
// hence node-ascending order, and channel resolution stays serial, so any
// shard count produces executions byte-identical to the serial engine —
// tables, traces and RNG streams included. The effective count is gated as
// Engine.configure describes and reported by Shards(). Default 1 (serial).
func WithShards(s int) Option {
	return func(e *Engine) { e.shards = s }
}

// NewEngine creates an engine over the given assignment and one protocol per
// node. len(nodes) must equal asn.Nodes(). The seed determines all collision
// tie-breaking; protocols are expected to derive their own streams from the
// same root seed via package rng.
func NewEngine(asn Assignment, nodes []Protocol, seed int64, opts ...Option) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(asn, nodes, seed, opts...); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-initializes the engine over a new assignment, protocol set and
// seed, exactly as NewEngine would — observer and collision model return to
// their defaults before opts apply, and the tie-break stream restarts at the
// derived seed — but the dense per-channel scratch, action buffer and
// generator source are kept, so a trial arena resetting an engine between
// trials allocates nothing once the scratch has grown to the largest shape
// seen. Executions after a Reset are byte-identical to those of a fresh
// engine.
func (e *Engine) Reset(asn Assignment, nodes []Protocol, seed int64, opts ...Option) error {
	if asn == nil {
		return errors.New("sim: nil assignment")
	}
	if got, want := len(nodes), asn.Nodes(); got != want {
		return fmt.Errorf("sim: got %d protocols for %d nodes", got, want)
	}
	for i, p := range nodes {
		if p == nil {
			return fmt.Errorf("sim: protocol for node %d is nil", i)
		}
	}
	// Clear buckets left by a previous run before any reshaping: active
	// indexes the old scratch.
	e.touchReset()
	e.asn = asn
	e.nodes = nodes
	if e.rand == nil {
		e.rand = rng.New(seed, int64(len(nodes)), 0x5e5)
	} else {
		rng.Reseed(e.rand, seed, int64(len(nodes)), 0x5e5)
	}
	e.collisions = UniformWinner
	e.slot = 0
	e.obs = nil
	e.ctx = nil
	e.shards = 1
	e.sparseReq = false
	e.audit = nil
	if cap(e.acts) < len(nodes) {
		e.acts = make([]Action, len(nodes))
	}
	e.acts = e.acts[:len(nodes)]
	c := asn.Channels()
	// Assignments that know their exact maximum physical index let us
	// pre-size the dense scratch past the advertised Channels(), so the
	// growScratch path never fires mid-run.
	if b, ok := asn.(ChannelBounder); ok {
		if m := b.MaxPhysChannel() + 1; m > c {
			c = m
		}
	}
	e.growScratch(c)
	if cap(e.active) < c {
		e.active = make([]int, 0, c)
	}
	for _, opt := range opts {
		opt(e)
	}
	e.configure()
	nodesSimulated.Add(int64(len(nodes)))
	return nil
}

// configure is the engine's one mode gate: it resolves the requested shard
// count and sparse mode into the effective ones, then (re)builds the scan
// scratch. Every fallback is silent, because every mode yields the same
// execution byte for byte:
//
//   - Shards clamp to [1, n]. More than one shard also needs an assignment
//     implementing ConcurrentAssignment with ConcurrentChannelSet true, as
//     the shards call ChannelSet concurrently; otherwise the scan is serial.
//   - Sparse stepping engages only with no Observer attached (an observer
//     must see silent listen-only channels the sparse scan never
//     materializes), below 2^22 nodes (wake-heap entries pack the node id
//     into 22 bits), and over an assignment implementing
//     SlotInvariantAssignment with SlotInvariantChannelSet true (parked
//     listeners cache the physical channel they parked on); otherwise the
//     engine steps densely.
//   - Engaged sparse stepping forces one shard: its wake bookkeeping is
//     single-threaded, and with few awake nodes nothing is worth sharding.
//
// Shard ranges are contiguous and cover [0, n) in order; pend capacity is
// pre-sized to the range width so the first slots do not regrow it node by
// node.
func (e *Engine) configure() {
	n := len(e.nodes)
	sparse := e.sparseReq && e.obs == nil && n < maxSparseNodes
	if sparse {
		si, ok := e.asn.(SlotInvariantAssignment)
		sparse = ok && si.SlotInvariantChannelSet()
	}
	s := max(1, min(e.shards, n))
	if ca, ok := e.asn.(ConcurrentAssignment); sparse || !ok || !ca.ConcurrentChannelSet() {
		s = 1
	}
	if cap(e.shardAcc) < s {
		e.shardAcc = make([]shardScan, s)
		e.shardFns = make([]func(), s)
	}
	e.shardAcc = e.shardAcc[:s]
	e.shardFns = e.shardFns[:s]
	for i := range e.shardAcc {
		sc := &e.shardAcc[i]
		sc.lo, sc.hi = i*n/s, (i+1)*n/s
		if cap(sc.pend) < sc.hi-sc.lo {
			sc.pend = make([]pendingAct, 0, sc.hi-sc.lo)
		}
		if i > 0 && e.shardFns[i] == nil {
			e.shardFns[i] = func() {
				defer e.shardWG.Done()
				e.scanShard(&e.shardAcc[i], e.scanSlot)
			}
		}
	}
	e.sp.on = sparse
	if sparse {
		e.resetSparse()
	}
}

// Slot returns the number of slots executed so far.
func (e *Engine) Slot() int { return e.slot }

// Shards returns the effective shard count of the phase-A scan: the value
// requested via WithShards after configure's gating, so 1 means the scan
// runs serially.
func (e *Engine) Shards() int { return len(e.shardAcc) }

// Collisions returns the engine's collision model. Debug observers (the
// invariant checker) use it to select which semantics to re-verify.
func (e *Engine) Collisions() CollisionModel { return e.collisions }

// AllDone reports whether every protocol has terminated.
func (e *Engine) AllDone() bool {
	if e.sp.on {
		// The sparse scan observes every Done transition as it happens
		// (step, delivery, or initial state), so the count is exact.
		return e.sp.notDone == 0
	}
	for _, p := range e.nodes {
		if !p.Done() {
			return false
		}
	}
	return true
}

// RunSlot executes exactly one slot: collects actions, resolves each channel,
// and delivers feedback. It returns an error if any protocol produced an
// invalid action (out-of-range local channel index), or an *Interrupted
// error — before executing anything — if a context attached via WithContext
// is done.
func (e *Engine) RunSlot() error {
	if err := e.checkInterrupt(); err != nil {
		return err
	}
	slot := e.slot
	e.slot++
	slotsExecuted.Add(1)

	// Phase A: collect actions and bucket nodes by physical channel, in node
	// order at any shard count. The sparse scan steps only awake nodes;
	// phase B merges the parked listeners back in.
	e.touchReset()
	var err error
	if e.sp.on {
		err = e.scanSparse(slot)
	} else {
		err = e.scanShards(slot)
	}
	if err != nil {
		return err
	}

	// Phase B. Fast path: with no broadcaster anywhere there is no feedback
	// to deliver, and with no observer there is nothing to report — skip
	// channel resolution entirely.
	if e.broadcasts > 0 || e.obs != nil {
		e.resolveChannels(slot)
	}
	if e.sp.on {
		e.commitParked()
		if e.audit != nil {
			return e.audit.EndSlot(slot)
		}
	}
	return nil
}

// resolveChannels is phase B and the engine's one resolver: it resolves
// the touched channels in deterministic ascending physical order under the
// collision model and reports them to the observer. Under UniformWinner one
// broadcaster, drawn uniformly from the engine stream, succeeds; the others
// fail, and they and every listener receive the winner's message. Under
// AllDelivered every broadcaster succeeds, every listener receives every
// message, and the first broadcaster is reported as the winner. Under
// sparse stepping a channel's listeners are its live bucket merged with the
// listeners parked there, and the parked ones that heard something are
// re-woken.
func (e *Engine) resolveChannels(slot int) {
	var outcomes []ChannelOutcome
	if e.obs != nil {
		outcomes = e.outScratch[:0]
	}
	for ch := 0; ch <= e.maxCh; ch++ {
		if !e.touched[ch] {
			continue
		}
		bs, ls := e.bcast[ch], e.listen[ch]
		winner := None
		if len(bs) > 0 {
			if e.sp.on {
				ls = e.mergedListeners(ch, e.compactParked(slot, ch))
			}
			switch e.collisions {
			case AllDelivered:
				// Footnote-3 semantics: every message goes through.
				winner = bs[0]
				for _, b := range bs {
					e.nodes[b].Deliver(slot, Event{Kind: EvSendSucceeded, From: b, Msg: e.acts[b].Msg, Channel: e.acts[b].Channel})
					e.delivered(slot, b)
				}
				for _, l := range ls {
					for _, b := range bs {
						e.nodes[l].Deliver(slot, Event{Kind: EvReceived, From: b, Msg: e.acts[b].Msg, Channel: e.acts[l].Channel})
						e.delivered(slot, l)
					}
				}
			default:
				winner = bs[e.rand.Intn(len(bs))]
				msg := e.acts[winner].Msg
				for _, b := range bs {
					kind := EvSendFailed
					if b == winner {
						kind = EvSendSucceeded
					}
					e.nodes[b].Deliver(slot, Event{Kind: kind, From: winner, Msg: msg, Channel: e.acts[b].Channel})
					e.delivered(slot, b)
				}
				for _, l := range ls {
					e.nodes[l].Deliver(slot, Event{Kind: EvReceived, From: winner, Msg: msg, Channel: e.acts[l].Channel})
					e.delivered(slot, l)
				}
			}
			if e.sp.on {
				e.wakeParked(ch, ls)
			}
		}
		if e.obs != nil {
			outcomes = append(outcomes, ChannelOutcome{
				Channel:      ch,
				Broadcasters: bs,
				Winner:       winner,
				Listeners:    ls,
			})
		}
	}
	if e.obs != nil {
		// Keep the (possibly regrown) backing array so the next observed
		// slot appends into it instead of allocating.
		e.outScratch = outcomes
		e.obs.OnSlot(slot, outcomes)
	}
}

// delivered follows every delivery to node id. Only sparse stepping has
// bookkeeping to do (sparseDelivered); a dense engine pays one branch, and
// the function stays small enough to inline, so resolution makes no extra
// call per delivery.
func (e *Engine) delivered(slot int, id NodeID) {
	if e.sp.on {
		e.sparseDelivered(slot, id)
	}
}

// Run executes slots until every protocol is done or maxSlots slots have
// been executed in total (across all Run/RunSlot calls). It returns the
// total slot count so far. If the budget runs out first it returns
// ErrMaxSlots; the engine remains usable, so callers may extend the budget
// and continue.
func (e *Engine) Run(maxSlots int) (int, error) {
	for !e.AllDone() {
		if e.slot >= maxSlots {
			return e.slot, ErrMaxSlots
		}
		if err := e.RunSlot(); err != nil {
			return e.slot, err
		}
	}
	return e.slot, nil
}

// RunWhile executes slots while cond returns true and the slot budget lasts.
// cond is evaluated before each slot. It returns the total slot count.
func (e *Engine) RunWhile(maxSlots int, cond func() bool) (int, error) {
	for cond() {
		if e.slot >= maxSlots {
			return e.slot, ErrMaxSlots
		}
		if err := e.RunSlot(); err != nil {
			return e.slot, err
		}
	}
	return e.slot, nil
}

// scanShards is the dense phase-A scan. Each shard steps its contiguous
// node range into a private pend list — shards 1.. on their own goroutines,
// shard 0 (the whole scan when serial) on the caller's — and the lists are
// then merged into the per-channel buckets in shard-ascending order.
// Because shard ranges partition [0, n) in order and each shard appends in
// node order, the buckets, the active-channel sequence and maxCh do not
// depend on the shard count, and phase B (including its RNG draws) observes
// no difference. A shard stops at its first failing node, so the first
// failing shard holds the lowest failing node and the serial scan's error;
// nodes past it in later shards may already have stepped, but scan errors
// are fatal to the run so no caller observes the difference.
func (e *Engine) scanShards(slot int) error {
	e.scanSlot = slot
	for i := 1; i < len(e.shardAcc); i++ {
		e.shardWG.Add(1)
		go e.shardFns[i]()
	}
	e.scanShard(&e.shardAcc[0], slot)
	e.shardWG.Wait()
	for i := range e.shardAcc {
		if err := e.shardAcc[i].err; err != nil {
			return err
		}
	}
	for i := range e.shardAcc {
		for _, pa := range e.shardAcc[i].pend {
			e.bucket(pa.node, pa.phys, pa.op)
		}
	}
	return nil
}

// scanShard steps the nodes of one shard, buffering non-idle actions as
// flat (node, phys, op) triples. It writes only shard-private state and
// distinct e.acts elements, so shards never contend; the pend header lives
// in a local until the scan ends, because neighbouring shardScans may share
// a cache line.
func (e *Engine) scanShard(sc *shardScan, slot int) {
	pend := sc.pend[:0]
	sc.err = nil
	for i, hi := sc.lo, sc.hi; i < hi; i++ {
		p := e.nodes[i]
		if p.Done() {
			e.acts[i] = Idle()
			continue
		}
		act := p.Step(slot)
		e.acts[i] = act
		if act.Op == OpIdle {
			continue
		}
		phys, err := e.physChannel(NodeID(i), slot, act)
		if err != nil {
			sc.err = err
			break
		}
		pend = append(pend, pendingAct{node: NodeID(i), phys: phys, op: act.Op})
	}
	sc.pend = pend
}

// physChannel validates node id's non-idle action and maps its local
// channel to the physical one. Every scan reports a failing node through
// it, so the error text does not depend on the mode.
func (e *Engine) physChannel(id NodeID, slot int, act Action) (int, error) {
	set := e.asn.ChannelSet(id, slot)
	if act.Channel < 0 || act.Channel >= len(set) {
		return 0, fmt.Errorf("sim: slot %d: node %d chose local channel %d outside [0,%d)",
			slot, id, act.Channel, len(set))
	}
	phys := set[act.Channel]
	if phys < 0 {
		return 0, fmt.Errorf("sim: slot %d: assignment mapped node %d to negative physical channel %d", slot, id, phys)
	}
	if act.Op != OpListen && act.Op != OpBroadcast {
		return 0, fmt.Errorf("sim: slot %d: node %d produced invalid op %d", slot, id, act.Op)
	}
	return phys, nil
}

// bucket files a validated action of node id on physical channel phys.
// Callers insert in node-ascending order, which is the order resolution
// delivers in.
func (e *Engine) bucket(id NodeID, phys int, op Op) {
	if phys >= len(e.bcast) {
		e.growScratch(phys + 1)
	}
	if !e.touched[phys] {
		e.touched[phys] = true
		e.active = append(e.active, phys)
		e.maxCh = max(e.maxCh, phys)
	}
	if op == OpListen {
		e.listen[phys] = append(e.listen[phys], id)
	} else {
		e.bcast[phys] = append(e.bcast[phys], id)
		e.broadcasts++
	}
}

// growScratch extends the dense per-channel scratch to cover at least n
// physical channels — taken at Reset time and when an assignment hands out
// an index at or above the asn.Channels() it advertised at construction.
func (e *Engine) growScratch(n int) {
	if short := n - len(e.bcast); short > 0 {
		e.bcast = append(e.bcast, make([][]NodeID, short)...)
		e.listen = append(e.listen, make([][]NodeID, short)...)
		e.touched = append(e.touched, make([]bool, short)...)
	}
	if e.sp.on {
		e.growParked(len(e.bcast))
	}
}

func (e *Engine) touchReset() {
	for _, ch := range e.active {
		e.touched[ch] = false
		e.bcast[ch] = e.bcast[ch][:0]
		e.listen[ch] = e.listen[ch][:0]
	}
	e.active = e.active[:0]
	e.maxCh = -1
	e.broadcasts = 0
}

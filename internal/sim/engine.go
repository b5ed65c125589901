package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/cogradio/crn/internal/rng"
)

// ErrMaxSlots is returned by Engine.Run when the slot budget is exhausted
// before every protocol reported Done.
var ErrMaxSlots = errors.New("sim: slot budget exhausted before all nodes terminated")

// ChannelOutcome describes what happened on one physical channel during one
// slot. It is produced only when an Observer is attached. The Broadcasters,
// Listeners and Parked slices alias the engine's per-slot scratch: they are
// valid only for the duration of the OnSlot call and must be copied to be
// kept. Every node list is ascending.
type ChannelOutcome struct {
	// Channel is the physical channel index.
	Channel int
	// Broadcasters lists all nodes that transmitted on the channel.
	Broadcasters []NodeID
	// Winner is the broadcaster whose message was received, or None if the
	// channel carried no transmission.
	Winner NodeID
	// Listeners lists the nodes that were stepped this slot and listened
	// on the channel.
	Listeners []NodeID
	// Parked lists the listeners a sparse engine did not step because they
	// are parked on the channel (Action.Sleep). It is disjoint from
	// Listeners and always empty on a dense engine; Listeners ∪ Parked is
	// the listener set a dense engine reports as Listeners. On a channel
	// with broadcasters it is the parked set the deliveries reached, deaf
	// nodes (CatchUpper) included. A standing broadcaster (Stand) is
	// parked in every slot but those in which its group broadcasts, where
	// it is among Broadcasters instead. A parked list changes only when a
	// park or stand starts or ends or a stand group broadcasts, which lets
	// an observer check a park once instead of in every slot.
	Parked []NodeID
}

// Observer receives a per-slot report of all channels that saw activity
// (at least one broadcaster, listener or parked listener). Outcomes are
// sorted by channel. The outcomes slice and the node slices inside each
// ChannelOutcome are engine-owned scratch, reused on the next slot: they
// are only valid for the duration of the call and must be copied to be
// retained. An observer that counts listeners counts
// len(Listeners)+len(Parked).
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
	into       bool // every node is a StepperInto, decided by Reset
	rand       rng.Stream
	collisions CollisionModel

	slot int
	obs  Observer
	ctx  context.Context // slot-boundary interrupt check; nil = never

	// Per-slot scratch, reused across slots so a steady-state RunSlot does
	// not allocate, and sized by nodes, never by channels. sortActions sorts
	// the entries phase A filed (shardScan.file) stably into ids, keys[i]
	// being the key of ids[i], so every channel's broadcasters and then its
	// listeners are adjacent runs in node order. cnt, off and spill are the
	// radix sort's histogram, bucket offsets and intermediate passes. win
	// is each filed node's channel winner, None until phase B sets it.
	acts       []Action
	ids        []NodeID
	keys       []uint32
	win        []NodeID
	cnt, off   [radix]uint32
	spill      [2][]uint64
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
	// configure for the gating rules).
	sparseReq bool
	sp        sparseState
}

// shardScan is the per-shard scratch of phase A: the node range [lo, hi),
// the entries filed in node order (see file), their largest key, their
// broadcaster count, the shard's first error and the histogram of the
// entries' low key digit. It is O(nodes/shard) however many channels the
// assignment has.
type shardScan struct {
	lo, hi int
	pend   []uint64
	maxKey uint64
	bcasts int
	err    error
	cnt    [radix]uint32
}

// Entry keys are sorted digitBits at a time; a key is phys<<1 | isListen
// and must fit 32 bits, so physical channels stop at maxPhys.
const (
	digitBits = 8
	radix     = 1 << digitBits
	digitMask = radix - 1
	maxPhys   = 1<<31 - 1
	// byNodeMin is the fewest entries a dense slot delivers in node order;
	// below it BenchmarkEngineSlot (256 nodes) reads faster in channel order.
	byNodeMin = 4096
)

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
// derived seed — but the action buffer, the sort scratch and the tie-break
// stream's state are kept, so a trial arena resetting an engine between
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
	e.into = true
	for i, p := range nodes {
		if p == nil {
			return fmt.Errorf("sim: protocol for node %d is nil", i)
		}
		_, ok := p.(StepperInto)
		e.into = e.into && ok
	}
	e.asn = asn
	e.nodes = nodes
	e.rand.Reseed(seed, int64(len(nodes)), 0x5e5)
	e.collisions = UniformWinner
	e.slot = 0
	e.obs = nil
	e.ctx = nil
	e.shards = 1
	e.sparseReq = false
	if cap(e.acts) < len(nodes) {
		e.acts = make([]Action, len(nodes))
		e.ids, e.keys, e.win = make([]NodeID, len(nodes)), make([]uint32, len(nodes)), make([]NodeID, len(nodes))
	}
	e.acts = e.acts[:len(nodes)]
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
//   - Both modes need a Fixed assignment: shards call ChannelSet
//     concurrently, and parked listeners cache the physical channel they
//     parked on. Otherwise the engine steps densely and serially.
//   - Observers do not gate sparse stepping: a sparse engine reports the
//     same channel outcomes a dense one would.
//   - Shards clamp to [1, n], and engaged sparse stepping forces one: its
//     wake bookkeeping is single-threaded, and with few awake nodes
//     nothing is worth sharding.
//
// Shard ranges are contiguous and cover [0, n) in order; pend capacity is
// pre-sized to the range width so the first slots do not regrow it node by
// node.
func (e *Engine) configure() {
	n := len(e.nodes)
	fixed := Fixed(e.asn)
	sparse := e.sparseReq && fixed
	s := max(1, min(e.shards, n))
	if !fixed || sparse {
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
			sc.pend = make([]uint64, 0, sc.hi-sc.lo)
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

	// Phase A: collect actions and file them as keyed entries, in node
	// order at any shard count. The sparse scan steps only awake nodes;
	// phase B merges the armed standers and parked listeners back in.
	var err error
	if e.sp.on {
		err = e.scanSparse(slot)
	} else {
		err = e.scanShards(slot)
	}
	if err != nil {
		return err
	}
	if e.sp.on {
		e.mergeStands()
	}

	// Phase B. Fast path: with no broadcaster anywhere there is no feedback
	// to deliver, and with no observer there is nothing to report — skip
	// sorting and channel resolution entirely.
	bcasts := 0
	for i := range e.shardAcc {
		bcasts += e.shardAcc[i].bcasts
	}
	if bcasts > 0 || e.obs != nil {
		e.sortActions()
		e.resolveChannels(slot)
	}
	if e.sp.on {
		e.commitParked()
	}
	return nil
}

// resolveChannels is phase B and the engine's one resolver: it walks the
// sorted channel runs in ascending physical order, resolves each channel
// under the collision model and reports them to the observer. Under
// UniformWinner one broadcaster, drawn uniformly from the engine stream,
// succeeds; the others fail, and they and every listener receive the
// winner's message. Under AllDelivered every broadcaster succeeds, every
// listener receives every message, and the first broadcaster is reported
// as the winner. Under sparse stepping deliveries reach a channel's live
// listeners merged with the listeners parked there, and the parked ones
// that heard something are re-woken; standers broadcasting this slot are
// merged into the broadcasters, not counted as parked listeners; deaf
// nodes and quiet losers are left out of the delivery lists, so the
// delivery loops are the dense engine's own and read no hint. An observed
// sparse slot reports the parked listeners apart from the stepped ones,
// and walks the channels whose only listeners are parked too, in order,
// as the dense scan would have filed them. A dense UniformWinner slot of
// byNodeMin entries or more only records winners (win) for deliverByNode.
func (e *Engine) resolveChannels(slot int) {
	var outcomes []ChannelOutcome
	var pt []int
	sparse := e.sp.on
	byNode := !sparse && e.collisions != AllDelivered && len(e.ids) >= byNodeMin
	if sparse {
		e.sp.pscratch = e.sp.pscratch[:0]
	}
	if e.obs != nil {
		outcomes = e.outScratch[:0]
		if sparse {
			slices.Sort(e.sp.parkedTouch)
			pt = e.sp.parkedTouch
		}
	}
	ids, keys := e.ids, e.keys
	for i := 0; i < len(keys) || len(pt) > 0; {
		ch := -1
		if i < len(keys) {
			ch = int(keys[i] >> 1)
		}
		if len(pt) > 0 && (ch < 0 || pt[0] <= ch) {
			ch = pt[0]
			pt = pt[1:]
		}
		j, k := i, i // broadcast keys are even and sort first
		for ; k < len(keys) && keys[k]>>1 == uint32(ch); k++ {
			j += int(^keys[k] & 1)
		}
		run, bs, live := ids[i:k], ids[i:j:j], ids[j:k:k]
		i = k
		var pk []NodeID
		if sparse && (len(bs) > 0 || e.obs != nil) {
			pk = e.compactParked(slot, ch)
			if len(bs)+len(live)+len(pk) == 0 {
				continue // a parked-touched channel nobody is parked on any more
			}
			pk = e.armed(ch, bs, pk)
		}
		winner := None
		if len(bs) > 0 {
			ls := live
			if len(pk) > 0 || sparse && e.sp.deafHere[ch] {
				ls = e.hearingListeners(live, pk)
			}
			switch {
			case e.collisions == AllDelivered:
				// Footnote-3 semantics: every message goes through.
				winner = bs[0]
				for _, b := range bs {
					e.nodes[b].Deliver(slot, Event{Kind: EvSendSucceeded, From: b, Msg: e.acts[b].Msg, Channel: e.acts[b].Channel})
					e.delivered(b)
				}
				for _, l := range ls {
					for _, b := range bs {
						e.nodes[l].Deliver(slot, Event{Kind: EvReceived, From: b, Msg: e.acts[b].Msg, Channel: e.acts[l].Channel})
						e.delivered(l)
					}
				}
			case byNode:
				winner = bs[e.rand.Intn(len(bs))]
				for _, id := range run {
					e.win[id] = winner
				}
			default:
				winner = bs[e.rand.Intn(len(bs))]
				msg := e.acts[winner].Msg
				hear := bs
				if sparse {
					hear = e.hearingBroadcasters(bs, winner, slot)
				}
				for _, b := range hear {
					kind := EvSendFailed
					if b == winner {
						kind = EvSendSucceeded
					}
					e.nodes[b].Deliver(slot, Event{Kind: kind, From: winner, Msg: msg, Channel: e.acts[b].Channel})
					e.delivered(b)
				}
				for _, l := range ls {
					e.nodes[l].Deliver(slot, Event{Kind: EvReceived, From: winner, Msg: msg, Channel: e.acts[l].Channel})
					e.delivered(l)
				}
			}
			if sparse {
				e.wakeParked(ch, ls, winner)
			}
		}
		if e.obs != nil {
			outcomes = append(outcomes, ChannelOutcome{
				Channel:      ch,
				Broadcasters: bs,
				Winner:       winner,
				Listeners:    live,
				Parked:       pk,
			})
		}
	}
	if byNode {
		e.deliverByNode(slot)
	}
	if e.obs != nil {
		// Keep the (possibly regrown) backing array so the next observed
		// slot appends into it instead of allocating.
		e.outScratch = outcomes
		e.obs.OnSlot(slot, outcomes)
	}
}

// deliverByNode delivers in node order from the shard entry lists, so the
// nodes, their actions and most winners' messages are read in order.
func (e *Engine) deliverByNode(slot int) {
	for i := range e.shardAcc {
		for _, ent := range e.shardAcc[i].pend {
			id := NodeID(uint32(ent))
			w, kind := e.win[id], EvReceived
			switch {
			case w == None:
				continue
			case ent>>32&1 == 1: // a listener
			case w == id:
				kind = EvSendSucceeded
			default:
				kind = EvSendFailed
			}
			e.nodes[id].Deliver(slot, Event{Kind: kind, From: w, Msg: e.acts[w].Msg, Channel: e.acts[id].Channel})
		}
	}
}

// delivered follows every delivery to node id. Only sparse stepping has
// bookkeeping to do (sparseDelivered); a dense engine pays one branch, and
// the function stays small enough to inline, so resolution makes no extra
// call per delivery.
func (e *Engine) delivered(id NodeID) {
	if e.sp.on {
		e.sparseDelivered(id)
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
// node range into a private entry list — shards 1.. on their own
// goroutines, shard 0 (the whole scan when serial) on the caller's — and
// sortActions reads the lists in shard order. Shard ranges partition
// [0, n) in order and each shard files in node order, so the sorted entries
// and phase B (its RNG draws included) do not depend on the shard count. A
// shard stops at its first failing node, so the first failing shard holds
// the lowest failing node and the serial scan's error; nodes past it in
// later shards may already have stepped, but scan errors are fatal to the
// run so no caller observes the difference.
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
	return nil
}

// scanShard steps the nodes of one shard and files their non-idle actions.
// It writes only shard-private state and distinct e.acts elements, so
// shards never contend, and neighbouring shardScans' fields are a
// histogram apart.
func (e *Engine) scanShard(sc *shardScan, slot int) {
	sc.begin()
	for i, hi := sc.lo, sc.hi; i < hi; i++ {
		p := e.nodes[i]
		if p.Done() {
			e.acts[i] = Idle()
			continue
		}
		op, ch := OpIdle, 0
		if e.into {
			a := &e.acts[i]
			p.(StepperInto).StepInto(slot, a)
			op, ch = a.Op, a.Channel
		} else {
			act := p.Step(slot)
			e.acts[i] = act
			op, ch = act.Op, act.Channel
		}
		if op == OpIdle {
			continue
		}
		phys, err := e.physChannel(NodeID(i), slot, ch, op)
		if err != nil {
			sc.err = err
			return
		}
		sc.file(NodeID(i), phys, op)
		e.win[i] = None
	}
}

// physChannel validates node id's non-idle action, op on local channel ch,
// and maps ch to the physical channel. Every scan reports a failing node
// through it, so the error text does not depend on the mode.
func (e *Engine) physChannel(id NodeID, slot, ch int, op Op) (int, error) {
	set := e.asn.ChannelSet(id, slot)
	if ch < 0 || ch >= len(set) {
		return 0, fmt.Errorf("sim: slot %d: node %d chose local channel %d outside [0,%d)",
			slot, id, ch, len(set))
	}
	phys := set[ch]
	if phys < 0 {
		return 0, fmt.Errorf("sim: slot %d: assignment mapped node %d to negative physical channel %d", slot, id, phys)
	}
	if phys > maxPhys {
		return 0, fmt.Errorf("sim: slot %d: assignment mapped node %d to physical channel %d above %d", slot, id, phys, maxPhys)
	}
	if op != OpListen && op != OpBroadcast {
		return 0, fmt.Errorf("sim: slot %d: node %d produced invalid op %d", slot, id, op)
	}
	return phys, nil
}

// begin empties the shard's entries and the histogram slots they reached.
func (sc *shardScan) begin() {
	clear(sc.cnt[:min(sc.maxKey, digitMask)+1])
	sc.pend, sc.maxKey, sc.bcasts, sc.err = sc.pend[:0], 0, 0, nil
}

// file appends node id's validated action on physical channel phys as the
// entry key<<32 | id, keyed phys<<1 for a broadcast and phys<<1|1 for a
// listen. Callers file in node order, which sorting keeps within a key.
func (sc *shardScan) file(id NodeID, phys int, op Op) {
	key := uint64(phys) << 1
	if op == OpListen {
		key |= 1
	} else {
		sc.bcasts++
	}
	sc.maxKey = max(sc.maxKey, key)
	sc.cnt[key&digitMask]++
	sc.pend = append(sc.pend, key<<32|uint64(id))
}

// sortActions sorts the slot's entries stably by key into ids and keys: a
// least-significant-digit radix sort with a pass per digitBits of the
// largest key, the first scattering the shard lists in shard order by
// their summed histograms, each counting the next digit, the last writing
// ids and keys. A slot of a handful of entries, typically a sparse one, is
// insertion-sorted instead, which skips the walks over every bucket.
func (e *Engine) sortActions() {
	var maxKey uint64
	m := 0
	for i := range e.shardAcc {
		maxKey = max(maxKey, e.shardAcc[i].maxKey)
		m += len(e.shardAcc[i].pend)
	}
	e.ids, e.keys = e.ids[:m], e.keys[:m]
	if m <= 16 {
		n := 0
		for i := range e.shardAcc {
			for _, ent := range e.shardAcc[i].pend {
				j := n
				for ; j > 0 && e.keys[j-1] > uint32(ent>>32); j-- {
					e.keys[j], e.ids[j] = e.keys[j-1], e.ids[j-1]
				}
				e.keys[j], e.ids[j] = uint32(ent>>32), NodeID(uint32(ent))
				n++
			}
		}
		return
	}
	for i := range e.shardAcc {
		for d, c := range e.shardAcc[i].cnt[:min(maxKey, digitMask)+1] {
			e.cnt[d] += c
		}
	}
	passes := max(1, (bits.Len64(maxKey)+digitBits-1)/digitBits)
	for p := 0; p < passes; p++ {
		shift, sum := uint(p*digitBits), uint32(0)
		for d := range min(maxKey>>shift, digitMask) + 1 {
			e.off[d], sum, e.cnt[d] = sum, sum+e.cnt[d], 0
		}
		var dst []uint64
		if p < passes-1 {
			if cap(e.spill[p%2]) < m {
				e.spill[p%2] = make([]uint64, len(e.nodes))
			}
			dst = e.spill[p%2][:m]
		}
		if p == 0 {
			for i := range e.shardAcc {
				e.scatter(e.shardAcc[i].pend, dst, 32+shift)
			}
		} else {
			e.scatter(e.spill[(p-1)%2][:m], dst, 32+shift)
		}
	}
}

// scatter moves src's entries to their offsets by the digit at shift: into
// dst, counting the next digit, or, when dst is nil, into ids and keys.
func (e *Engine) scatter(src, dst []uint64, shift uint) {
	off, cnt, ids, keys := &e.off, &e.cnt, e.ids, e.keys
	for _, ent := range src {
		d := ent >> shift & digitMask
		at := off[d]
		off[d] = at + 1
		if dst == nil {
			ids[at], keys[at] = NodeID(uint32(ent)), uint32(ent>>32)
		} else {
			dst[at] = ent
			cnt[ent>>(shift+digitBits)&digitMask]++
		}
	}
}

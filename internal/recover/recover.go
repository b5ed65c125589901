// Package recover wraps a COGCOMP execution in a crash-restart recovery
// supervisor, so aggregation completes correctly even when nodes crash
// and restart mid-protocol (DESIGN.md §7).
//
// The paper's COGCOMP (Section 6) schedules four tightly coupled phases;
// a single missed slot can silently corrupt the census or the mediated
// convergecast (experiment E20 measures exactly that). The supervisor
// restores correctness by structuring the run into epochs, one per phase,
// each ending in a checkpoint of per-node durable state. The durability
// model is WAL-before-use — every protocol fact survives a crash; what a
// crash costs is the slots spent down:
//
//	epoch 1  broadcast   the phase-one log (a WAL; missed slots are
//	                     counted so the rewind stays slot-aligned)
//	epoch 2  census      roster entries, logged on receipt; a restart
//	                     only loses the transient sent-successfully bit,
//	                     so the node re-announces (peers dedup)
//	epoch 3  rewind      collected clusters, logged on receipt
//	epoch 4  convergecast micro-checkpointed: every merge and ack is
//	                     WAL-backed before it is acknowledged, so a
//	                     phase-four restart loses nothing
//
// At each epoch boundary the supervisor checks phase progress against the
// durable ground truth. A deficient epoch is re-executed — bounded retries
// with exponential backoff — by extending the phase window and resetting
// the affected nodes to their last checkpoint. A mediator that dies in
// phase four is re-elected from its channel's census. When the retry
// budget is exhausted the run degrades gracefully: unrecoverable nodes are
// pruned (with their subtrees) and the source reports a partial-census
// aggregate with the explicit Degraded flag set.
//
// The supervisor models a reliable control plane (in deployment terms: a
// coordination service that is failure-isolated from the radios). It reads
// nodes' durable state and applies recovery actions between slots, but
// never injects messages into the radio channel — all on-air behavior is
// still the protocol's own.
//
// Fault-free runs are draw-for-draw identical to the classic
// cogcomp.Run: the supervisor drives the same engine slot loop, every
// boundary check passes, and no recovery action fires. Assignments must be
// static, exactly as for COGCOMP itself.
package recover

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/backoff"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/faults"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

const (
	// DefaultMaxRetries bounds re-executions per epoch (and fruitless
	// stall-recovery rounds in epoch four) when Config.MaxRetries is zero.
	DefaultMaxRetries = 8
	// DefaultBackoff is the initial backoff gap in slots before an epoch
	// retry; it doubles per retry of the same epoch.
	DefaultBackoff = 8
	// maxBackoffGap caps the exponential backoff.
	maxBackoffGap = 4096
)

// Config configures a recovered COGCOMP run. The zero value computes a sum
// fault-free with default budgets.
//
// The embedded cogcomp.Config carries the COGCOMP settings, which the
// supervisor hands to cogcomp.Arena.Prepare with these differences:
//
//   - MaxSlots bounds the whole execution including retries. Zero picks a
//     budget covering the full retry schedule: every epoch re-executed to
//     cogcomp.DefaultMaxSlots, plus the capped backoff gaps. Exhausting it
//     does not fail the run: the supervisor gives up and reports Stalled.
//   - Sparse is ignored: the supervisor always steps densely, because it
//     rewrites node state between slots (Hold, ResetCensus, MarkOwnSent,
//     AssumeMediator), which would break the promise of a parked node.
//   - Shards is forced to 1 when Schedule and Trace are both set: crashers
//     emit fault and restart events from inside Step, and a sharded scan
//     would interleave them nondeterministically in the trace.
//   - Trace additionally receives the recovery event stream: epoch starts,
//     per-node checkpoints, retries, mediator re-elections and node
//     restarts, interleaved with the usual COGCOMP events.
//   - Check additionally arms the recovery-safety checks: no duplicate
//     contribution after a retry, and checkpoint-log monotonicity.
//   - Observer pairs with an adversarial Schedule to close a reactive
//     adversary's loop over the supervised run.
//   - A done Context propagates as an error wrapped with the supervisor's
//     slot accounting, unlike slot-budget exhaustion, which the
//     supervisor absorbs into a Stalled result.
type Config struct {
	cogcomp.Config
	// Schedule, when non-nil, injects crash-restart faults: every node is
	// wrapped in a faults.Crasher with WithRestart, so outages cost missed
	// slots and force recovery per the durability model above. Nil runs
	// fault-free.
	Schedule faults.Schedule
	// MaxRetries bounds re-executions per epoch. Zero means
	// DefaultMaxRetries.
	MaxRetries int
}

// Result reports one recovered COGCOMP execution. The embedded
// cogcomp.Result holds what the classic runner reports, read with the
// supervisor's meanings: Value covers only Contributors when Degraded and
// carries no guarantee when Stalled; Complete also requires that no node
// was pruned and the run did not stall; Phase1Slots to Phase4Slots include
// retry extensions and backoff gaps; Mediators counts the nodes holding the
// mediator role at termination.
type Result struct {
	cogcomp.Result
	// Degraded reports that recovery could not restore full participation:
	// some nodes were pruned (or the run stalled) and Value is a
	// partial-census aggregate.
	Degraded bool
	// Stalled reports that phase four stopped making progress and the
	// retry budget ran out; Contributors is nil because the supervisor can
	// no longer vouch for the merge set.
	Stalled bool
	// Contributors lists the nodes whose inputs Value aggregates, in
	// ascending id order (all n when Complete; nil when Stalled).
	Contributors []sim.NodeID
	// Retries counts epoch re-executions and stall-recovery rounds.
	Retries int
	// Reelections counts mediator re-elections.
	Reelections int
	// Restarts counts node crash-restarts (zero fault-free).
	Restarts int
	// DownSlots sums the slots nodes spent offline.
	DownSlots int
	// Pruned counts nodes removed by graceful degradation.
	Pruned int
}

// Arena holds the reusable pieces of a recovered execution so repeated
// trials avoid rebuilding nodes and engine. The zero value is ready to
// use. Not safe for concurrent use; parallel trial runners keep one per
// worker.
type Arena struct {
	comp     cogcomp.Arena
	crashers []*faults.Crasher
	pruned   []bool
	ckpts    []invariant.Checkpoint
	gen      int
	groups   [][]sim.NodeID
	scratch  []sim.NodeID
	inGroup  []int // node -> stamp of the last group censusCovers marked it in
	stamp    int
}

// run is the per-execution supervisor state.
type run struct {
	a      *Arena
	cfg    Config
	asn    sim.Assignment
	source sim.NodeID
	inputs []int64
	nodes  []*cogcomp.Node
	eng    *sim.Engine
	f      aggfunc.Func

	n, l       int
	maxSlots   int
	maxRetries int

	p1end, p2end, p3end int // epoch boundaries, moved by retries

	retries, reelections int
	degraded, stalled    bool
	srcDoneSlot          int
}

// Run executes COGCOMP under the recovery supervisor, reusing the arena.
func (a *Arena) Run(asn sim.Assignment, source sim.NodeID, inputs []int64, seed int64, cfg Config) (*Result, error) {
	n := asn.Nodes()
	var wrap func(sim.NodeID, *cogcomp.Node) sim.Protocol
	if cfg.Schedule != nil {
		if cap(a.crashers) < n {
			a.crashers = make([]*faults.Crasher, n)
		}
		a.crashers = a.crashers[:n]
		wrap = func(id sim.NodeID, nd *cogcomp.Node) sim.Protocol {
			c := faults.Wrap(nd, id, cfg.Schedule, faults.WithTrace(cfg.Trace), faults.WithRestart())
			a.crashers[id] = c
			return c
		}
	} else {
		a.crashers = a.crashers[:0]
	}
	ccfg := cfg.Config
	// The supervisor rewrites node state between slots, which would break
	// a parked node's promise, so supervised runs step densely.
	ccfg.Sparse = false
	if cfg.Schedule != nil && cfg.Trace != nil {
		// Traced fault runs must stay serial: crashers emit fault/restart
		// events from inside Step, and a sharded scan would interleave them
		// nondeterministically in the trace.
		ccfg.Shards = 1
	}
	nodes, eng, l, err := a.comp.Prepare(asn, source, inputs, seed, ccfg, wrap)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	f := cfg.Func
	if f == nil {
		f = aggfunc.Sum{}
	}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	}
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		// Cover the full retry schedule: every epoch re-executed to the
		// budget, plus the capped backoff gaps.
		maxSlots = (maxRetries+4)*cogcomp.DefaultMaxSlots(n, l) + 3*maxBackoffGap
	}
	if cap(a.pruned) < n {
		a.pruned = make([]bool, n)
	}
	a.pruned = a.pruned[:n]
	for i := range a.pruned {
		a.pruned[i] = false
	}
	if cap(a.inGroup) < n {
		a.inGroup = make([]int, n)
	}
	a.inGroup = a.inGroup[:n]
	clear(a.inGroup)
	a.stamp = 0
	a.ckpts = a.ckpts[:0]
	a.gen = 0

	r := &run{
		a: a, cfg: cfg, asn: asn, source: source, inputs: inputs,
		nodes: nodes, eng: eng, f: f,
		n: n, l: l, maxSlots: maxSlots,
		maxRetries:  maxRetries,
		p1end:       l,
		srcDoneSlot: -1,
	}
	if err := r.supervise(); err != nil {
		return nil, err
	}
	return r.finish()
}

// Run executes one recovered COGCOMP run with a fresh arena.
func Run(asn sim.Assignment, source sim.NodeID, inputs []int64, seed int64, cfg Config) (*Result, error) {
	return new(Arena).Run(asn, source, inputs, seed, cfg)
}

// supervise drives the engine through the four epochs. A sim.ErrMaxSlots
// anywhere turns into a stalled (not failed) run; a *sim.Interrupted
// (context cancel or deadline) is a real error and propagates wrapped, so
// callers can still errors.As it out.
func (r *run) supervise() error {
	for _, epoch := range []func() error{r.epoch1, r.epoch2, r.epoch3, r.epoch4} {
		if err := epoch(); err != nil {
			if err == sim.ErrMaxSlots {
				r.stalled = true
				return nil
			}
			if errors.As(err, new(*sim.Interrupted)) { // it names the count
				return fmt.Errorf("recover: %w (l=%d n=%d)", err, r.l, r.n)
			}
			return fmt.Errorf("recover: %w (after %d slots; l=%d n=%d)", err, r.eng.Slot(), r.l, r.n)
		}
		if r.stalled {
			return nil
		}
	}
	return nil
}

// --- Engine plumbing ---------------------------------------------------------

func (r *run) emit(ev trace.Event) {
	if r.cfg.Trace != nil {
		r.cfg.Trace.Emit(ev)
	}
}

// runUntil advances the engine to the boundary slot (exclusive), stopping
// early if every node terminated.
func (r *run) runUntil(until int) error {
	for r.eng.Slot() < until && !r.eng.AllDone() {
		if r.eng.Slot() >= r.maxSlots {
			return sim.ErrMaxSlots
		}
		if err := r.eng.RunSlot(); err != nil {
			return err
		}
		if r.srcDoneSlot < 0 && r.nodes[r.source].Done() {
			r.srcDoneSlot = r.eng.Slot()
		}
	}
	return nil
}

// gap returns the backoff gap for the attempt-th retry (0-based).
func (r *run) gap(attempt int) int {
	return backoff.RetryGap(DefaultBackoff, attempt, maxBackoffGap)
}

// phys returns the physical channel an informed non-source node censuses
// on. Valid for static assignments only (COGCOMP's own requirement).
func (r *run) phys(id sim.NodeID) int {
	return r.asn.ChannelSet(id, 0)[r.nodes[id].InformedChannel()]
}

// down reports whether the node is currently crashed.
func (r *run) down(id sim.NodeID) bool {
	return len(r.a.crashers) > 0 && r.a.crashers[id] != nil && r.a.crashers[id].Down()
}

// commit checkpoints every surviving participant at an epoch boundary.
func (r *run) commit(epoch int) {
	r.a.gen++
	slot := r.eng.Slot()
	for i, nd := range r.nodes {
		if r.a.pruned[i] || !nd.Informed() {
			continue
		}
		r.a.ckpts = append(r.a.ckpts, invariant.Checkpoint{
			Node: sim.NodeID(i), Epoch: epoch, Gen: r.a.gen, Slot: slot,
		})
		r.emit(trace.CheckpointEvent(slot, i, epoch, r.a.gen))
	}
}

// --- Epoch 1: broadcast ------------------------------------------------------

func (r *run) informedCount() int {
	informed := 0
	for _, nd := range r.nodes {
		if nd.Informed() {
			informed++
		}
	}
	return informed
}

// epoch1 runs phase one, extending the window while nodes remain
// uninformed. The phase-one log is the WAL: crashed nodes count missed
// slots and resume logging, so the eventual rewind stays slot-aligned.
func (r *run) epoch1() error {
	r.emit(trace.PhaseEvent(0, 1, r.l))
	r.emit(trace.EpochEvent(0, 1, r.l))
	for attempt := 0; ; attempt++ {
		if err := r.runUntil(r.p1end); err != nil {
			return err
		}
		if r.informedCount() == r.n || attempt >= r.maxRetries {
			break
		}
		r.retries++
		r.emit(trace.RetryEvent(r.eng.Slot(), 1, attempt+1))
		for _, nd := range r.nodes {
			nd.ExtendPhase1(r.l)
		}
		r.p1end += r.l
	}
	if r.informedCount() < r.n {
		// Unreachable nodes withdraw on their own in phase two; the run is
		// degraded but the informed subtree still aggregates.
		r.degraded = true
	}
	r.p2end = r.p1end + r.n
	r.commit(1)
	return nil
}

// --- Epoch 2: census ---------------------------------------------------------

// censusGroups rebuilds the per-physical-channel groups of surviving
// informed non-source nodes.
func (r *run) censusGroups() {
	c := r.asn.Channels()
	if cap(r.a.groups) < c {
		r.a.groups = make([][]sim.NodeID, c)
	}
	r.a.groups = r.a.groups[:c]
	for ch := range r.a.groups {
		r.a.groups[ch] = r.a.groups[ch][:0]
	}
	for i, nd := range r.nodes {
		if sim.NodeID(i) == r.source || r.a.pruned[i] || !nd.Informed() {
			continue
		}
		ch := r.phys(sim.NodeID(i))
		r.a.groups[ch] = append(r.a.groups[ch], sim.NodeID(i))
	}
}

// censusCovers reports whether id's roster holds a correct entry for every
// group member the keep filter accepts. It stamps the group's members
// first, so each roster entry is looked up once: O(m) per call for a group
// of m, where a scan of the group per entry would be O(m²). Group ids are
// unique, so an entry matches at most one member either way.
func (r *run) censusCovers(id sim.NodeID, group []sim.NodeID, keep func(sim.NodeID) bool) bool {
	r.a.stamp++
	matched := 0
	want := 0
	for _, gid := range group {
		r.a.inGroup[gid] = r.a.stamp
		if keep == nil || keep(gid) {
			want++
		}
	}
	r.nodes[id].RosterSnapshot(func(rid sim.NodeID, rr int) {
		if rid >= 0 && int(rid) < len(r.a.inGroup) && r.a.inGroup[rid] == r.a.stamp &&
			(keep == nil || keep(rid)) && r.nodes[rid].InformedSlot() == rr {
			matched++
		}
	})
	return matched == want
}

// censusDeficient returns the channels whose census did not complete: some
// member has not succeeded its broadcast, or rosters disagree with the
// durable membership. Rebuilds the channel groups as a side effect.
func (r *run) censusDeficient() []int {
	r.censusGroups()
	var out []int
	for ch, group := range r.a.groups {
		if len(group) == 0 {
			continue
		}
		for _, id := range group {
			if !r.nodes[id].CensusDone() || !r.censusCovers(id, group, nil) {
				out = append(out, ch)
				break
			}
		}
	}
	return out
}

// epoch2 runs the census, re-executing it on deficient channels: the
// supervisor holds the network quiet for a backoff gap, resets the
// channel's nodes to their epoch-1 checkpoint (roster wiped, broadcast
// re-armed), and extends the census window. Exhausting the budget prunes
// the nodes that cannot be restored, plus their subtrees.
func (r *run) epoch2() error {
	r.emit(trace.PhaseEvent(r.p1end, 2, r.n))
	r.emit(trace.EpochEvent(r.p1end, 2, r.n))
	for attempt := 0; ; attempt++ {
		if err := r.runUntil(r.p2end); err != nil {
			return err
		}
		deficient := r.censusDeficient()
		if len(deficient) == 0 {
			break
		}
		if attempt >= r.maxRetries {
			r.pruneCensus(deficient)
			break
		}
		r.retries++
		r.emit(trace.RetryEvent(r.eng.Slot(), 2, attempt+1))
		gap := r.gap(attempt)
		for _, ch := range deficient {
			for _, id := range r.a.groups[ch] {
				r.nodes[id].ResetCensus()
			}
		}
		for _, nd := range r.nodes {
			nd.Hold(r.p2end + gap)
			nd.ExtendCensus(gap + r.n)
		}
		r.p2end += gap + r.n
	}
	r.p3end = r.p2end + r.p1end
	r.commit(2)
	return nil
}

// pruneCensus removes, per deficient channel, the members outside the
// greatest fixpoint of "census complete among the kept set", then cascades
// to their subtrees and scrubs survivors' rosters so phase three derives a
// consistent (smaller) cluster structure.
func (r *run) pruneCensus(deficient []int) {
	for _, ch := range deficient {
		group := r.a.groups[ch]
		kept := func(id sim.NodeID) bool { return !r.a.pruned[id] }
		for changed := true; changed; {
			changed = false
			for _, id := range group {
				if r.a.pruned[id] {
					continue
				}
				if !r.nodes[id].CensusDone() || !r.censusCovers(id, group, kept) {
					r.a.pruned[id] = true
					changed = true
				}
			}
		}
	}
	r.cascadePrune()
	for i := range r.nodes {
		if !r.a.pruned[i] {
			continue
		}
		r.nodes[i].Withdraw()
		for j, nd := range r.nodes {
			if !r.a.pruned[j] {
				nd.DropRosterEntry(sim.NodeID(i))
			}
		}
	}
	r.degraded = true
}

// cascadePrune extends the pruned set to every descendant of a pruned
// node: their contributions would have routed through it.
func (r *run) cascadePrune() {
	for changed := true; changed; {
		changed = false
		for i, nd := range r.nodes {
			if r.a.pruned[i] || sim.NodeID(i) == r.source || !nd.Informed() {
				continue
			}
			if p := nd.Parent(); p != sim.None && r.a.pruned[p] {
				r.a.pruned[i] = true
				changed = true
			}
		}
	}
}

// --- Epoch 3: rewind ---------------------------------------------------------

// rewindCluster is one (informer, phase-one slot) cluster as derived from
// the nodes' durable state.
type rewindCluster struct {
	informer sim.NodeID
	r        int
	members  []sim.NodeID
}

// rewindClusters derives the expected cluster structure from the durable
// tree: surviving informed nodes grouped by (parent, informed slot), in
// ascending order of informer, then slot, then member. The children are
// listed in one pass in ascending id order, and a stable sort by parent
// and informed slot lays each cluster out as one run of them.
func (r *run) rewindClusters() []rewindCluster {
	var kids []sim.NodeID
	for j, nd := range r.nodes {
		if r.a.pruned[j] || sim.NodeID(j) == r.source || !nd.Informed() {
			continue
		}
		p := nd.Parent()
		if p < 0 || int(p) >= r.n || int(p) == j || r.a.pruned[p] || !r.nodes[p].Informed() {
			continue
		}
		kids = append(kids, sim.NodeID(j))
	}
	parent := func(id sim.NodeID) sim.NodeID { return r.nodes[id].Parent() }
	slot := func(id sim.NodeID) int { return r.nodes[id].InformedSlot() }
	slices.SortStableFunc(kids, func(a, b sim.NodeID) int {
		return cmp.Or(cmp.Compare(parent(a), parent(b)), cmp.Compare(slot(a), slot(b)))
	})
	var out []rewindCluster
	for len(kids) > 0 {
		p, r0, m := parent(kids[0]), slot(kids[0]), 1
		for m < len(kids) && parent(kids[m]) == p && slot(kids[m]) == r0 {
			m++
		}
		out = append(out, rewindCluster{informer: p, r: r0, members: kids[:m:m]})
		kids = kids[m:]
	}
	return out
}

// deficientClusters returns the clusters whose informer is missing a
// correctly sized collected entry.
func (r *run) deficientClusters(clusters []rewindCluster) []rewindCluster {
	var out []rewindCluster
	for _, cl := range clusters {
		ok := false
		r.nodes[cl.informer].CollectedSnapshot(func(cr, _, size int) {
			if cr == cl.r && size == len(cl.members) {
				ok = true
			}
		})
		if !ok {
			out = append(out, cl)
		}
	}
	return out
}

// epoch3 runs the rewind, re-anchoring and replaying it while informers
// are missing clusters. Exhausting the budget prunes the orphaned
// clusters and re-elects mediators their pruning invalidated.
func (r *run) epoch3() error {
	r.emit(trace.PhaseEvent(r.p2end, 3, r.p1end))
	r.emit(trace.EpochEvent(r.p2end, 3, r.p1end))
	for attempt := 0; ; attempt++ {
		if err := r.runUntil(r.p3end); err != nil {
			return err
		}
		deficient := r.deficientClusters(r.rewindClusters())
		if len(deficient) == 0 {
			break
		}
		if attempt >= r.maxRetries {
			r.pruneRewind(deficient)
			break
		}
		r.retries++
		r.emit(trace.RetryEvent(r.eng.Slot(), 3, attempt+1))
		// Re-anchor the rewind past a backoff gap: slots before the new
		// base map out of range and nodes idle through them, so the gap
		// needs no explicit hold.
		base := r.p3end + r.gap(attempt)
		for _, nd := range r.nodes {
			if !nd.Done() {
				nd.RetryRewind(base)
			}
		}
		r.p3end = base + r.p1end
	}
	r.commit(3)
	return nil
}

// pruneRewind drops the orphaned clusters: members withdrawn (with their
// subtrees), the informer's stale entry removed, mediator schedules
// scrubbed, and dead mediator roles re-elected.
func (r *run) pruneRewind(deficient []rewindCluster) {
	was := append([]bool(nil), r.a.pruned...)
	for _, cl := range deficient {
		for _, id := range cl.members {
			r.a.pruned[id] = true
		}
		if !r.a.pruned[cl.informer] {
			r.nodes[cl.informer].DropCollected(cl.r)
		}
	}
	r.cascadePrune()
	for i := range r.nodes {
		if !r.a.pruned[i] || was[i] {
			continue
		}
		r.nodes[i].Withdraw()
		for j, nd := range r.nodes {
			if !r.a.pruned[j] && nd.IsMediator() {
				nd.DropMedMember(sim.NodeID(i))
			}
		}
	}
	r.reelectMediators()
	r.degraded = true
}

// --- Epoch 4: convergecast ---------------------------------------------------

// epoch4 runs the convergecast to completion under a no-progress detector:
// when a window passes without any node advancing, the supervisor
// reconciles lost acks against parents' durable merge logs and re-elects
// mediators for channels left without one. MaxRetries fruitless rounds in
// a row end the run as Stalled.
func (r *run) epoch4() error {
	r.emit(trace.PhaseEvent(r.p3end, 4, 0))
	r.emit(trace.EpochEvent(r.p3end, 4, 0))
	window := 3 * r.n
	if window < 24 {
		window = 24
	}
	last := -1
	strikes := 0
	for {
		if r.eng.AllDone() {
			break
		}
		if r.srcDoneSlot >= 0 && r.eng.Slot() >= r.srcDoneSlot+3 {
			// The source holds its final aggregate; only zombie helpers
			// remain (e.g. permanently crashed nodes that cannot hear
			// their ack). The run's outcome is decided.
			break
		}
		if r.eng.Slot() >= r.maxSlots {
			r.stalled = true
			break
		}
		target := r.eng.Slot() + window
		if err := r.runUntil(target); err != nil {
			return err
		}
		prog := 0
		for _, nd := range r.nodes {
			prog += nd.Progress()
		}
		if prog > last {
			last = prog
			strikes = 0
			continue
		}
		strikes++
		if strikes > r.maxRetries {
			r.stalled = true
			break
		}
		r.retries++
		r.emit(trace.RetryEvent(r.eng.Slot(), 4, strikes))
		r.reconcileAcks()
		r.reelectMediators()
	}
	if r.stalled {
		r.degraded = true
	}
	r.commit(4)
	return nil
}

// reconcileAcks repairs lost phase-four acknowledgements against the
// durable ground truth: a parent's merge log (WAL-backed before the ack is
// sent) proves delivery, so a sender whose ack was lost is marked sent and
// its mediator's pending set is settled — without re-merging anything.
func (r *run) reconcileAcks() {
	for i, nd := range r.nodes {
		if sim.NodeID(i) == r.source || r.a.pruned[i] || nd.Done() || !nd.Informed() || nd.OwnSent() {
			continue
		}
		if p := nd.Parent(); p != sim.None && r.nodes[p].HasMerged(sim.NodeID(i)) {
			nd.MarkOwnSent()
		}
	}
	for _, nd := range r.nodes {
		if nd.MedRemaining() == 0 {
			continue
		}
		r.a.scratch = r.a.scratch[:0]
		nd.MedPending(func(id sim.NodeID) { r.a.scratch = append(r.a.scratch, id) })
		sort.Slice(r.a.scratch, func(x, y int) bool { return r.a.scratch[x] < r.a.scratch[y] })
		for _, id := range r.a.scratch {
			p := r.nodes[id].Parent()
			if r.a.pruned[id] || (p != sim.None && r.nodes[p].HasMerged(id)) {
				nd.MarkMedAcked(id)
			}
		}
	}
}

// reelectMediators restores coordination on channels that still have
// members awaiting their turn but whose mediator is dead or was never
// established (a node down through all of phase three never elects
// itself). The replacement — the smallest live census-complete id on the
// channel — rebuilds the schedule from its own durable roster and
// fast-forwards past clusters already acknowledged.
func (r *run) reelectMediators() {
	r.censusGroups()
	for ch, group := range r.a.groups {
		needed := false
		for _, id := range group {
			if !r.nodes[id].Done() && !r.nodes[id].OwnSent() {
				needed = true
				break
			}
		}
		if !needed {
			continue
		}
		med := sim.None
		for _, id := range group {
			if r.nodes[id].IsMediator() {
				med = id
				break
			}
		}
		if med != sim.None && !r.down(med) {
			continue // alive; reconciliation or plain retries will progress
		}
		repl := sim.None
		for _, id := range group { // ascending id: smallest wins
			if id == med || r.down(id) || r.nodes[id].Done() || !r.nodes[id].CensusDone() {
				continue
			}
			repl = id
			break
		}
		if repl == sim.None {
			continue
		}
		old := -1
		if med != sim.None {
			old = int(med)
			r.nodes[med].Demote()
		}
		r.nodes[repl].AssumeMediator(
			func(id sim.NodeID) bool { return r.nodes[id].OwnSent() },
			func(id sim.NodeID) bool { return r.a.pruned[id] },
		)
		r.reelections++
		r.emit(trace.ReelectEvent(r.eng.Slot(), ch, int(repl), old))
	}
}

// --- Result assembly ---------------------------------------------------------

func (r *run) finish() (*Result, error) {
	total := r.eng.Slot()
	res := &Result{
		Result:      cogcomp.Result{TotalSlots: total, Phase1Slots: r.p1end},
		Retries:     r.retries,
		Reelections: r.reelections,
		Stalled:     r.stalled,
		Degraded:    r.degraded,
	}
	if r.p2end > 0 {
		res.Phase2Slots = r.p2end - r.p1end
	}
	if r.p3end > 0 {
		res.Phase3Slots = r.p3end - r.p2end
		if res.Phase4Slots = total - r.p3end; res.Phase4Slots < 0 {
			res.Phase4Slots = 0
		}
	}
	r.a.comp.Tally(&res.Result, r.source)
	informed := res.InformedAfterPhase1
	for _, pruned := range r.a.pruned {
		if pruned {
			res.Pruned++
		}
	}
	res.Complete = informed == r.n && res.Pruned == 0 && !r.stalled
	if !r.stalled {
		for i, nd := range r.nodes {
			if nd.Informed() && !r.a.pruned[i] {
				res.Contributors = append(res.Contributors, sim.NodeID(i))
			}
		}
	}
	for _, c := range r.a.crashers {
		res.Restarts += c.Restarts()
		res.DownSlots += c.DownSlots()
	}
	r.emit(trace.CensusEvent(total, informed, res.Mediators))

	if r.cfg.Check {
		if err := r.check(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check runs the invariant oracle verdicts plus the recovery-safety
// checks over the finished run.
func (r *run) check(res *Result) error {
	if err := r.a.comp.CheckRun(&res.Result, r.source); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if res.Complete {
		if err := invariant.CheckCensus(r.n, r.asn.Channels(), res.InformedAfterPhase1, res.Mediators, true); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}
	if !res.Stalled {
		if err := invariant.CheckContribution(r.f, r.inputs, res.Contributors, res.Value); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}
	if err := invariant.CheckCheckpointLog(r.a.ckpts); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	return nil
}

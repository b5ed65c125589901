package sim

// Event-driven ("sparse") stepping. WithSparse lets the engine skip Step
// calls for nodes that declared themselves dormant through Action.Sleep
// hints, so a slot costs O(awake + deliveries) instead of Θ(n). The mode
// exists for long quiescent phases — COGCOMP's sequential census leaves
// almost every node silently parked for Θ(n) slots — and sparse executions
// are byte-identical to dense ones:
//
//   - Dormant nodes draw no RNG and change no state (the Action.Sleep
//     contract), so the engine's tie-break stream and every per-node
//     stream advance exactly as they would densely.
//   - Parked listeners stay in their channel's delivery set: any broadcast
//     there reaches them through the same node-ascending order the dense
//     bucket would have produced, and re-wakes them eagerly — the next
//     slot steps them again.
//
// When the mode engages is Engine.configure's call. The wake queue is a
// binary min-heap over packed (slot, node) entries plus per-channel
// parked-listener lists; all of it is pre-sized at Reset, so a warm sparse
// slot allocates nothing.

import "slices"

// WithSparse requests event-driven stepping: the engine honors Action.Sleep
// dormancy hints and scans only awake nodes each slot. Executions are
// byte-identical to the dense engine — transcripts, RNG draw order, error
// strings and traces included — because dormant nodes neither act nor draw
// randomness and every delivery re-wakes its target. The engine silently
// falls back to dense stepping as Engine.configure describes; Sparse()
// reports the effective mode.
func WithSparse() Option {
	return func(e *Engine) { e.sparseReq = true }
}

// Wake-heap entries pack (wake slot << wakeNodeBits) | node into an int64,
// so heap order is slot-major with node-ascending ties — deterministic.
const (
	wakeNodeBits   = 22
	wakeNodeMask   = 1<<wakeNodeBits - 1
	maxSparseNodes = 1 << wakeNodeBits
)

// sparseState is the wake-queue bookkeeping of the event-driven scan. All
// slices are pre-sized by resetSparse and reused across slots and Resets.
type sparseState struct {
	on      bool // sparse stepping engaged (after configure's gating)
	notDone int  // nodes whose Done has not been observed true

	awake     []int32 // sorted ids stepped every slot
	awakeNext []int32 // next slot's awake list (scratch)
	woken     []int32 // ids re-woken this slot (timers + deliveries)

	retired     []bool  // per node: Done observed (counted out of notDone)
	wakeAt      []int64 // per node: pending heap entry, -1 = none
	pushed      []int64 // per node: last entry pushed and not yet popped
	parkedPhys  []int32 // per node: phys channel while park-listening, -1 = not parked
	parkedAt    []int   // per node: slot of the last parkListen
	parkedQuiet []bool  // per node: the park is delivery-proof (Action.Quiet)

	heap        []int64    // binary min-heap of packed wake entries
	newlyParked []int32    // listeners parked this slot, committed after phase B
	parked      [][]NodeID // phys channel -> parked listeners (exact unless stale or dirty)
	parkedDirty []bool     // phys channel -> parked list needs sorting
	parkedStale []bool     // phys channel -> a listed node was woken or retired
	parkedSeen  []bool     // phys channel -> appears in parkedTouched
	parkedTouch []int      // channels with parked entries since Reset
	lscratch    []NodeID   // merged live+parked listener scratch
}

// Sparse reports whether event-driven stepping is engaged: WithSparse was
// requested and survived configure's gating.
func (e *Engine) Sparse() bool { return e.sp.on }

// resetSparse (re)builds the wake-queue state for the engine's nodes: every
// node starts awake, unparked and with no pending timer.
func (e *Engine) resetSparse() {
	sp := &e.sp
	n := len(e.nodes)
	if cap(sp.awake) < n {
		sp.awake = make([]int32, 0, n)
	}
	if cap(sp.awakeNext) < n {
		sp.awakeNext = make([]int32, 0, n)
	}
	if cap(sp.woken) < n {
		sp.woken = make([]int32, 0, n)
	}
	if cap(sp.newlyParked) < n {
		sp.newlyParked = make([]int32, 0, n)
	}
	if cap(sp.heap) < n {
		sp.heap = make([]int64, 0, n)
	}
	if cap(sp.lscratch) < n {
		sp.lscratch = make([]NodeID, 0, n)
	}
	if cap(sp.retired) < n {
		sp.retired = make([]bool, n)
		sp.wakeAt = make([]int64, n)
		sp.pushed = make([]int64, n)
		sp.parkedPhys = make([]int32, n)
		sp.parkedAt = make([]int, n)
		sp.parkedQuiet = make([]bool, n)
	}
	sp.retired = sp.retired[:n]
	sp.wakeAt = sp.wakeAt[:n]
	sp.pushed = sp.pushed[:n]
	sp.parkedPhys = sp.parkedPhys[:n]
	sp.parkedAt = sp.parkedAt[:n]
	sp.parkedQuiet = sp.parkedQuiet[:n]
	sp.awake = sp.awake[:0]
	sp.woken = sp.woken[:0]
	sp.newlyParked = sp.newlyParked[:0]
	sp.heap = sp.heap[:0]
	sp.notDone = 0
	for i, p := range e.nodes {
		done := p.Done()
		sp.awake = append(sp.awake, int32(i))
		sp.retired[i] = done
		if !done {
			sp.notDone++
		}
		sp.wakeAt[i] = -1
		sp.pushed[i] = -1
		sp.parkedPhys[i] = -1
		sp.parkedAt[i] = -1
		sp.parkedQuiet[i] = false
	}
	for _, ch := range sp.parkedTouch {
		sp.parked[ch] = sp.parked[ch][:0]
		sp.parkedDirty[ch] = false
		sp.parkedStale[ch] = false
		sp.parkedSeen[ch] = false
	}
	sp.parkedTouch = sp.parkedTouch[:0]
	e.growParked(len(e.bcast))
}

// growParked extends the per-channel parked-listener scratch alongside the
// dense channel scratch. Kept separate from growScratch so dense engines
// over huge channel spaces pay nothing for it.
func (e *Engine) growParked(n int) {
	sp := &e.sp
	if short := n - len(sp.parked); short > 0 {
		sp.parked = append(sp.parked, make([][]NodeID, short)...)
		sp.parkedDirty = append(sp.parkedDirty, make([]bool, short)...)
		sp.parkedStale = append(sp.parkedStale, make([]bool, short)...)
		sp.parkedSeen = append(sp.parkedSeen, make([]bool, short)...)
	}
}

// scanSparse is the event-driven phase-A scan: merge the standing awake
// list with this slot's re-woken nodes in ascending node order and step
// exactly those, validating and bucketing as the dense scan does. Dormant
// nodes were validated when they parked and their (unchanged, per the
// Sleep contract) actions stay valid under a Fixed assignment, so
// the first failing node among awake nodes is the first failing node
// overall — error strings match the dense scan's.
func (e *Engine) scanSparse(slot int) error {
	sp := &e.sp
	for len(sp.heap) > 0 {
		top := sp.heap[0]
		if int(top>>wakeNodeBits) > slot {
			break
		}
		e.popWake()
		v := int32(top & wakeNodeMask)
		if sp.pushed[v] == top {
			sp.pushed[v] = -1
		}
		if sp.wakeAt[v] == top {
			e.wakeNode(v)
		}
	}
	wk := sp.woken
	slices.Sort(wk)
	aw := sp.awake
	next := sp.awakeNext[:0]
	i, j := 0, 0
	for i < len(aw) || j < len(wk) {
		var v int32
		if j >= len(wk) || (i < len(aw) && aw[i] < wk[j]) {
			v = aw[i]
			i++
		} else {
			v = wk[j]
			j++
		}
		if sp.retired[v] {
			continue
		}
		p := e.nodes[v]
		if p.Done() {
			e.retireNode(v)
			continue
		}
		act := p.Step(slot)
		e.acts[v] = act
		// Done flipping inside Step retires the node now, but its action
		// still resolves this slot: the dense engine steps first and skips
		// only from the next slot on.
		live := !p.Done()
		if !live {
			e.retireNode(v)
		}
		phys := -1
		if act.Op != OpIdle {
			var err error
			if phys, err = e.physChannel(NodeID(v), slot, act); err != nil {
				return err
			}
			e.bucket(NodeID(v), phys, act.Op)
		}
		switch {
		case !live:
		case act.Sleep <= 0 || act.Op == OpBroadcast:
			next = append(next, v)
		case act.Op == OpIdle:
			e.parkIdle(v, slot, act.Sleep)
		default:
			e.parkListen(v, phys, slot, act.Sleep, act.Quiet)
		}
	}
	sp.awake, sp.awakeNext = next, sp.awake
	sp.woken = sp.woken[:0]
	return nil
}

// wakeParked runs after a channel's deliveries to its listeners ls (live
// and parked, as mergedListeners built them): every parked listener that
// heard something is re-woken unless its park is quiet. The channel's
// parked list is left as it was, so the observer sees the pre-delivery
// parked set; the wakes (and any retirement a delivery caused) mark it
// stale, and the next compactParked drops them.
func (e *Engine) wakeParked(ls []NodeID) {
	sp := &e.sp
	for _, l := range ls {
		if sp.parkedPhys[l] >= 0 && !sp.parkedQuiet[l] {
			e.wakeNode(int32(l))
		}
	}
}

// sparseDelivered is the sparse bookkeeping of one delivery: it keeps the
// notDone count exact, because a delivery may flip a protocol's Done
// (state-based termination) and the dense Run loop would observe that
// after this very slot.
func (e *Engine) sparseDelivered(id NodeID) {
	if !e.sp.retired[id] && e.nodes[id].Done() {
		e.retireNode(int32(id))
	}
}

// retireNode marks a node's termination as observed: it is counted out of
// notDone once and never stepped again. Sparse stepping requires Done to
// be monotonic (true for every protocol in this repository outside the
// recovery supervisor, which always runs dense).
func (e *Engine) retireNode(v int32) {
	e.sp.retired[v] = true
	e.sp.notDone--
	e.staleParked(v)
}

// wakeNode returns a dormant node to the stepped set: its pending timer is
// invalidated, its parked entry (if any) goes stale, and it is stepped
// again from the next scan on.
func (e *Engine) wakeNode(v int32) {
	sp := &e.sp
	e.staleParked(v)
	sp.parkedPhys[v] = -1
	sp.wakeAt[v] = -1
	sp.woken = append(sp.woken, v)
}

// staleParked marks the parked list of v's channel, if v is parked, for
// compaction: v's entry there is about to stop being live.
func (e *Engine) staleParked(v int32) {
	if ch := e.sp.parkedPhys[v]; ch >= 0 {
		e.sp.parkedStale[ch] = true
	}
}

// parkIdle parks an idle node until its hint expires (or forever: an idle
// node cannot receive, so only the slot budget ends an open-ended idle).
func (e *Engine) parkIdle(v int32, slot, k int) {
	if k >= Forever {
		e.sp.wakeAt[v] = -1
		return
	}
	e.pushWake(v, slot+k+1)
}

// parkListen parks a listening node on its physical channel. This slot it
// is still in the live listen bucket (it was stepped); the parked entry
// takes effect afterwards, which commitParked arranges — unless a delivery
// this very slot wakes it first.
func (e *Engine) parkListen(v int32, phys, slot, k int, quiet bool) {
	sp := &e.sp
	sp.parkedPhys[v] = int32(phys)
	sp.parkedAt[v] = slot
	sp.parkedQuiet[v] = quiet
	sp.newlyParked = append(sp.newlyParked, v)
	if k >= Forever {
		sp.wakeAt[v] = -1
		return
	}
	e.pushWake(v, slot+k+1)
}

// commitParked moves this slot's survivors from newlyParked into their
// channels' parked lists. Scan order makes same-slot appends
// node-ascending; a smaller id landing after a bigger one (parks from an
// earlier slot) marks the list for lazy sorting.
func (e *Engine) commitParked() {
	sp := &e.sp
	for _, v := range sp.newlyParked {
		ch := sp.parkedPhys[v]
		if ch < 0 { // woken again before the slot ended
			continue
		}
		lst := sp.parked[ch]
		if len(lst) > 0 && lst[len(lst)-1] > NodeID(v) {
			sp.parkedDirty[ch] = true
		}
		if !sp.parkedSeen[ch] {
			sp.parkedSeen[ch] = true
			sp.parkedTouch = append(sp.parkedTouch, int(ch))
		}
		sp.parked[ch] = append(lst, NodeID(v))
	}
	sp.newlyParked = sp.newlyParked[:0]
}

// compactParked drops stale entries (nodes no longer parked here) from a
// channel's parked list, sorts it if appends arrived out of order, and
// removes duplicates (a timer wake followed by a re-park on the same
// channel leaves the old entry behind). An entry is live only if the park
// predates this slot: a node whose timer expired and that re-parked on the
// same channel this very slot is in the live listen bucket — it was stepped
// — and its old entry must not double-deliver. Every way an entry stops
// being live goes through wakeNode or retireNode, which mark the list
// stale, so a list that is neither stale nor dirty is returned untouched.
// Returns the live, sorted, duplicate-free list.
func (e *Engine) compactParked(slot, ch int) []NodeID {
	sp := &e.sp
	lst := sp.parked[ch]
	if !sp.parkedStale[ch] && !sp.parkedDirty[ch] {
		return lst
	}
	w := 0
	for _, v := range lst {
		if sp.parkedPhys[v] == int32(ch) && sp.parkedAt[v] < slot && !sp.retired[v] {
			lst[w] = v
			w++
		}
	}
	lst = lst[:w]
	if sp.parkedDirty[ch] {
		slices.Sort(lst)
	}
	sp.parkedStale[ch], sp.parkedDirty[ch] = false, false
	w = 0
	for i, v := range lst {
		if i > 0 && v == lst[i-1] {
			continue
		}
		lst[w] = v
		w++
	}
	lst = lst[:w]
	sp.parked[ch] = lst
	return lst
}

// touchParked marks every channel that holds live parked listeners as used
// this slot, so an observed slot reports a channel whose only listeners are
// parked, exactly as the dense scan would have bucketed them.
func (e *Engine) touchParked(slot int) {
	for _, ch := range e.sp.parkedTouch {
		if len(e.compactParked(slot, ch)) > 0 {
			e.touch(ch)
		}
	}
}

// mergedListeners merges the live listen bucket with the channel's
// compacted parked list in ascending node order — exactly the order the
// dense bucket would have held, since a dense scan appends listeners in
// node order and the two sets are disjoint (a parked node is not stepped,
// so it is never in the live bucket). Only deliveries need the merged
// list; it lives in lscratch (capacity n) until the next channel's merge.
func (e *Engine) mergedListeners(live, pk []NodeID) []NodeID {
	out := e.sp.lscratch[:0]
	i, j := 0, 0
	for i < len(live) || j < len(pk) {
		if j >= len(pk) || (i < len(live) && live[i] < pk[j]) {
			out = append(out, live[i])
			i++
		} else {
			out = append(out, pk[j])
			j++
		}
	}
	e.sp.lscratch = out
	return out
}

// pushWake queues a timer wake. Re-parking with an unchanged wake slot
// (the common drain-thrash pattern: woken by a delivery, re-parked toward
// the same phase boundary) revalidates the entry already in the heap
// instead of pushing a duplicate, keeping the heap O(parked).
func (e *Engine) pushWake(v int32, wakeSlot int) {
	sp := &e.sp
	entry := int64(wakeSlot)<<wakeNodeBits | int64(v)
	sp.wakeAt[v] = entry
	if sp.pushed[v] == entry {
		return
	}
	sp.pushed[v] = entry
	h := append(sp.heap, entry)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	sp.heap = h
}

// popWake removes the heap minimum.
func (e *Engine) popWake() {
	h := e.sp.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.sp.heap = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h[r] < h[l] {
			small = r
		}
		if h[i] <= h[small] {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

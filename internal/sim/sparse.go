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
//   - One dormancy contract: a delivery wakes a parked node, or the node
//     waived it — a quiet loser has nothing to learn, and a deaf
//     CatchUpper catches up. A parked listener stays in its channel's
//     delivery set, in the node order the dense run would have held, and
//     a delivery there has the next slot step it again. A quiet broadcast
//     (BroadcastQuiet) that loses gets no EvSendFailed: its Deliver would
//     have ignored it, and it is stepped next slot like any broadcaster.
//     A CatchUpper that stands, stands by (StandBy) or quiet-parks under
//     UniformWinner is deaf: its deliveries are skipped and reported as
//     one slot range before its next Step or its winning delivery. Any
//     other quiet park or stand-by is a plain park, and any other stand a
//     stepped broadcast.
//   - Standers and stand-bys sit in a group per channel and wake key. In
//     the slot after a message carrying the key wins the channel, the
//     group joins the channel's broadcasters in node order, exactly where
//     dense stepping would have filed them, so the tie-break draw and the
//     winner do not change.
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
// randomness, and every delivery wakes its target, is waived by a quiet
// loser (BroadcastQuiet) or is caught up on (CatchUpper). The engine
// silently falls back to dense stepping as Engine.configure describes;
// Sparse() reports the effective mode.
func WithSparse() Option {
	return func(e *Engine) { e.sparseReq = true }
}

// sparseState is the wake-queue bookkeeping of the event-driven scan. All
// slices are pre-sized by resetSparse and reused across slots and Resets.
type sparseState struct {
	on      bool // sparse stepping engaged (after configure's gating)
	notDone int  // nodes whose Done has not been observed true

	awake     []int32 // sorted ids stepped every slot
	awakeNext []int32 // next slot's awake list (scratch)
	woken     []int32 // ids re-woken this slot (timers + deliveries)

	retired    []bool  // per node: Done observed (counted out of notDone)
	wakeAt     []int64 // per node: pending heap entry, -1 = none
	pushed     []int64 // per node: last entry pushed and not yet popped
	parkedPhys []int32 // per node: phys channel while park-listening, -1 = not parked
	parkedAt   []int   // per node: slot of the last parkListen

	heap        []int64    // binary min-heap of packed wake entries
	newlyParked []int32    // listeners parked this slot, committed after phase B
	parked      [][]NodeID // phys channel -> parked listeners (exact unless stale or dirty)
	parkedDirty []bool     // phys channel -> parked list needs sorting
	parkedStale []bool     // phys channel -> a listed node was woken or retired
	parkedSeen  []bool     // phys channel -> appears in parkedTouched
	parkedTouch []int      // channels with parked entries since Reset
	lscratch    []NodeID   // merged live+parked listener scratch
	bscratch    []NodeID   // broadcasters that hear this channel (scratch)

	// Stands and deaf service. A stander is also a deaf parked listener
	// on its channel (parkedPhys, parked), so only the key-specific parts
	// live here.
	standKey []WakeKey      // per node: key its stand awaits, NoKey = not standing
	deafFrom []int          // per node: first slot served deaf, -1 = hearing
	stands   [][]standGroup // phys channel -> one group per awaited key
	arms     []arm          // keyed wins of this slot, armed for the next
	armKey   []WakeKey      // phys channel -> key of the group broadcasting now, NoKey = none
	armedNow []int          // channels with armKey set
	pscratch []NodeID       // this slot's parked lists without their armed standers
	deafHere []bool         // phys channel -> a deaf node may be in this slot's runs
	deafChs  []int          // channels with deafHere set
}

// standGroup is one channel's standers awaiting key, ascending. An empty
// group keeps its backing and is reused for the next key.
type standGroup struct {
	key WakeKey
	ids []NodeID
}

// arm records that a message carrying key won channel ch, so ch's group
// for key broadcasts in the next slot.
type arm struct {
	ch  int
	key WakeKey
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
		sp.bscratch = make([]NodeID, 0, n)
		sp.pscratch = make([]NodeID, 0, n)
	}
	if cap(sp.retired) < n {
		sp.retired = make([]bool, n)
		sp.wakeAt = make([]int64, n)
		sp.pushed = make([]int64, n)
		sp.parkedPhys = make([]int32, n)
		sp.parkedAt = make([]int, n)
		sp.standKey = make([]WakeKey, n)
		sp.deafFrom = make([]int, n)
	}
	sp.retired = sp.retired[:n]
	sp.wakeAt = sp.wakeAt[:n]
	sp.pushed = sp.pushed[:n]
	sp.parkedPhys = sp.parkedPhys[:n]
	sp.parkedAt = sp.parkedAt[:n]
	sp.standKey = sp.standKey[:n]
	sp.deafFrom = sp.deafFrom[:n]
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
		sp.standKey[i] = NoKey
		sp.deafFrom[i] = -1
	}
	// commitParked lists every channel with stand groups in parkedTouch.
	for _, ch := range sp.parkedTouch {
		for i := range sp.stands[ch] {
			sp.stands[ch][i].ids = sp.stands[ch][i].ids[:0]
		}
		sp.parked[ch] = sp.parked[ch][:0]
		sp.parkedDirty[ch] = false
		sp.parkedStale[ch] = false
		sp.parkedSeen[ch] = false
	}
	sp.parkedTouch = sp.parkedTouch[:0]
	for _, ch := range sp.armedNow {
		sp.armKey[ch] = NoKey
	}
	sp.armedNow = sp.armedNow[:0]
	sp.arms = sp.arms[:0]
	e.clearDeafHere()
	e.growParked(e.asn.Channels())
}

// growParked extends the per-channel sparse state to cover at least n
// physical channels, past asn.Channels() should an assignment hand out a
// larger index. Dense engines keep no per-channel state.
func (e *Engine) growParked(n int) {
	sp := &e.sp
	if short := n - len(sp.parked); short > 0 {
		sp.parked = append(sp.parked, make([][]NodeID, short)...)
		sp.parkedDirty = append(sp.parkedDirty, make([]bool, short)...)
		sp.parkedStale = append(sp.parkedStale, make([]bool, short)...)
		sp.parkedSeen = append(sp.parkedSeen, make([]bool, short)...)
		sp.stands = append(sp.stands, make([][]standGroup, short)...)
		sp.armKey = append(sp.armKey, make([]WakeKey, short)...)
		sp.deafHere = append(sp.deafHere, make([]bool, short)...)
	}
}

// scanSparse is the event-driven phase-A scan: merge the standing awake
// list with this slot's re-woken nodes in ascending node order and step
// exactly those, validating and filing as the dense scan does. Dormant
// nodes were validated when they parked and their (unchanged, per the
// Sleep contract) actions stay valid under a Fixed assignment, so
// the first failing node among awake nodes is the first failing node
// overall — error strings match the dense scan's.
func (e *Engine) scanSparse(slot int) error {
	sp := &e.sp
	sc := &e.shardAcc[0]
	sc.begin()
	e.clearDeafHere()
	for len(sp.heap) > 0 {
		top := sp.heap[0]
		if int(top>>32) > slot {
			break
		}
		e.popWake()
		v := int32(top) // the low 32 bits; see pushWake
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
		if sp.deafFrom[v] >= 0 {
			e.catchUp(NodeID(v), slot)
		}
		a := &e.acts[v]
		if e.into {
			p.(StepperInto).StepInto(slot, a)
		} else {
			e.acts[v] = p.Step(slot)
		}
		// Done flipping inside Step retires the node now, but its action
		// still resolves this slot: the dense engine steps first and skips
		// only from the next slot on.
		live := !p.Done()
		if !live {
			e.retireNode(v)
		}
		phys := -1
		if a.Op != OpIdle {
			var err error
			if phys, err = e.physChannel(NodeID(v), slot, a.Channel, a.Op); err != nil {
				return err
			}
			if phys >= len(sp.parked) {
				e.growParked(phys + 1)
			}
			sc.file(NodeID(v), phys, a.Op)
		}
		switch {
		case !live:
		case e.standing(v, a):
			sp.standKey[v] = a.Await
			e.parkListen(v, phys, slot, a.Sleep, true)
		case a.Sleep <= 0 || a.Op == OpBroadcast:
			next = append(next, v)
		case a.Op == OpIdle:
			e.parkIdle(v, slot, a.Sleep)
		default:
			e.parkListen(v, phys, slot, a.Sleep, a.Quiet && e.holdsDeaf(v))
		}
	}
	sp.awake, sp.awakeNext = next, sp.awake
	sp.woken = sp.woken[:0]
	return nil
}

// wakeParked runs after a channel's deliveries to its listeners ls (live
// and parked, as hearingListeners built them, so none deaf): every parked
// listener among them is re-woken, and a standing winner ends its stand.
// The channel's parked list is left as it was, so the observer sees the
// pre-delivery parked set; the wakes (and any retirement a delivery
// caused) mark it stale, and the next compactParked drops them. A winning
// message that carries a wake key arms the channel's group for that key
// for the next slot.
func (e *Engine) wakeParked(ch int, ls []NodeID, winner NodeID) {
	sp := &e.sp
	for _, l := range ls {
		if sp.parkedPhys[l] >= 0 {
			e.wakeNode(int32(l))
		}
	}
	if sp.standKey[winner] != NoKey {
		e.wakeNode(int32(winner))
	}
	if key := e.acts[winner].Key; key != NoKey {
		sp.arms = append(sp.arms, arm{ch: ch, key: key})
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
	e.leaveStand(v)
}

// wakeNode returns a dormant node to the stepped set: its pending timer is
// invalidated, its parked entry (if any) goes stale, and it is stepped
// again from the next scan on.
func (e *Engine) wakeNode(v int32) {
	sp := &e.sp
	e.staleParked(v)
	e.leaveStand(v)
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
// is still in the live listen run (it was stepped); the parked entry
// takes effect afterwards, which commitParked arranges — unless a delivery
// this very slot wakes it first. A stand or quiet park that holdsDeaf
// allows is deaf from this very slot on; a stand parks with standKey
// already set, a parked listener that broadcasts when its group is armed.
func (e *Engine) parkListen(v int32, phys, slot, k int, deaf bool) {
	sp := &e.sp
	sp.parkedPhys[v] = int32(phys)
	sp.parkedAt[v] = slot
	if deaf {
		sp.deafFrom[v] = slot
		e.markDeafHere(phys)
	}
	sp.newlyParked = append(sp.newlyParked, v)
	if k >= Forever {
		sp.wakeAt[v] = -1
		return
	}
	e.pushWake(v, slot+k+1)
}

// commitParked moves this slot's survivors from newlyParked into their
// channels' parked lists, and standers into their groups too. Scan order
// makes same-slot appends node-ascending; a smaller id landing after a
// bigger one (parks from an earlier slot) marks the list for lazy sorting.
// An unobserved engine keeps deaf nodes off the lists. Every committed
// channel joins parkedTouch, which Reset clears.
func (e *Engine) commitParked() {
	sp := &e.sp
	for _, v := range sp.newlyParked {
		ch := sp.parkedPhys[v]
		if ch < 0 { // woken again before the slot ended
			continue
		}
		if key := sp.standKey[v]; key != NoKey {
			g := e.group(int(ch), key, true)
			if i := len(g.ids); i == 0 || g.ids[i-1] < NodeID(v) {
				g.ids = append(g.ids, NodeID(v))
			} else {
				i, _ = slices.BinarySearch(g.ids, NodeID(v))
				g.ids = slices.Insert(g.ids, i, NodeID(v))
			}
		}
		if !sp.parkedSeen[ch] {
			sp.parkedSeen[ch] = true
			sp.parkedTouch = append(sp.parkedTouch, int(ch))
		}
		if sp.deafFrom[v] >= 0 && e.obs == nil {
			// Only deliveries and the observer read parked lists, and a
			// deaf node gets no delivery its stand group does not route.
			continue
		}
		lst := sp.parked[ch]
		if len(lst) > 0 && lst[len(lst)-1] > NodeID(v) {
			sp.parkedDirty[ch] = true
		}
		sp.parked[ch] = append(lst, NodeID(v))
	}
	sp.newlyParked = sp.newlyParked[:0]
}

// group returns channel ch's stand group for key, or nil if there is none
// and create is false. A new key reuses an empty group's backing.
func (e *Engine) group(ch int, key WakeKey, create bool) *standGroup {
	gs := e.sp.stands[ch]
	free := -1
	for i := range gs {
		if gs[i].key == key {
			return &gs[i]
		}
		if free < 0 && len(gs[i].ids) == 0 {
			free = i
		}
	}
	if !create {
		return nil
	}
	if free < 0 {
		gs = append(gs, standGroup{})
		free = len(gs) - 1
		e.sp.stands[ch] = gs
	}
	gs[free].key = key
	return &gs[free]
}

// leaveStand ends v's stand, if any: v leaves its channel's group. A stand
// still pending in newlyParked is in no group yet, and commitParked will
// skip it, because every caller also clears the park.
func (e *Engine) leaveStand(v int32) {
	sp := &e.sp
	key := sp.standKey[v]
	if key == NoKey {
		return
	}
	sp.standKey[v] = NoKey
	if g := e.group(int(sp.parkedPhys[v]), key, false); g != nil {
		if i, ok := slices.BinarySearch(g.ids, NodeID(v)); ok {
			g.ids = slices.Delete(g.ids, i, i+1)
		}
	}
}

// mergeStands runs after the scan: every group armed by the previous
// slot's keyed wins is filed as broadcasters of its channel, after the
// stepped ones, and armed merges the two in the channel's sorted run.
func (e *Engine) mergeStands() {
	sp := &e.sp
	sc := &e.shardAcc[0]
	for _, ch := range sp.armedNow {
		sp.armKey[ch] = NoKey
	}
	sp.armedNow = sp.armedNow[:0]
	for _, a := range sp.arms {
		g := e.group(a.ch, a.key, false)
		if g == nil || len(g.ids) == 0 {
			continue
		}
		sp.armKey[a.ch] = a.key
		sp.armedNow = append(sp.armedNow, a.ch)
		e.markDeafHere(a.ch)
		for _, v := range g.ids {
			sc.file(v, a.ch, OpBroadcast)
		}
	}
	sp.arms = sp.arms[:0]
}

// armed applies the stand group broadcasting on channel ch, if any, to its
// broadcasters bs and parked list pk. Stepped broadcasters and standers are
// disjoint, both ascending, and sorted in that order, so an in-place merge
// from the back yields the run a dense scan would have filed. The returned
// pk lacks the standers and lives in this slot's pscratch, which outlives
// the channel because the observer reads every list at the end of the slot.
func (e *Engine) armed(ch int, bs, pk []NodeID) []NodeID {
	sp := &e.sp
	key := sp.armKey[ch]
	if key == NoKey {
		return pk
	}
	g := e.group(ch, key, false).ids
	i, j := len(bs)-len(g)-1, len(g)-1
	for k := len(bs) - 1; j >= 0; k-- {
		if i >= 0 && bs[i] > g[j] {
			bs[k] = bs[i]
			i--
		} else {
			bs[k] = g[j]
			j--
		}
	}
	start := len(sp.pscratch)
	for _, v := range pk {
		if sp.standKey[v] != key {
			sp.pscratch = append(sp.pscratch, v)
		}
	}
	return sp.pscratch[start:len(sp.pscratch):len(sp.pscratch)]
}

// hearingBroadcasters returns the broadcasters of a channel that get a
// delivery this slot under UniformWinner, in bscratch: all but the losers
// that waived their loss — the quiet ones (BroadcastQuiet) and the deaf
// ones, standers (armed or new) that did not win. A deaf winner is caught
// up first.
func (e *Engine) hearingBroadcasters(bs []NodeID, winner NodeID, slot int) []NodeID {
	sp := &e.sp
	out := sp.bscratch[:0]
	for _, b := range bs {
		switch {
		case b == winner:
			if sp.deafFrom[b] >= 0 {
				e.catchUp(b, slot)
			}
		case e.acts[b].Quiet || sp.deafFrom[b] >= 0:
			continue
		}
		out = append(out, b)
	}
	sp.bscratch = out
	return out
}

// standing reports whether node v's act is a stand or stand-by this
// engine honours, which is one it can hold deaf (see Stand, StandBy).
func (e *Engine) standing(v int32, act *Action) bool {
	return act.Op != OpIdle && act.Sleep > 0 && act.Await != NoKey && e.holdsDeaf(v)
}

// holdsDeaf reports whether node v's stands and quiet parks are deaf.
func (e *Engine) holdsDeaf(v int32) bool {
	_, ok := e.nodes[v].(CatchUpper)
	return ok && e.collisions == UniformWinner
}

// markDeafHere notes that a node served deaf may sit in channel ch's
// runs this slot — a stand or quiet park that starts here, or an armed
// group — so its listeners must go through hearingListeners. Elsewhere
// the live listen run is delivered to as it is, without a copy;
// broadcasters always go through hearingBroadcasters.
func (e *Engine) markDeafHere(ch int) {
	sp := &e.sp
	if !sp.deafHere[ch] {
		sp.deafHere[ch] = true
		sp.deafChs = append(sp.deafChs, ch)
	}
}

// clearDeafHere forgets the previous slot's markDeafHere channels.
func (e *Engine) clearDeafHere() {
	sp := &e.sp
	for _, ch := range sp.deafChs {
		sp.deafHere[ch] = false
	}
	sp.deafChs = sp.deafChs[:0]
}

// catchUp ends node id's deaf service before its Step or winning delivery
// in slot: it reports the slots it was skipped in, [deafFrom, slot), which
// is empty only for a stand won in its own slot.
func (e *Engine) catchUp(id NodeID, slot int) {
	from := e.sp.deafFrom[id]
	e.sp.deafFrom[id] = -1
	if from < slot {
		e.nodes[id].(CatchUpper).CatchUp(from, slot)
	}
}

// compactParked drops stale entries (nodes no longer parked here) from a
// channel's parked list, sorts it if appends arrived out of order, and
// removes duplicates (a timer wake followed by a re-park on the same
// channel leaves the old entry behind). An entry is live only if the park
// predates this slot: a node whose timer expired and that re-parked on the
// same channel this very slot is in the live listen run — it was stepped
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

// hearingListeners merges the live listen run with the channel's
// compacted parked list in ascending node order — exactly the order the
// dense run would have held, since a dense scan appends listeners in
// node order and the two sets are disjoint (a parked node is not stepped,
// so it is never in the live run) — and leaves out the nodes served
// deaf. Only deliveries need the list; it lives in lscratch (capacity n)
// until the next channel's merge.
func (e *Engine) hearingListeners(live, pk []NodeID) []NodeID {
	sp := &e.sp
	out := sp.lscratch[:0]
	i, j := 0, 0
	for i < len(live) || j < len(pk) {
		var v NodeID
		if j >= len(pk) || (i < len(live) && live[i] < pk[j]) {
			v = live[i]
			i++
		} else {
			v = pk[j]
			j++
		}
		if sp.deafFrom[v] < 0 {
			out = append(out, v)
		}
	}
	sp.lscratch = out
	return out
}

// pushWake queues a timer wake. Re-parking with an unchanged wake slot
// (the common drain-thrash pattern: woken by a delivery, re-parked toward
// the same phase boundary) revalidates the entry already in the heap
// instead of pushing a duplicate, keeping the heap O(parked).
//
// An entry packs (wakeSlot << 32) | v into an int64, so heap order is
// slot-major with node-ascending ties — deterministic. Node ids are int32,
// and a wake slot (the current slot plus a hint below Forever = 2³⁰) stays
// below 2³¹ in any run shorter than 2³⁰ slots, so every entry is
// non-negative.
func (e *Engine) pushWake(v int32, wakeSlot int) {
	sp := &e.sp
	entry := int64(wakeSlot)<<32 | int64(v)
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

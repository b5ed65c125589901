package sim_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
)

// scripted is a protocol driven entirely by fuzz bytes: node id's action
// in each slot is decoded from script[slot*n+id]. A byte with its top bit
// set and k = (b>>4)&7 > 0 holds its action for the next k slots,
// ignoring the script: a listen parks (quietly if bit 3 is set), a
// broadcast stands, awaiting wake key 1 or 2 (bit 3). A listen whose bit
// 2 is clear, which no committed input holds, stands by instead, awaiting
// the same keys. Every broadcast carries the key (b>>2)&3, so some carry
// none, and so does a stand-by's. A park ends on a delivery unless it is
// quiet; a stand or stand-by ends on a win, and in its other slots the
// node listens unless the message that won its channel in the previous
// slot carried its key, as Stand and StandBy promise. A broadcast byte
// whose top two bits are 01 broadcasts quietly, and the node ignores a
// loss there, as BroadcastQuiet promises. Each hold ends at an absolute
// slot, so the Sleep hint it carries honours its contract. A catching
// node's deaf holds (stands, stand-bys and quiet parks) also end before
// the run's last slot, so it is caught up before its log is compared; a
// deaf hold that would not is a plain action instead. A non-catching node
// keeps issuing quiet holds, which a sparse engine serves as the plain
// action: its quiet park or stand-by as a park that deliveries wake, its
// stand as a broadcast stepped every slot. The node never terminates —
// the fuzz body runs slots slots — logs every delivery and records the
// slots it is stepped in. Every winner records its win in the run's
// winLog.
type scripted struct {
	script   []byte
	id, n, c int
	slots    int
	catches  bool // wrapped as catching, so its stands and quiet parks are deaf
	asn      sim.Assignment
	wins     winLog
	hold     sim.Action
	holdEnd  int // first slot after the hold; the hold is over when slot >= holdEnd
	lastWin  int // slot of the last win heard, and its message's key
	lastKey  sim.WakeKey
	quietAt  int // slot of the last quiet broadcast
	log      []string
	steps    []int
}

// winLog maps a physical channel and slot to the winning event there.
type winLog map[[2]int]sim.Event

// keyOf is the wake key a scripted message carries; a delivery without a
// scripted message (an engine fault) carries none, so the run goes on to
// report the divergence.
func keyOf(msg sim.Message) sim.WakeKey {
	b, _ := msg.(int)
	return sim.WakeKey(b>>2) & 3
}

func (s *scripted) Step(slot int) sim.Action {
	s.steps = append(s.steps, slot)
	if slot < s.holdEnd {
		act := s.hold
		act.Sleep = s.holdEnd - 1 - slot
		armed := s.lastWin == slot-1 && s.lastKey == act.Await
		switch {
		case act.Await == sim.NoKey:
		case act.Op == sim.OpListen && armed:
			return sim.Broadcast(act.Channel, act.Msg).Keyed(act.Key)
		case act.Op == sim.OpBroadcast && !armed:
			return sim.Listen(act.Channel)
		}
		return act
	}
	idx := slot*s.n + s.id
	if idx >= len(s.script) {
		return sim.Idle()
	}
	b := s.script[idx]
	ch := int(b/3) % s.c
	k := int(b>>4) & 7
	deaf := s.catches && (b%3 == 2 || b&8 != 0 || b&4 == 0)
	hold := b&0x80 != 0 && k > 0 && !(deaf && slot+k+1 >= s.slots)
	switch b % 3 {
	case 0:
		return sim.Idle()
	case 1:
		if !hold {
			return sim.Listen(ch)
		}
		s.hold, s.holdEnd = sim.ParkListen(ch, k), slot+k+1
		switch {
		case b&4 == 0:
			s.hold = sim.StandBy(ch, int(b), 1+sim.WakeKey(b>>3)&1, k).Keyed(keyOf(int(b)))
		case b&8 != 0:
			s.hold = sim.ParkListenQuiet(ch, k)
		}
		return s.hold
	default:
		act := sim.Broadcast(ch, int(b)).Keyed(keyOf(int(b)))
		if b&0xc0 == 0x40 {
			act.Quiet, s.quietAt = true, slot
		}
		if !hold {
			return act
		}
		s.hold = sim.Stand(ch, int(b), 1+sim.WakeKey(b>>3)&1, k).Keyed(act.Key)
		s.holdEnd = slot + k + 1
		return s.hold
	}
}

func (s *scripted) Deliver(slot int, ev sim.Event) {
	if ev.Kind == sim.EvSendFailed && s.quietAt == slot {
		return
	}
	if ev.Kind == sim.EvSendSucceeded {
		s.wins[[2]int{s.asn.ChannelSet(sim.NodeID(s.id), slot)[ev.Channel], slot}] = ev
	}
	switch {
	case slot >= s.holdEnd:
	case s.hold.Await != sim.NoKey:
		if ev.Kind == sim.EvSendSucceeded {
			s.holdEnd = 0
		}
	case !s.hold.Quiet:
		s.holdEnd = 0
	}
	s.record(slot, ev)
}

func (s *scripted) record(slot int, ev sim.Event) {
	s.lastWin, s.lastKey = slot, keyOf(ev.Msg)
	s.log = append(s.log, fmt.Sprintf("%d/%v/%d/%v/%d", slot, ev.Kind, ev.From, ev.Msg, ev.Channel))
}

func (s *scripted) Done() bool { return false }

// filler listens on its local channel 0 in every slot and keeps nothing.
// FuzzEngineSlot adds sim.ByNodeMin of them when asked, so a dense slot
// files enough entries to deliver in node order.
type filler struct{}

func (filler) Step(int) sim.Action    { return sim.Listen(0) }
func (filler) Deliver(int, sim.Event) {}
func (filler) Done() bool             { return false }

// catching is scripted with a CatchUp: served deaf through its stands,
// stand-bys and quiet parks, it rebuilds the deliveries it missed from the
// run's winLog — a loss in its stand's first slot and in every later slot
// its key armed, a reception otherwise — so its log must match the dense
// run's.
type catching struct{ *scripted }

func (c catching) CatchUp(from, to int) {
	set := c.asn.ChannelSet(sim.NodeID(c.id), from)
	phys := set[c.hold.Channel]
	for t := from; t < to; t++ {
		ev, ok := c.wins[[2]int{phys, t}]
		if !ok {
			continue
		}
		ev.Kind, ev.Channel = sim.EvReceived, c.hold.Channel
		if c.hold.Await != sim.NoKey {
			prev, armed := c.wins[[2]int{phys, t - 1}]
			if t == from && c.hold.Op == sim.OpBroadcast || t > from && armed && keyOf(prev.Msg) == c.hold.Await {
				ev.Kind = sim.EvSendFailed
			}
		}
		c.record(t, ev)
	}
}

// FuzzEngineSlot drives the engine with adversarial broadcast/listen
// patterns decoded from raw bytes — parks, quiet parks and keyed stands
// among them, half the nodes serving catch-ups — under either collision
// model (the top bit of rawC selects AllDelivered, where a stand is a plain
// broadcast and no node is deaf), and re-verifies every slot with the
// invariant oracle: channels resolve in ascending physical order, every
// participant's physical channel is in its set, each node uses one radio
// per slot, and every contended channel has the winners its model allows,
// drawn from its broadcasters. Any script the engine accepts must produce
// a violation-free outcome stream. The script is then replayed unobserved
// on two shards, where every node's delivery log must match the observed
// dense run's, and under sparse stepping with its own oracle and the wake
// oracle attached, where the delivery logs (a catching node's rebuilt ones
// included) and the per-slot outcome stream must both match — each sparse
// channel's Listeners ∪ Parked against the dense Listeners — so one target
// drives the shared scan and resolver through all three stepping modes.
// Dense runs must report no parked listener, and sparse Parked lists must
// be ascending and disjoint from Listeners. A rawN in its last, partial
// cycle (248–255) adds sim.ByNodeMin filler listeners after the scripted
// nodes, so dense slots take the node-order delivery pass, which the
// sparse engine never does.
func FuzzEngineSlot(f *testing.F) {
	f.Add(uint8(8), uint8(3), int64(1), []byte("\x02\x05\x08\x0b\x0e\x11\x14\x17"))
	f.Add(uint8(4), uint8(2), int64(7), []byte{2, 2, 2, 2, 1, 1, 1, 1})
	f.Add(uint8(12), uint8(4), int64(42), []byte("mixed traffic with listeners and idles"))
	f.Add(uint8(2), uint8(1), int64(3), []byte{255, 254, 253, 252, 0, 1, 2})
	// Two nodes park listening on different physical channels, so one slot
	// reports two channels whose parked lists must both stay valid
	// until the observer has run (TestEngineSlotSeedParksTwoChannels).
	f.Add(parkSeed.rawN, parkSeed.rawC, parkSeed.seed, parkSeed.script)
	// Six nodes stand on one channel at once, so a group of five is armed
	// by every win until the last stander wins.
	f.Add(uint8(4), uint8(0), int64(6), []byte("\xda\xda\xda\xda\xda\xda"+strings.Repeat("\x01", 24)))
	// Four nodes on one channel stand with keys 1 and 2 and quiet-park,
	// so keyed wins arm groups while catching nodes are served deaf.
	f.Add(uint8(2), uint8(0), int64(5), standSeed)
	// The same stands and quiet parks under AllDelivered, where every
	// stander is stepped again and every catching node hears.
	f.Add(uint8(2), uint8(0x80|5), int64(5), standSeed)
	// A non-catching stand, stepped as a plain broadcast, and a stand
	// group armed on a channel whose stepped broadcasters have higher ids
	// than its stander (TestEngineSlotSeedArmsBelowStepped).
	f.Add(armSeed.rawN, armSeed.rawC, armSeed.seed, armSeed.script)
	f.Add(armDeafSeed.rawN, armDeafSeed.rawC, armDeafSeed.seed, armDeafSeed.script)
	// A quiet loser, a hearing loser and a deaf stander lose one channel
	// in one slot (TestEngineSlotSeedQuietLoser).
	f.Add(quietSeed.rawN, quietSeed.rawC, quietSeed.seed, quietSeed.script)
	// Two scripted nodes among filler listeners: a listener hears a win,
	// then listens on a silent channel (TestEngineSlotSeedFillsByNode).
	f.Add(fillSeed.rawN, fillSeed.rawC, fillSeed.seed, fillSeed.script)
	// Stand-bys on one channel: a deaf one armed next to a hearing one, and
	// a deaf one awaiting another key (TestEngineSlotSeedStandsBy).
	f.Add(standBySeed.rawN, standBySeed.rawC, standBySeed.seed, standBySeed.script)
	f.Fuzz(func(t *testing.T, rawN, rawC uint8, seed int64, script []byte) {
		checkEngineSlot(t, rawN, rawC, seed, script)
	})
}

// parkSeed is FuzzEngineSlot's two-channel park seed.
var parkSeed = seedScript{4, 2, 7, []byte("00\xa6\xa6")}

// standSeed is FuzzEngineSlot's script of four nodes standing and
// quiet-parking on one channel.
var standSeed = []byte("\xaa\xaa\xac\xac\x08\x01\x08\x01\xaa\x02\xaa\x02\x01\x01\x01\x01\xac\xaa\xac\xaa\x02\x01\x02\x01\x08\x08\x01\x01\x01\x01\x01\x01")

// seedScript is a committed FuzzEngineSlot input.
type seedScript struct {
	rawN, rawC uint8
	seed       int64
	script     []byte
}

// armSeed is FuzzEngineSlot's script of five nodes on one shared channel:
// in slot 0 node 0 stands awaiting key 1 while nodes 2 and 4 broadcast
// messages carrying key 1, and in slot 1, where node 0's script idles,
// nodes 2 and 4 broadcast again. Node 0 does not catch up, so its stand
// is a plain broadcast, stepped every slot. armDeafSeed is the same with
// the stand moved to node 1, which catches up and stands deaf.
var (
	armSeed     = seedScript{3, 0, 1, []byte("\xb0\x01\x05\x01\x05\x00\x01\x05\x01\x05\x01\x01\x01\x01\x01")}
	armDeafSeed = seedScript{3, 0, 1, []byte("\x01\xb0\x05\x01\x05\x01\x00\x05\x01\x05\x01\x01\x01\x01\x01")}
)

// quietSeed is FuzzEngineSlot's script of five nodes on one shared
// channel: in slot 0 nodes 0 and 2 broadcast plainly, node 1 stands deaf
// awaiting key 1, node 4 broadcasts quietly and node 3 listens; then all
// listen.
var quietSeed = seedScript{3, 0, 1, []byte("\x05\xb0\x05\x01\x41\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01")}

// fillSeed is FuzzEngineSlot's script of two nodes on one channel among
// the filler listeners (rawN 248): node 0 broadcasts and node 1 listens in
// slot 0, and in slot 1 node 0 idles while node 1 listens again.
var fillSeed = seedScript{248, 0, 1, []byte{2, 1, 0, 1}}

// standBySeed is FuzzEngineSlot's script of five nodes on one shared
// channel. In slot 0 node 0 broadcasts a message carrying key 1, nodes 1
// and 2 stand by awaiting key 1 for two slots, node 3 stands by awaiting
// key 2 for three, and node 4 listens; then all listen but node 0, which
// broadcasts a message carrying key 2 in slot 2. Nodes 1 and 3 catch up,
// so their stand-bys are deaf; node 2's is a plain park.
var standBySeed = seedScript{3, 0, 1, []byte("\x05\xa0\xa0\xb8\x01\x01\x01\x01\x01\x01\x08\x01\x01\x01\x01")}

// TestEngineSlotSeedStandsBy pins what standBySeed is for. Node 0 wins
// slot 0: the deaf stand-bys 1 and 3 listen there without a delivery (the
// wake oracle audits it), and the hearing one, node 2, hears the win. In
// slot 1 node 1's group broadcasts unstepped next to node 2, which was
// woken and stepped, and loses to it, so node 1 stays deaf until its bound
// ends in slot 3; there node 3's group, armed by slot 2's key 2,
// broadcasts alone. Node 1's log holds the reception and the loss that
// CatchUp rebuilt in the sparse run.
func TestEngineSlotSeedStandsBy(t *testing.T) {
	outs, recs := checkEngineSlot(t, standBySeed.rawN, standBySeed.rawC, standBySeed.seed, standBySeed.script)
	slots := strings.Split(outs.String(), "\n")
	for i, want := range map[int]string{0: " b[0] w0 l[1 2 3 4]", 1: " b[1 2] w2 ", 3: " b[3] w3 "} {
		if !strings.Contains(slots[i], want) {
			t.Fatalf("slot %d is %q, want %q", i, slots[i], want)
		}
	}
	for node, want := range map[int]string{1: "[0 3 4]", 2: "[0 1 2 3 4]", 3: "[0 4]"} {
		if got := fmt.Sprint(recs[node].steps); got != want {
			t.Fatalf("node %d stepped in slots %s, want %s", node, got, want)
		}
	}
	if got, want := strings.Join(recs[1].log[:2], ","), "0/received/0/5/0,1/send-failed/2/160/0"; got != want {
		t.Fatalf("node 1's log starts %q, want %q", got, want)
	}
}

// TestEngineSlotSeedFillsByNode pins what fillSeed is for: every dense
// slot files at least sim.ByNodeMin entries, so it delivers in node order,
// and node 1, which heard node 0's win in slot 0, listens on a silent
// channel in slot 1, where a winner left over from slot 0 would reach it.
func TestEngineSlotSeedFillsByNode(t *testing.T) {
	outs, recs := checkEngineSlot(t, fillSeed.rawN, fillSeed.rawC, fillSeed.seed, fillSeed.script)
	if len(recs) != 2 {
		t.Fatalf("%d scripted nodes, want 2", len(recs))
	}
	if got := strings.Join(recs[1].log, ","); got != "0/received/0/2/0" {
		t.Fatalf("node 1's log is %q, want only its slot-0 reception", got)
	}
	slot1 := strings.Split(outs.String(), "\n")[1]
	if !strings.Contains(slot1, " b[] w-1 l[1 2 3 ") || strings.Count(slot1, " ") < sim.ByNodeMin {
		t.Fatalf("slot 1 is %.80q…, want node 1 and the fillers on a silent channel", slot1)
	}
}

// TestEngineSlotSeedQuietLoser pins what quietSeed is for: node 2 wins
// slot 0, so one channel has a hearing loser (node 0), a deaf stander
// (node 1) and a quiet loser (node 4). The wake oracle audits that only
// node 0 hears its loss; node 0's log shows it and node 4's shows no slot
// 0 delivery. Node 2's message carries key 1, so node 1's group is armed
// and wins slot 1.
func TestEngineSlotSeedQuietLoser(t *testing.T) {
	outs, recs := checkEngineSlot(t, quietSeed.rawN, quietSeed.rawC, quietSeed.seed, quietSeed.script)
	if slot0 := strings.Split(outs.String(), "\n")[0]; !strings.Contains(slot0, " b[0 1 2 4] w2 l[3]") {
		t.Fatalf("slot 0 is %q, want nodes 0, 1 and 4 to lose to node 2", slot0)
	}
	if !slices.ContainsFunc(recs[0].log, func(e string) bool { return strings.HasPrefix(e, "0/send-failed/") }) {
		t.Fatalf("hearing loser's log %v lacks its slot-0 loss", recs[0].log)
	}
	if slices.ContainsFunc(recs[4].log, func(e string) bool { return strings.HasPrefix(e, "0/") }) {
		t.Fatalf("quiet loser's log %v has a slot-0 delivery", recs[4].log)
	}
	if slot1 := strings.Split(outs.String(), "\n")[1]; !strings.Contains(slot1, " b[1] w1 ") {
		t.Fatalf("slot 1 is %q, want node 1's armed stand to win", slot1)
	}
}

// TestEngineSlotSeedArmsBelowStepped pins what armSeed and armDeafSeed are
// for: one of nodes 2 and 4 wins slot 0 with key 1, so in slot 1 the
// stander broadcasts again among the stepped broadcasters 2 and 4, in
// front of them, as a dense scan files it. Node 0's stand is a stepped
// broadcast; node 1's stand group is armed, merged in front of them and
// not stepped in slot 1.
func TestEngineSlotSeedArmsBelowStepped(t *testing.T) {
	for _, tc := range []struct {
		seed    seedScript
		stander int
		bs      string
		stepped bool
	}{
		{armSeed, 0, " b[0 2 4] ", true},
		{armDeafSeed, 1, " b[1 2 4] ", false},
	} {
		outs, recs := checkEngineSlot(t, tc.seed.rawN, tc.seed.rawC, tc.seed.seed, tc.seed.script)
		if slot1 := strings.Split(outs.String(), "\n")[1]; !strings.Contains(slot1, tc.bs) {
			t.Fatalf("slot 1 is %q, want node %d's stand among broadcasters%s", slot1, tc.stander, tc.bs)
		}
		if got := slices.Contains(recs[tc.stander].steps, 1); got != tc.stepped {
			t.Fatalf("stander %d stepped in slot 1: %v, want %v (steps %v)", tc.stander, got, tc.stepped, recs[tc.stander].steps)
		}
	}
}

// TestEngineSlotSeedParksTwoChannels pins what parkSeed is for: its sparse
// run reports parked listeners on two channels in one slot.
func TestEngineSlotSeedParksTwoChannels(t *testing.T) {
	outs, _ := checkEngineSlot(t, parkSeed.rawN, parkSeed.rawC, parkSeed.seed, parkSeed.script)
	if outs.parkedChannels < 2 {
		t.Fatalf("parked listeners on at most %d channel(s) per slot, want 2:\n%s", outs.parkedChannels, outs)
	}
}

// checkEngineSlot is FuzzEngineSlot's body; it returns the sparse run's
// outcome stream and nodes.
func checkEngineSlot(t *testing.T, rawN, rawC uint8, seed int64, script []byte) (*outcomeLog, []*scripted) {
	n := 2 + int(rawN)%31 // [2, 32] scripted nodes
	c := 1 + int(rawC)%7  // [1, 7] channels per node
	fill := 0
	if rawN >= 248 {
		fill = sim.ByNodeMin
	}
	model := sim.UniformWinner
	if rawC&0x80 != 0 {
		model = sim.AllDelivered
	}
	// SharedCore is deterministic construction (RandomPool's rejection
	// sampling may legitimately fail to find a draw at low overlap).
	asn, err := assign.SharedCore(n+fill, c, 1, 2*c, assign.LocalLabels, seed)
	if err != nil {
		t.Fatalf("SharedCore(%d, %d) rejected valid parameters: %v", n, c, err)
	}
	slots := len(script)/n + 2 // run past the script into all-idle slots
	if slots > 64 {
		slots = 64
	}
	// run executes the script under opts, behind the wake oracle when
	// wake is non-nil, leaves its scripted nodes in recs and returns the
	// engine and every scripted node's delivery log.
	var recs []*scripted
	run := func(wake *invariant.WakeChecker, opts ...sim.Option) (*sim.Engine, string) {
		protos := make([]sim.Protocol, n+fill)
		recs = make([]*scripted, n)
		wins := winLog{}
		if wake != nil {
			wake.Reset(n+fill, model)
		}
		for i := range protos {
			protos[i] = filler{}
			if i < n {
				recs[i] = &scripted{script: script, id: i, n: n, c: c, slots: slots, asn: asn, wins: wins, lastWin: -2, quietAt: -1, catches: i%2 == 1}
				protos[i] = recs[i]
				if recs[i].catches {
					protos[i] = catching{recs[i]}
				}
			}
			if wake != nil {
				protos[i] = wake.Wrap(sim.NodeID(i), protos[i])
			}
		}
		eng, err := sim.NewEngine(asn, protos, seed, append(opts, sim.WithCollisionModel(model))...)
		if err != nil {
			t.Fatalf("engine rejected a valid setup: %v", err)
		}
		for s := 0; s < slots; s++ {
			if err := eng.RunSlot(); err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
		}
		var sb strings.Builder
		for i, r := range recs {
			fmt.Fprintf(&sb, "node %d: %s\n", i, strings.Join(r.log, ","))
		}
		return eng, sb.String()
	}
	// observed runs the script under a fresh oracle, and the wake
	// oracle when wake is non-nil, and returns its delivery logs and
	// the outcome stream the oracle saw.
	observed := func(wake *invariant.WakeChecker, opts ...sim.Option) (*sim.Engine, string, *outcomeLog) {
		ck := new(invariant.Checker)
		ck.Reset(asn, model)
		outs := new(outcomeLog)
		obs := sim.Tee(ck, outs)
		if wake != nil {
			obs = sim.Tee(obs, wake)
		}
		eng, logs := run(wake, append(opts, sim.WithObserver(obs))...)
		if err := ck.Err(); err != nil {
			t.Fatalf("oracle violation (%d total) on n=%d c=%d seed=%d script=%q: %v",
				ck.Violations(), n, c, seed, script, err)
		}
		if wake != nil && wake.Err() != nil {
			t.Fatalf("wake oracle violation (%d total) on n=%d c=%d seed=%d script=%q: %v",
				wake.WakeViolations(), n, c, seed, script, wake.Err())
		}
		if outs.err != nil {
			t.Fatal(outs.err)
		}
		return eng, logs, outs
	}
	_, dense, denseOuts := observed(nil)
	if denseOuts.parked != 0 {
		t.Fatalf("dense engine reported %d parked listeners", denseOuts.parked)
	}
	sharded, got := run(nil, sim.WithShards(2))
	if sharded.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", sharded.Shards())
	}
	if got != dense {
		t.Fatalf("2 shards diverged from the observed dense run:\n--- sharded ---\n%s--- dense ---\n%s", got, dense)
	}
	sparse, got, gotOuts := observed(new(invariant.WakeChecker), sim.WithSparse())
	if !sparse.Sparse() {
		t.Fatal("WithSparse did not engage on a static assignment")
	}
	if got != dense {
		t.Fatalf("sparse diverged from the observed dense run:\n--- sparse ---\n%s--- dense ---\n%s", got, dense)
	}
	if gotOuts.String() != denseOuts.String() {
		t.Fatalf("sparse outcome stream diverged from dense:\n--- sparse ---\n%s--- dense ---\n%s", gotOuts, denseOuts)
	}
	return gotOuts, recs
}

// outcomeLog is an observer that renders every slot's channel outcomes,
// one line per slot, listing each channel's listeners as the sorted union
// of Listeners and Parked: the set a dense engine reports as Listeners. It
// counts parked entries and records the first Parked list that is not
// ascending or meets Listeners, and the most channels that reported
// parked listeners in one slot.
type outcomeLog struct {
	strings.Builder
	parked         int
	parkedChannels int
	err            error
	ls             []sim.NodeID
}

func (l *outcomeLog) OnSlot(slot int, outcomes []sim.ChannelOutcome) {
	fmt.Fprintf(l, "%d:", slot)
	chans := 0
	for _, o := range outcomes {
		l.parked += len(o.Parked)
		if len(o.Parked) > 0 {
			chans++
		}
		for i := 1; i < len(o.Parked); i++ {
			if o.Parked[i] <= o.Parked[i-1] && l.err == nil {
				l.err = fmt.Errorf("slot %d: channel %d parked list %v not ascending", slot, o.Channel, o.Parked)
			}
		}
		l.ls = append(append(l.ls[:0], o.Listeners...), o.Parked...)
		slices.Sort(l.ls)
		for i := 1; i < len(l.ls); i++ {
			if l.ls[i] == l.ls[i-1] && l.err == nil {
				l.err = fmt.Errorf("slot %d: channel %d node %d both stepped and parked", slot, o.Channel, l.ls[i])
			}
		}
		fmt.Fprintf(l, " ch%d b%v w%d l%v", o.Channel, o.Broadcasters, o.Winner, l.ls)
	}
	l.parkedChannels = max(l.parkedChannels, chans)
	l.WriteByte('\n')
}

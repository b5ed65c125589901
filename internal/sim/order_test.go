package sim_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// edgeSets is a fixed assignment over physical channels that sit on both
// sides of every power of two up to 2^top: 0, 1, 2, 3, 4, …, 2^top−1,
// 2^top. The engine sorts a slot's actions by a key derived from the
// physical channel, so an index on each side of every bit boundary meets
// each digit boundary of that sort, whatever its digit width.
type edgeSets struct {
	sets  [][]int
	total int
}

func (a *edgeSets) Nodes() int                           { return len(a.sets) }
func (a *edgeSets) Channels() int                        { return a.total }
func (a *edgeSets) PerNode() int                         { return len(a.sets[0]) }
func (a *edgeSets) MinOverlap() int                      { return 0 }
func (a *edgeSets) ChannelSet(n sim.NodeID, _ int) []int { return a.sets[n] }
func (a *edgeSets) FixedChannelSets() bool               { return true }

// mix is a splitmix64 step: the test's stateless source of plans.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// newEdgeSets gives each of n nodes per channels drawn from the edge
// channels up to 2^top, distinct within a node.
func newEdgeSets(n, per, top int) *edgeSets {
	phys := []int{0}
	for j := 0; j <= top; j++ {
		phys = append(phys, 1<<j-1, 1<<j)
	}
	slices.Sort(phys)
	phys = slices.Compact(phys)
	a := &edgeSets{sets: make([][]int, n), total: phys[len(phys)-1] + 1}
	for id := range a.sets {
		for i := 0; len(a.sets[id]) < per; i++ {
			ch := phys[mix(uint64(id)<<32|uint64(i))%uint64(len(phys))]
			if !slices.Contains(a.sets[id], ch) {
				a.sets[id] = append(a.sets[id], ch)
			}
		}
	}
	return a
}

// planned is node id's action in slot: idle, listen or broadcast on a
// local channel, a pure function of (id, slot), so a reference model can
// replay it. A broadcast carries id*1000+slot, and a quarter of them are
// quiet (sim.BroadcastQuiet).
func planned(id, slot, per int) sim.Action {
	h := mix(uint64(id)<<40 ^ uint64(slot))
	ch := int(h>>8) % per
	switch h % 3 {
	case 0:
		return sim.Idle()
	case 1:
		return sim.Listen(ch)
	default:
		if h>>40&3 == 0 {
			return sim.BroadcastQuiet(ch, id*1000+slot)
		}
		return sim.Broadcast(ch, id*1000+slot)
	}
}

// planNode steps its plan and logs every delivery. The plan ignores every
// delivery, a loss on a quiet broadcast included, so a quiet broadcast
// keeps its promise; the log records what the engine chose to deliver,
// which is every loss on a dense engine and no quiet one on a sparse
// engine. With hints it parks (quietly at even ids, which a sparse engine
// serves as plain parks, because planNode cannot catch up) and idles
// dormant for as long as its plan repeats the same idle or listen, which
// keeps the Sleep contract: the plan does not depend on deliveries, so a
// woken node resumes it unchanged.
type planNode struct {
	id, per int
	hints   bool
	log     []string
}

func (p *planNode) Step(slot int) sim.Action {
	act := planned(p.id, slot, p.per)
	if !p.hints || act.Op == sim.OpBroadcast {
		return act
	}
	for act.Sleep < 4 && planned(p.id, slot+act.Sleep+1, p.per) == act {
		act.Sleep++
	}
	act.Quiet = act.Op == sim.OpListen && act.Sleep > 0 && p.id%2 == 0
	return act
}

func (p *planNode) Deliver(slot int, ev sim.Event) {
	p.log = append(p.log, fmt.Sprintf("%d/%v/%d/%v/%d", slot, ev.Kind, ev.From, ev.Msg, ev.Channel))
}

func (p *planNode) Done() bool { return false }

// referenceRun resolves the planned actions with the slot model written
// out plainly: a map from physical channel to its broadcasters and
// listeners, filled in node order, resolved in ascending channel order
// with the engine's tie-break stream. With waive set, as on a sparse
// engine, a quiet broadcaster that loses gets no delivery. It returns
// every node's delivery log, the observer stream as outcomeLog renders
// it, and the number of slots that hold both a listener on a silent
// channel and a failed broadcaster.
func referenceRun(asn sim.Assignment, per, slots int, seed int64, model sim.CollisionModel, waive bool) ([][]string, string, int) {
	n := asn.Nodes()
	r := rng.New(seed, int64(n), 0x5e5)
	logs := make([][]string, n)
	deliver := func(slot int, to sim.NodeID, kind sim.EventKind, from sim.NodeID, msg sim.Message, ch int) {
		logs[to] = append(logs[to], fmt.Sprintf("%d/%v/%d/%v/%d", slot, kind, from, msg, ch))
	}
	var stream strings.Builder
	mixed := 0
	for slot := 0; slot < slots; slot++ {
		silent, lost := false, false
		acts := make([]sim.Action, n)
		bs, ls := map[int][]sim.NodeID{}, map[int][]sim.NodeID{}
		for id := range acts {
			acts[id] = planned(id, slot, per)
			phys := asn.ChannelSet(sim.NodeID(id), slot)[acts[id].Channel]
			switch acts[id].Op {
			case sim.OpBroadcast:
				bs[phys] = append(bs[phys], sim.NodeID(id))
			case sim.OpListen:
				ls[phys] = append(ls[phys], sim.NodeID(id))
			}
		}
		var chans []int
		for ch := range bs {
			chans = append(chans, ch)
		}
		for ch := range ls {
			if _, ok := bs[ch]; !ok {
				chans = append(chans, ch)
			}
		}
		slices.Sort(chans)
		fmt.Fprintf(&stream, "%d:", slot)
		for _, ch := range chans {
			b, l := bs[ch], ls[ch]
			winner := sim.None
			switch {
			case len(b) == 0:
				silent = true
			case model == sim.AllDelivered:
				winner = b[0]
				for _, v := range b {
					deliver(slot, v, sim.EvSendSucceeded, v, acts[v].Msg, acts[v].Channel)
				}
				for _, v := range l {
					for _, w := range b {
						deliver(slot, v, sim.EvReceived, w, acts[w].Msg, acts[v].Channel)
					}
				}
			default:
				winner = b[r.Intn(len(b))]
				lost = lost || len(b) > 1
				for _, v := range b {
					kind := sim.EvSendFailed
					if v == winner {
						kind = sim.EvSendSucceeded
					} else if waive && acts[v].Quiet {
						continue
					}
					deliver(slot, v, kind, winner, acts[winner].Msg, acts[v].Channel)
				}
				for _, v := range l {
					deliver(slot, v, sim.EvReceived, winner, acts[winner].Msg, acts[v].Channel)
				}
			}
			fmt.Fprintf(&stream, " ch%d b%v w%d l%v", ch, b, winner, l)
		}
		stream.WriteByte('\n')
		if silent && lost {
			mixed++
		}
	}
	return logs, stream.String(), mixed
}

// TestResolutionOrderMatchesReference checks every stepping mode against
// referenceRun, not against another mode, so a resolution-order fault that
// every mode shares still fails, and so does a mode that delivers a quiet
// loser's loss it should skip, or skips one it should deliver: the
// reference waives quiet losses for the sparse scan only. The dense and
// sharded scans run 96 nodes over physical channels up to 2^6, 2^12, 2^21
// and 2^30, which together meet every bit boundary of the engine's 32-bit
// key, so slots sort in every number of digit passes whatever the digit
// width; the sparse scan, whose per-channel state is O(C), runs over the
// first two. Twelve nodes on five channels fill slots small enough to take
// the engine's insertion sort, with many nodes per channel. The dense and
// sharded scans also run 8192 nodes on the partitioned topology, whose
// slots pass the dense engine's node-order delivery cut. Each run is
// checked observed (the outcome stream and the deliveries) and unobserved
// (the deliveries). Under UniformWinner every run must hold a slot with
// both a listener on a silent channel, which the dense engine's node-order
// delivery pass skips, and a failed broadcaster, which it hands the
// winner's message.
func TestResolutionOrderMatchesReference(t *testing.T) {
	const per, slots = 4, 24
	type mode struct {
		name string
		asn  sim.Assignment
		opts []sim.Option
	}
	big, err := assign.Partitioned(8192, per, 1, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	modes := []mode{
		{"dense/partitioned", big, nil},
		{"shards=3/partitioned", big, []sim.Option{sim.WithShards(3)}},
	}
	for _, sh := range []struct{ n, top int }{{96, 6}, {96, 12}, {96, 21}, {96, 30}, {12, 2}} {
		asn := newEdgeSets(sh.n, per, sh.top)
		name := fmt.Sprintf("n=%d/2^%d", sh.n, sh.top)
		modes = append(modes,
			mode{"dense/" + name, asn, nil},
			mode{"shards=3/" + name, asn, []sim.Option{sim.WithShards(3)}})
		if sh.top <= 12 {
			modes = append(modes, mode{"sparse/" + name, asn, []sim.Option{sim.WithSparse()}})
		}
	}
	for _, m := range modes {
		sparse := strings.HasPrefix(m.name, "sparse")
		for _, model := range []sim.CollisionModel{sim.UniformWinner, sim.AllDelivered} {
			if model == sim.AllDelivered && m.asn == big {
				continue // ~10⁵ deliveries a slot on the shared core, and no node-order pass
			}
			for _, observed := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/observed=%v", m.name, model, observed)
				const seed = 7
				wantLogs, wantStream, mixed := referenceRun(m.asn, per, slots, seed, model, sparse)
				if model == sim.UniformWinner && mixed == 0 {
					t.Fatalf("%s: no slot has both a silent listener and a failed broadcaster", name)
				}
				nodes := make([]*planNode, m.asn.Nodes())
				protos := make([]sim.Protocol, len(nodes))
				for i := range nodes {
					nodes[i] = &planNode{id: i, per: per, hints: sparse}
					protos[i] = nodes[i]
				}
				opts := append([]sim.Option{sim.WithCollisionModel(model)}, m.opts...)
				obs := new(outcomeLog)
				if observed {
					opts = append(opts, sim.WithObserver(obs))
				}
				e, err := sim.NewEngine(m.asn, protos, seed, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if sparse != e.Sparse() {
					t.Fatalf("%s: Sparse() = %v", name, e.Sparse())
				}
				for s := 0; s < slots; s++ {
					if err := e.RunSlot(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				for i, nd := range nodes {
					if !slices.Equal(nd.log, wantLogs[i]) {
						t.Fatalf("%s: node %d deliveries\n got %v\nwant %v", name, i, nd.log, wantLogs[i])
					}
				}
				if !observed {
					continue
				}
				if obs.err != nil {
					t.Fatalf("%s: %v", name, obs.err)
				}
				if sparse && obs.parked == 0 {
					t.Fatalf("%s: no parked listener was reported", name)
				}
				if got := obs.String(); got != wantStream {
					t.Fatalf("%s: outcome stream differs from the reference\n got %s\nwant %s", name, got, wantStream)
				}
			}
		}
	}
}

// orderNode follows its plan and appends its id to a log every node
// shares, so the log records the order in which the engine delivers
// across nodes.
type orderNode struct {
	planNode
	shared *[][2]int
}

func (o *orderNode) Deliver(slot int, _ sim.Event) {
	*o.shared = append(*o.shared, [2]int{slot, o.id})
}

// TestDenseDeliversInNodeOrder pins the dense engine's delivery order under
// UniformWinner in slots above its node-order cut (4096 entries): within a
// slot, nodes are delivered to in ascending id order, serially and
// sharded, though the channels resolve in ascending physical order, where
// the shared core comes before every private channel. The identity tests
// compare per-node logs, which the delivery order does not change; this
// test fails if delivery returns to channel order.
func TestDenseDeliversInNodeOrder(t *testing.T) {
	const n, per, slots = 8192, 4, 8
	asn, err := assign.Partitioned(n, per, 1, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		var log [][2]int
		protos := make([]sim.Protocol, n)
		for i := range protos {
			protos[i] = &orderNode{planNode{id: i, per: per}, &log}
		}
		e, err := sim.NewEngine(asn, protos, 7, sim.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if e.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", e.Shards(), shards)
		}
		for s := 0; s < slots; s++ {
			if err := e.RunSlot(); err != nil {
				t.Fatal(err)
			}
		}
		if len(log) == 0 {
			t.Fatalf("shards=%d: no delivery", shards)
		}
		for i := 1; i < len(log); i++ {
			if prev, cur := log[i-1], log[i]; prev[0] == cur[0] && prev[1] >= cur[1] {
				t.Fatalf("shards=%d: slot %d delivered to node %d after node %d", shards, cur[0], cur[1], prev[1])
			}
		}
	}
}

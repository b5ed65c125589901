package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// shardRandNode drives deterministic pseudo-random traffic and keeps a full
// textual log of everything it was delivered — the byte-identity witness for
// the sharded scan.
type shardRandNode struct {
	rand interface{ Intn(int) int }
	c    int
	log  []string
}

func (n *shardRandNode) Step(int) sim.Action {
	switch n.rand.Intn(4) {
	case 0:
		return sim.Idle()
	case 1:
		return sim.Listen(n.rand.Intn(n.c))
	default:
		return sim.Broadcast(n.rand.Intn(n.c), n.rand.Intn(1000))
	}
}

func (n *shardRandNode) Deliver(slot int, ev sim.Event) {
	n.log = append(n.log, fmt.Sprintf("%d/%v/%d/%v/%d", slot, ev.Kind, ev.From, ev.Msg, ev.Channel))
}

func (n *shardRandNode) Done() bool { return false }

// shardTrace runs a fresh engine over asnFn's assignment at the given shard
// count and returns the full execution transcript: every node's delivery log
// plus the observer's view of every channel outcome. Everything downstream
// of phase A is folded in, so any divergence in bucket order, winner draws
// or event delivery shows up as a text diff.
func shardTrace(t *testing.T, asnFn func(t *testing.T) sim.Assignment, n, c, slots, shards int) string {
	t.Helper()
	asn := asnFn(t)
	nodes := make([]sim.Protocol, n)
	recs := make([]*shardRandNode, n)
	for i := range nodes {
		recs[i] = &shardRandNode{rand: rng.New(5, int64(i), 11), c: c}
		nodes[i] = recs[i]
	}
	var sb strings.Builder
	obs := sim.ObserverFunc(func(slot int, outcomes []sim.ChannelOutcome) {
		for _, oc := range outcomes {
			fmt.Fprintf(&sb, "obs %d ch%d b%v w%v l%v\n", slot, oc.Channel, oc.Broadcasters, oc.Winner, oc.Listeners)
		}
	})
	eng := newEngine(t, asn, nodes, 5, sim.WithShards(shards), sim.WithObserver(obs))
	if want := shards; want > 1 {
		if got := eng.Shards(); got != want {
			t.Fatalf("Shards() = %d, want %d", got, want)
		}
	}
	for s := 0; s < slots; s++ {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range recs {
		fmt.Fprintf(&sb, "node %d: %s\n", i, strings.Join(r.log, ","))
	}
	return sb.String()
}

// TestShardedScanByteIdentity is the engine-level byte-identity contract of
// WithShards: for shard counts 2, 4 and 8 — including counts that do not
// divide the node count — the complete execution transcript (all delivered
// events and all observed channel outcomes) must equal the serial engine's,
// on both a dense shared-core topology and a partitioned one whose channel
// space is much larger than the node count.
func TestShardedScanByteIdentity(t *testing.T) {
	const n, c, slots = 97, 6, 40
	topologies := []struct {
		name string
		fn   func(t *testing.T) sim.Assignment
	}{
		{"shared-core", func(t *testing.T) sim.Assignment {
			asn, err := assign.SharedCore(n, c, 2, 18, assign.LocalLabels, 3)
			if err != nil {
				t.Fatal(err)
			}
			return asn
		}},
		{"partitioned", func(t *testing.T) sim.Assignment {
			asn, err := assign.Partitioned(n, c, 2, assign.LocalLabels, 3)
			if err != nil {
				t.Fatal(err)
			}
			return asn
		}},
	}
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			serial := shardTrace(t, topo.fn, n, c, slots, 1)
			for _, shards := range []int{2, 4, 8} {
				if got := shardTrace(t, topo.fn, n, c, slots, shards); got != serial {
					t.Errorf("%d shards diverged from serial execution:\n--- %d shards ---\n%s\n--- serial ---\n%s",
						shards, shards, got, serial)
				}
			}
		})
	}
}

// modeGateCase is one row of the engine's mode gate: requested shards,
// requested sparse stepping, an attached observer and the assignment's
// capabilities, and the effective Shards() and Sparse() they must resolve to.
type modeGateCase struct {
	name             string
	asn              sim.Assignment
	shards           int
	sparse, observer bool
	wantShards       int
	wantSparse       bool
}

const gateNodes = 8

// gateAssignments returns a static assignment, which is concurrent and
// slot-invariant, and an underAdvertised one, which is neither.
func gateAssignments(t *testing.T) (static, bare sim.Assignment) {
	return fullOverlap(t, gateNodes, 2), &underAdvertised{claim: 2, sets: [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}}}
}

// TestShardsClampAndGate pins the gate's shard rules: values clamp to [1, n]
// and assignments that do not implement ConcurrentAssignment silently run
// serial.
func TestShardsClampAndGate(t *testing.T) {
	static, bare := gateAssignments(t)
	runModeGate(t, []modeGateCase{
		{"zero shards clamp to 1", static, 0, false, false, 1, false},
		{"negative shards clamp to 1", static, -3, false, false, 1, false},
		{"4 shards", static, 4, false, false, 4, false},
		{"shards clamp to n", static, 1000, false, false, gateNodes, false},
		{"non-concurrent assignment runs serial", bare, 4, false, false, 1, false},
	})
}

// TestSparseGates pins the gate's sparse rules: sparse stepping needs a
// slot-invariant assignment and no observer, and it forces one shard.
func TestSparseGates(t *testing.T) {
	static, bare := gateAssignments(t)
	runModeGate(t, []modeGateCase{
		{"sparse forces one shard", static, 4, true, false, 1, true},
		{"observer forces dense", static, 1, true, true, 1, false},
		{"observer forces dense and keeps shards", static, 4, true, true, 4, false},
		{"non-slot-invariant assignment runs dense", bare, 1, true, false, 1, false},
	})
}

// runModeGate checks each case's effective Shards() and Sparse(), then that
// an option-free Reset returns the engine to dense, serial stepping.
func runModeGate(t *testing.T, cases []modeGateCase) {
	t.Helper()
	obs := sim.ObserverFunc(func(int, []sim.ChannelOutcome) {})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes, _ := collidingScripts(tc.asn.Nodes(), 1)
			opts := []sim.Option{sim.WithShards(tc.shards)}
			if tc.sparse {
				opts = append(opts, sim.WithSparse())
			}
			if tc.observer {
				opts = append(opts, sim.WithObserver(obs))
			}
			e := newEngine(t, tc.asn, nodes, 1, opts...)
			if e.Shards() != tc.wantShards || e.Sparse() != tc.wantSparse {
				t.Errorf("Shards(), Sparse() = %d, %v, want %d, %v", e.Shards(), e.Sparse(), tc.wantShards, tc.wantSparse)
			}
			nodes, _ = collidingScripts(tc.asn.Nodes(), 1)
			if err := e.Reset(tc.asn, nodes, 1); err != nil {
				t.Fatal(err)
			}
			if e.Shards() != 1 || e.Sparse() {
				t.Errorf("after option-free Reset: Shards(), Sparse() = %d, %v, want 1, false", e.Shards(), e.Sparse())
			}
		})
	}
}

// underAdvertisedConc is underAdvertised plus the concurrency capability, so
// a sharded scan runs over an assignment that hands out physical indices
// beyond its advertised channel count — the growScratch-under-merge path.
type underAdvertisedConc struct{ underAdvertised }

func (a *underAdvertisedConc) ConcurrentChannelSet() bool { return true }

// TestShardedGrowScratchPastAdvertised replays the growScratch scenario with
// a sharded scan: the oversized physical index is discovered during the
// serial merge, the scratch grows once, and delivery proceeds exactly as in
// the serial engine.
func TestShardedGrowScratchPastAdvertised(t *testing.T) {
	const high = 100
	asn := &underAdvertisedConc{underAdvertised{
		claim: 2,
		sets:  [][]int{{0, high}, {0, high}, {0, high}, {0, high}},
	}}
	sender := &scriptNode{actions: []sim.Action{sim.Broadcast(1, "over")}}
	listeners := []*scriptNode{
		{actions: []sim.Action{sim.Listen(1)}},
		{actions: []sim.Action{sim.Listen(1)}},
		{actions: []sim.Action{sim.Listen(1)}},
	}
	e := newEngine(t, asn, []sim.Protocol{sender, listeners[0], listeners[1], listeners[2]}, 9, sim.WithShards(2))
	if got := e.Shards(); got != 2 {
		t.Fatalf("Shards() = %d, want 2", got)
	}
	if err := e.RunSlot(); err != nil {
		t.Fatal(err)
	}
	if len(sender.events) != 1 || sender.events[0].Kind != sim.EvSendSucceeded {
		t.Fatalf("sender events = %+v, want one EvSendSucceeded", sender.events)
	}
	for i, l := range listeners {
		if len(l.events) != 1 || l.events[0].Kind != sim.EvReceived || l.events[0].Msg != "over" {
			t.Fatalf("listener %d events = %+v, want one EvReceived carrying %q", i, l.events, "over")
		}
	}
}

// TestShardedErrorMatchesSerial pins error determinism: when several nodes
// in different shards produce invalid actions in the same slot, the sharded
// scan must report the lowest-indexed failure with exactly the serial
// engine's message.
func TestShardedErrorMatchesSerial(t *testing.T) {
	const n, c = 97, 3
	asn := fullOverlap(t, n, c)
	mkNodes := func() []sim.Protocol {
		nodes := make([]sim.Protocol, n)
		for i := range nodes {
			s := &scriptNode{actions: []sim.Action{sim.Listen(0)}}
			if i == 23 || i == 71 { // land in different quarters of [0, n)
				s.actions = []sim.Action{sim.Listen(99)}
			}
			nodes[i] = s
		}
		return nodes
	}
	serial := newEngine(t, asn, mkNodes(), 1)
	serialErr := serial.RunSlot()
	if serialErr == nil {
		t.Fatal("serial engine accepted an out-of-range local channel")
	}
	sharded := newEngine(t, asn, mkNodes(), 1, sim.WithShards(4))
	shardedErr := sharded.RunSlot()
	if shardedErr == nil {
		t.Fatal("sharded engine accepted an out-of-range local channel")
	}
	if serialErr.Error() != shardedErr.Error() {
		t.Errorf("sharded error %q != serial error %q", shardedErr, serialErr)
	}
	if want := "node 23"; !strings.Contains(shardedErr.Error(), want) {
		t.Errorf("sharded error %q does not name the lowest failing node (%s)", shardedErr, want)
	}
}

package sim_test

import (
	"runtime"
	"testing"

	"github.com/cogradio/crn/internal/sim"
)

func collidingScripts(n, slots int) ([]sim.Protocol, []*scriptNode) {
	nodes := make([]sim.Protocol, n)
	scripts := make([]*scriptNode, n)
	for i := range nodes {
		s := &scriptNode{}
		for slot := 0; slot < slots; slot++ {
			// Half the nodes contend on channel 0, the rest listen there —
			// every slot draws from the engine's tie-break stream.
			if i%2 == 0 {
				s.actions = append(s.actions, sim.Broadcast(0, i*1000+slot))
			} else {
				s.actions = append(s.actions, sim.Listen(0))
			}
		}
		scripts[i] = s
		nodes[i] = s
	}
	return nodes, scripts
}

func runSlots(t *testing.T, e *sim.Engine, slots int) {
	t.Helper()
	for i := 0; i < slots; i++ {
		if err := e.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
}

func sameEvents(t *testing.T, want, got []*scriptNode) {
	t.Helper()
	for u := range want {
		w, g := want[u].events, got[u].events
		if len(w) != len(g) {
			t.Fatalf("node %d: %d events != %d events", u, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("node %d event %d: %+v != %+v", u, i, g[i], w[i])
			}
		}
	}
}

// TestResetMatchesFresh is the engine half of the determinism-vs-reuse
// contract: an engine that has already executed one run, then is Reset, must
// replay exactly the execution a fresh engine produces — including every
// collision tie-break.
func TestResetMatchesFresh(t *testing.T) {
	const n, c, slots, seed = 6, 3, 20, 77
	asn := fullOverlap(t, n, c)

	freshNodes, freshScripts := collidingScripts(n, slots)
	fresh := newEngine(t, asn, freshNodes, seed)
	runSlots(t, fresh, slots)

	// Dirty a reusable engine with a different run (different seed and node
	// count) before resetting it into the fresh engine's configuration.
	dirtyNodes, _ := collidingScripts(4, 5)
	reused := newEngine(t, fullOverlap(t, 4, 2), dirtyNodes, 5)
	runSlots(t, reused, 5)

	againNodes, againScripts := collidingScripts(n, slots)
	if err := reused.Reset(asn, againNodes, seed); err != nil {
		t.Fatal(err)
	}
	if reused.Slot() != 0 {
		t.Fatalf("Reset left slot counter at %d", reused.Slot())
	}
	runSlots(t, reused, slots)
	sameEvents(t, freshScripts, againScripts)
}

// TestResetRestoresDefaults checks that observer and collision model do not
// leak from a previous configuration: Reset without options must behave like
// a fresh NewEngine without options.
func TestResetRestoresDefaults(t *testing.T) {
	const n, slots = 4, 6
	asn := fullOverlap(t, n, 2)
	observed := 0
	obs := sim.ObserverFunc(func(int, []sim.ChannelOutcome) { observed++ })

	nodes, _ := collidingScripts(n, slots)
	e := newEngine(t, asn, nodes, 1, sim.WithObserver(obs), sim.WithCollisionModel(sim.AllDelivered))
	runSlots(t, e, slots)
	if observed != slots {
		t.Fatalf("sanity: observer saw %d slots, want %d", observed, slots)
	}

	nodes2, scripts2 := collidingScripts(n, slots)
	if err := e.Reset(asn, nodes2, 1); err != nil {
		t.Fatal(err)
	}
	runSlots(t, e, slots)
	if observed != slots {
		t.Errorf("observer leaked through Reset: saw %d slots, want %d", observed, slots)
	}
	// Under the default UniformWinner model a losing broadcaster receives
	// EvSendFailed; under the leaked AllDelivered model it never would.
	failed := 0
	for _, s := range scripts2 {
		for _, ev := range s.events {
			if ev.Kind == sim.EvSendFailed {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Error("collision model leaked through Reset: no EvSendFailed under default model")
	}
}

// TestResetValidates mirrors NewEngine's validation.
func TestResetValidates(t *testing.T) {
	nodes, _ := collidingScripts(4, 1)
	e := newEngine(t, fullOverlap(t, 4, 2), nodes, 1)
	if err := e.Reset(nil, nodes, 1); err == nil {
		t.Error("Reset accepted a nil assignment")
	}
	if err := e.Reset(fullOverlap(t, 5, 2), nodes, 1); err == nil {
		t.Error("Reset accepted a protocol count mismatch")
	}
	if err := e.Reset(fullOverlap(t, 4, 2), []sim.Protocol{nodes[0], nil, nodes[2], nodes[3]}, 1); err == nil {
		t.Error("Reset accepted a nil protocol")
	}
}

// underAdvertised claims a small channel count but hands out physical
// indices far beyond it, forcing the engine's scratch to grow mid-run.
type underAdvertised struct {
	claim int
	sets  [][]int
}

func (a *underAdvertised) Nodes() int                           { return len(a.sets) }
func (a *underAdvertised) Channels() int                        { return a.claim }
func (a *underAdvertised) PerNode() int                         { return len(a.sets[0]) }
func (a *underAdvertised) MinOverlap() int                      { return 1 }
func (a *underAdvertised) ChannelSet(n sim.NodeID, _ int) []int { return a.sets[n] }

// TestGrowScratchPastAdvertisedChannels drives an assignment past its
// advertised Channels() and checks that delivery on the oversized physical
// index still works: the engine's scratch is sized by nodes, so an index
// past the advertised count needs no resize.
func TestGrowScratchPastAdvertisedChannels(t *testing.T) {
	const high = 100 // far above the advertised channel count of 2
	asn := &underAdvertised{claim: 2, sets: [][]int{{0, high}, {0, high}}}
	sender := &scriptNode{actions: []sim.Action{sim.Broadcast(1, "over")}}
	receiver := &scriptNode{actions: []sim.Action{sim.Listen(1)}}
	e := newEngine(t, asn, []sim.Protocol{sender, receiver}, 9)
	if err := e.RunSlot(); err != nil {
		t.Fatal(err)
	}
	if len(receiver.events) != 1 || receiver.events[0].Kind != sim.EvReceived || receiver.events[0].Msg != "over" {
		t.Fatalf("receiver events = %+v, want one EvReceived carrying %q", receiver.events, "over")
	}
	if len(sender.events) != 1 || sender.events[0].Kind != sim.EvSendSucceeded {
		t.Fatalf("sender events = %+v, want one EvSendSucceeded", sender.events)
	}
}

// spreadNode broadcasts a constant message on a slot-dependent local
// channel in one slot of three and listens in the others, allocating
// nothing itself.
type spreadNode struct{ id int }

func (s *spreadNode) Step(slot int) sim.Action {
	ch := (s.id + slot) % 4
	if (s.id+slot)%3 == 0 {
		return sim.Broadcast(ch, "m")
	}
	return sim.Listen(ch)
}

func (s *spreadNode) Deliver(int, sim.Event) {}
func (s *spreadNode) Done() bool             { return false }

// TestDenseScratchIsPerNode pins that a dense engine's scratch grows with
// its nodes, not with the assignment's channels: NewEngine and eight slots
// over C = 10⁶ channels and n = 1000 nodes, spread over the whole channel
// range, allocate fewer bytes than a bound that depends on n alone.
func TestDenseScratchIsPerNode(t *testing.T) {
	const n, channels = 1000, 1_000_000
	asn := &edgeSets{sets: make([][]int, n), total: channels}
	protos := make([]sim.Protocol, n)
	for i := range protos {
		for j := range 4 {
			asn.sets[i] = append(asn.sets[i], (i*4+j)*(channels/(4*n)))
		}
		protos[i] = &spreadNode{id: i}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := sim.NewEngine(asn, protos, 1)
	if err != nil {
		t.Fatal(err)
	}
	for range 8 {
		if err := e.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const bound = 64<<10 + 256*n
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("NewEngine and 8 slots over %d channels allocated %d B, want at most %d B (n = %d)", channels, got, bound, n)
	}
}

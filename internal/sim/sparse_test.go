package sim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// drowsyNode drives pseudo-random traffic laced with random dormancy hints
// while honouring the hint contract exactly: once it has promised to repeat
// an action for k slots it returns that same action — without drawing from
// its RNG — until the promise expires or a delivery wakes it. Because fresh
// draws happen at exactly the same slots whether the engine steps it densely
// or skips the promised stretch, any divergence between the two modes is an
// engine bug, not a protocol artifact.
type drowsyNode struct {
	id   int
	rand *rand.Rand
	c    int

	pending      sim.Action
	pendingUntil int // last slot covered by the current promise; -1 when none

	draws     int // fresh RNG draws taken (identical under dense and sparse)
	received  int // EvReceived deliveries
	doneDraws int // retire after this many fresh draws (0 = never)
	doneHeard int // retire after this many receptions (0 = never)

	log []string
}

var _ sim.Protocol = (*drowsyNode)(nil)

func (n *drowsyNode) Step(slot int) sim.Action {
	if slot <= n.pendingUntil {
		act := n.pending
		if act.Sleep < sim.Forever {
			act.Sleep = n.pendingUntil - slot
		}
		return act
	}
	n.draws++
	act := n.fresh()
	if act.Op != sim.OpBroadcast && act.Sleep > 0 {
		n.pending = act
		n.pendingUntil = slot + act.Sleep
	} else {
		n.pendingUntil = -1
	}
	return act
}

func (n *drowsyNode) fresh() sim.Action {
	switch n.rand.Intn(8) {
	case 0:
		return sim.Idle()
	case 1:
		return sim.Sleep(1 + n.rand.Intn(6))
	case 2:
		return sim.ParkListen(n.rand.Intn(n.c), 1+n.rand.Intn(6))
	case 7:
		// A quiet park: deliveries still mutate state (reception counters,
		// the log, even Done) but never void the promise.
		return sim.ParkListenQuiet(n.rand.Intn(n.c), 1+n.rand.Intn(6))
	case 3:
		// A dormancy hint on a broadcast must be ignored by the engine: the
		// node stays awake and is stepped again next slot in both modes.
		act := sim.Broadcast(n.rand.Intn(n.c), n.id*100000+n.draws)
		act.Sleep = 3
		return act
	case 4, 5:
		return sim.Listen(n.rand.Intn(n.c))
	default:
		return sim.Broadcast(n.rand.Intn(n.c), n.id*100000+n.draws)
	}
}

func (n *drowsyNode) Deliver(slot int, ev sim.Event) {
	// A delivery voids an outstanding promise — the engine woke us, and the
	// contract says the next Step may change course — unless the promise was
	// quiet, in which case the node keeps repeating its parked listen while
	// its counters (and possibly Done) change underneath.
	if !(slot <= n.pendingUntil && n.pending.Quiet) {
		n.pendingUntil = -1
	}
	if ev.Kind == sim.EvReceived {
		n.received++
	}
	n.log = append(n.log, fmt.Sprintf("%d/%v/%d/%v/%d", slot, ev.Kind, ev.From, ev.Msg, ev.Channel))
}

func (n *drowsyNode) Done() bool {
	return (n.doneDraws > 0 && n.draws >= n.doneDraws) ||
		(n.doneHeard > 0 && n.received >= n.doneHeard)
}

// drowsyTrace runs n chaos nodes for the given slot budget and returns the
// full execution transcript: every node's delivery log, fresh-draw count and
// final promise state. In sparse mode the wake-queue oracle is attached, so
// any dormant node that is stepped — or awake node that is skipped — fails
// the run directly.
func drowsyTrace(t *testing.T, asnFn func(t *testing.T) sim.Assignment, n, c, slots int, model sim.CollisionModel, sparse bool) string {
	t.Helper()
	asn := asnFn(t)
	nodes := make([]sim.Protocol, n)
	recs := make([]*drowsyNode, n)
	for i := range nodes {
		recs[i] = &drowsyNode{id: i, rand: rng.New(7, int64(i), 23), c: c, pendingUntil: -1}
		switch i % 5 {
		case 1:
			recs[i].doneDraws = 4 + i%7 // retires mid-run at a fresh draw
		case 2:
			recs[i].doneHeard = 2 // retires the moment a delivery informs it
		}
		nodes[i] = recs[i]
	}
	opts := []sim.Option{sim.WithCollisionModel(model)}
	var wake *invariant.WakeChecker
	if sparse {
		wake = new(invariant.WakeChecker)
		wake.Reset(n)
		opts = append(opts, sim.WithSparse(), sim.WithWakeAudit(wake))
	}
	eng := newEngine(t, asn, nodes, 7, opts...)
	if eng.Sparse() != sparse {
		t.Fatalf("Sparse() = %v, want %v", eng.Sparse(), sparse)
	}
	for s := 0; s < slots; s++ {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	if wake != nil {
		if err := wake.Err(); err != nil {
			t.Fatalf("wake-queue oracle (%d violations): %v", wake.WakeViolations(), err)
		}
	}
	var sb strings.Builder
	for i, r := range recs {
		fmt.Fprintf(&sb, "node %d: draws=%d until=%d done=%v log=%s\n",
			i, r.draws, r.pendingUntil, r.Done(), strings.Join(r.log, ","))
	}
	fmt.Fprintf(&sb, "slot=%d alldone=%v\n", eng.Slot(), eng.AllDone())
	return sb.String()
}

// TestSparseByteIdentityChaos is the engine-level byte-identity contract of
// WithSparse: over random traffic with random finite dormancy hints, parked
// listens, ignored broadcast hints and mid-run retirement, the complete
// execution transcript must equal the dense engine's under both collision
// models and on topologies that exercise channel contention, partition
// silence and full overlap. The sparse runs carry the wake-queue oracle, so
// the schedule is additionally cross-checked against every hint as it runs.
func TestSparseByteIdentityChaos(t *testing.T) {
	const n, c, slots = 97, 6, 160
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
		{"full-overlap", func(t *testing.T) sim.Assignment {
			return fullOverlap(t, n, c)
		}},
	}
	for _, topo := range topologies {
		for _, model := range []sim.CollisionModel{sim.UniformWinner, sim.AllDelivered} {
			t.Run(fmt.Sprintf("%s/%v", topo.name, model), func(t *testing.T) {
				dense := drowsyTrace(t, topo.fn, n, c, slots, model, false)
				sparseT := drowsyTrace(t, topo.fn, n, c, slots, model, true)
				if sparseT != dense {
					t.Errorf("sparse diverged from dense:\n--- sparse ---\n%s\n--- dense ---\n%s", sparseT, dense)
				}
			})
		}
	}
}

// TestSparseForeverPark pins the Forever contract: a node that parks a
// listen forever is never stepped again, yet still hears broadcasts on its
// channel (which void the promise); a node idling forever is simply gone.
// The transcript must match the dense engine's, where both nodes are stepped
// every slot.
func TestSparseForeverPark(t *testing.T) {
	const n, c, slots = 6, 2, 30
	run := func(sparse bool) string {
		asn := fullOverlap(t, n, c)
		nodes := make([]sim.Protocol, n)
		recs := make([]*drowsyNode, n)
		for i := range nodes {
			recs[i] = &drowsyNode{id: i, rand: rng.New(11, int64(i), 29), c: c, pendingUntil: -1}
			nodes[i] = recs[i]
		}
		// Node 0 parks a listen on channel 1 forever; node 1 idles forever.
		// A scripted promise with Sleep >= Forever never expires on its own.
		recs[0].pending = sim.ParkListen(1, 0)
		recs[0].pendingUntil = slots * 2
		recs[1].pending = sim.Sleep(0)
		recs[1].pendingUntil = slots * 2
		for _, r := range recs[:2] {
			r.pending.Sleep = sim.Forever
		}
		var opts []sim.Option
		var wake *invariant.WakeChecker
		if sparse {
			wake = new(invariant.WakeChecker)
			wake.Reset(n)
			opts = append(opts, sim.WithSparse(), sim.WithWakeAudit(wake))
		}
		eng := newEngine(t, asn, nodes, 11, opts...)
		for s := 0; s < slots; s++ {
			if err := eng.RunSlot(); err != nil {
				t.Fatal(err)
			}
		}
		if wake != nil {
			if err := wake.Err(); err != nil {
				t.Fatalf("wake-queue oracle: %v", err)
			}
		}
		var sb strings.Builder
		for i, r := range recs {
			fmt.Fprintf(&sb, "node %d: draws=%d log=%s\n", i, r.draws, strings.Join(r.log, ","))
		}
		return sb.String()
	}
	// The chaos Step honours pendingUntil before ever touching its RNG, so
	// in dense mode nodes 0 and 1 repeat their scripted action every slot;
	// in sparse mode they are parked at slot 0 and only node 0 can wake (by
	// hearing a broadcast on channel 1, after which it runs chaotically).
	dense := run(false)
	sparseT := run(true)
	if sparseT != dense {
		t.Errorf("sparse diverged from dense:\n--- sparse ---\n%s\n--- dense ---\n%s", sparseT, dense)
	}
	if !strings.Contains(dense, "node 1: draws=0 log=\n") {
		t.Errorf("forever-idle node was woken:\n%s", dense)
	}
}

// TestSparseErrorMatchesDense pins error determinism: when a node produces
// an invalid action while lower-numbered nodes are dormant, the sparse scan
// must report exactly the dense engine's message — parked nodes were
// validated when they parked and cannot become the first failure.
func TestSparseErrorMatchesDense(t *testing.T) {
	const n, c = 12, 3
	asn := fullOverlap(t, n, c)
	mkNodes := func() []sim.Protocol {
		nodes := make([]sim.Protocol, n)
		for i := range nodes {
			s := &scriptNode{actions: []sim.Action{sim.Sleep(40), sim.Idle()}}
			if i == 7 {
				s.actions = []sim.Action{sim.Idle(), sim.Listen(99)}
			}
			nodes[i] = s
		}
		return nodes
	}
	run := func(sparse bool) error {
		var opts []sim.Option
		if sparse {
			opts = append(opts, sim.WithSparse())
		}
		e := newEngine(t, asn, mkNodes(), 3, opts...)
		for s := 0; s < 2; s++ {
			if err := e.RunSlot(); err != nil {
				return err
			}
		}
		return nil
	}
	denseErr := run(false)
	if denseErr == nil {
		t.Fatal("dense engine accepted an out-of-range local channel")
	}
	sparseErr := run(true)
	if sparseErr == nil {
		t.Fatal("sparse engine accepted an out-of-range local channel")
	}
	if denseErr.Error() != sparseErr.Error() {
		t.Errorf("sparse error %q != dense error %q", sparseErr, denseErr)
	}
	if want := "node 7"; !strings.Contains(sparseErr.Error(), want) {
		t.Errorf("sparse error %q does not name the failing node (%s)", sparseErr, want)
	}
}

// TestSparseAllDoneRetirement pins the O(1) AllDone path: nodes that retire
// while parked or mid-scan are counted exactly once, and AllDone flips true
// in the same slot as under the dense engine.
func TestSparseAllDoneRetirement(t *testing.T) {
	const n, c, slots = 24, 3, 80
	doneSlot := func(sparse bool) int {
		asn := fullOverlap(t, n, c)
		nodes := make([]sim.Protocol, n)
		for i := range nodes {
			nd := &drowsyNode{id: i, rand: rng.New(13, int64(i), 31), c: c, doneDraws: 3 + i%5, pendingUntil: -1}
			nodes[i] = nd
		}
		var opts []sim.Option
		if sparse {
			opts = append(opts, sim.WithSparse())
		}
		eng := newEngine(t, asn, nodes, 13, opts...)
		for s := 0; s < slots; s++ {
			if eng.AllDone() {
				return s
			}
			if err := eng.RunSlot(); err != nil {
				t.Fatal(err)
			}
		}
		return -1
	}
	dense := doneSlot(false)
	sparseS := doneSlot(true)
	if dense == -1 {
		t.Fatal("dense run never completed — test scenario broken")
	}
	if sparseS != dense {
		t.Errorf("sparse AllDone at slot %d, dense at slot %d", sparseS, dense)
	}
}

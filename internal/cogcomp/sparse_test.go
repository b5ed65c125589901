package cogcomp_test

import (
	"bytes"
	"io"
	"testing"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// TestSparseMatchesDense is COGCOMP's sparse-vs-dense equivalence test: with
// event-driven stepping the census window and phase-four holding patterns
// are mostly skipped, yet every observable — aggregate, slot counts, phase
// breakdown, tree, mediators, message sizes — must match the dense run
// exactly, across topologies, aggregate functions and seeds. Both sides run
// under the oracle and a JSONL trace, which must not stop the sparse side
// from stepping sparsely, and the traces must be byte-identical: the census
// window's parked listeners are reported exactly as dense stepping reports
// them.
func TestSparseMatchesDense(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(seed int64) (*assign.Static, error)
	}{
		{"partitioned", func(seed int64) (*assign.Static, error) {
			return assign.Partitioned(24, 6, 3, assign.LocalLabels, seed)
		}},
		{"shared-core", func(seed int64) (*assign.Static, error) {
			return assign.SharedCore(16, 6, 2, 18, assign.LocalLabels, seed)
		}},
		{"full-overlap", func(seed int64) (*assign.Static, error) {
			return assign.FullOverlap(12, 4, assign.GlobalLabels, seed)
		}},
	}
	funcs := []aggfunc.Func{aggfunc.Sum{}, aggfunc.Min{}, aggfunc.Collect{}}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				seed := int64(500 + trial)
				asn, err := sh.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				inputs := trialInputs(asn.Nodes(), int64(trial))
				f := funcs[trial%len(funcs)]
				run := func(sparse bool) (*cogcomp.Result, []byte, error) {
					cfg := cogcomp.Config{Func: f, Check: true, Sparse: sparse, Trace: trace.NewJSONL(io.Discard)}
					_, eng, _, err := new(cogcomp.Arena).Prepare(asn, 0, inputs, seed, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if eng.Sparse() != sparse {
						t.Fatalf("trial %d: checked, traced engine Sparse() = %v, want %v", trial, eng.Sparse(), sparse)
					}
					var buf bytes.Buffer
					cfg.Trace = trace.NewJSONL(&buf)
					res, err := cogcomp.Run(asn, 0, inputs, seed, cfg)
					return res, buf.Bytes(), err
				}
				want, wantTrace, wantErr := run(false)
				got, gotTrace, gotErr := run(true)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("trial %d: error mismatch: dense %v, sparse %v", trial, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Fatalf("trial %d: sparse trace (%d bytes) != dense trace (%d bytes)", trial, len(gotTrace), len(wantTrace))
				}
				if !invariant.AggEqual(got.Value, want.Value) {
					t.Fatalf("trial %d: sparse value %v != dense %v", trial, got.Value, want.Value)
				}
				if got.TotalSlots != want.TotalSlots || got.Complete != want.Complete ||
					got.Phase1Slots != want.Phase1Slots || got.Phase2Slots != want.Phase2Slots ||
					got.Phase3Slots != want.Phase3Slots || got.Phase4Slots != want.Phase4Slots ||
					got.InformedAfterPhase1 != want.InformedAfterPhase1 ||
					got.MaxMessageSize != want.MaxMessageSize || got.Mediators != want.Mediators {
					t.Fatalf("trial %d: sparse result %+v != dense %+v", trial, got, want)
				}
				for i := range want.Parents {
					if got.Parents[i] != want.Parents[i] {
						t.Fatalf("trial %d node %d: sparse parent %d != dense %d", trial, i, got.Parents[i], want.Parents[i])
					}
				}
			}
		})
	}
}

// TestSparseSessionMatchesDense covers the multi-round session path: parked
// round-finished nodes must wake exactly at round boundaries, reproducing
// the dense session value for value, completion flag and finish step. Both
// sides run under the oracle.
func TestSparseSessionMatchesDense(t *testing.T) {
	const n = 16
	for trial := 0; trial < 3; trial++ {
		seed := int64(60 + trial)
		asn, err := assign.SharedCore(n, 6, 2, 18, assign.LocalLabels, seed)
		if err != nil {
			t.Fatal(err)
		}
		rounds := make([][]int64, 4)
		for r := range rounds {
			rounds[r] = trialInputs(n, int64(r*10+trial))
		}
		want, wantErr := cogcomp.RunRounds(asn, 0, rounds, seed, cogcomp.SessionConfig{Check: true})
		got, gotErr := cogcomp.RunRounds(asn, 0, rounds, seed, cogcomp.SessionConfig{Check: true, Sparse: true})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: dense %v, sparse %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if got.TotalSlots != want.TotalSlots || got.SetupSlots != want.SetupSlots {
			t.Fatalf("trial %d: sparse slots (%d,%d) != dense (%d,%d)", trial,
				got.TotalSlots, got.SetupSlots, want.TotalSlots, want.SetupSlots)
		}
		for r := range want.Values {
			if !invariant.AggEqual(got.Values[r], want.Values[r]) || got.Complete[r] != want.Complete[r] ||
				got.FinishSteps[r] != want.FinishSteps[r] {
				t.Fatalf("trial %d round %d: sparse (%v,%v,%d) != dense (%v,%v,%d)", trial, r,
					got.Values[r], got.Complete[r], got.FinishSteps[r],
					want.Values[r], want.Complete[r], want.FinishSteps[r])
			}
		}
	}
}

// TestSparseStandsAudited runs COGCOMP's census and convergecast stands
// under the wake-queue oracle: every node is wrapped by an
// invariant.WakeChecker, which forwards CatchUp, so the oracle sees each
// stand and quiet park served deaf and audits the engine's wakes, stand
// groups and catch-up ranges from outside, while the result must still
// match the dense run's.
func TestSparseStandsAudited(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		seed := int64(70 + trial)
		asn, err := assign.SharedCore(48, 6, 2, 12, assign.LocalLabels, seed)
		if err != nil {
			t.Fatal(err)
		}
		inputs := trialInputs(asn.Nodes(), int64(trial))
		want, err := cogcomp.Run(asn, 0, inputs, seed, cogcomp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		wake := new(invariant.WakeChecker)
		wake.Reset(asn.Nodes(), sim.UniformWinner)
		cfg := cogcomp.Config{Sparse: true, Check: true, Observer: wake}
		got, err := new(cogcomp.Arena).RunWith(asn, 0, inputs, seed, cfg,
			func(id sim.NodeID, nd *cogcomp.Node) sim.Protocol { return wake.Wrap(id, nd) })
		if err != nil {
			t.Fatal(err)
		}
		if err := wake.Err(); err != nil {
			t.Fatalf("trial %d: wake oracle (%d violations): %v", trial, wake.WakeViolations(), err)
		}
		if !invariant.AggEqual(got.Value, want.Value) || got.TotalSlots != want.TotalSlots {
			t.Fatalf("trial %d: audited sparse run (%v, %d slots) != dense (%v, %d slots)",
				trial, got.Value, got.TotalSlots, want.Value, want.TotalSlots)
		}
	}
}

// workCounter wraps node id and counts its Step and Deliver calls in the
// census window and in phase four, its phase-one losses and, when the
// windows track senders, the deliveries it gets as a waiting sender,
// forwarding CatchUp so the engine still serves the node deaf.
type workCounter struct {
	id      sim.NodeID
	p       *cogcomp.Node
	windows *phaseWindows
}

// phaseWindows holds the census window [p2, p3) and phase four's start p4,
// the calls counted in them, and the EvSendFailed deliveries before p2.
// A non-nil sender holds each node's phase-four sender state (see
// workCounter.Step), and waited the deliveries to waiting senders.
type phaseWindows struct {
	p2, p3, p4 int
	calls      int
	lost       int
	sender     []senderState
	waited     int
}

// senderState is where a node stands as a phase-four sender.
type senderState uint8

const (
	notSending senderState = iota
	waiting                // its value is final and has not won yet
	won
)

func (w *phaseWindows) count(slot int) {
	if (slot >= w.p2 && slot < w.p3) || slot >= w.p4 {
		w.calls++
	}
}

// Step starts the node's wait as a sender at its first phase-four Step
// with its value final: it is neither the source nor a mediator, its
// parent has not acked it, and it has merged a value from every member of
// every cluster it informed (Progress counts merges until the ack).
func (c workCounter) Step(slot int) sim.Action {
	w := c.windows
	w.count(slot)
	if w.sender != nil && slot >= w.p4 && w.sender[c.id] == notSending &&
		c.p.Parent() != sim.None && !c.p.IsMediator() && !c.p.OwnSent() {
		members := 0
		c.p.CollectedSnapshot(func(_, _, size int) { members += size })
		if c.p.Progress() >= members {
			w.sender[c.id] = waiting
		}
	}
	return c.p.Step(slot)
}

func (c workCounter) Deliver(slot int, ev sim.Event) {
	w := c.windows
	w.count(slot)
	if ev.Kind == sim.EvSendFailed && slot < w.p2 {
		w.lost++
	}
	if w.sender != nil && w.sender[c.id] == waiting {
		if ev.Kind == sim.EvSendSucceeded {
			w.sender[c.id] = won
		} else {
			w.waited++
		}
	}
	c.p.Deliver(slot, ev)
}

func (c workCounter) Done() bool           { return c.p.Done() }
func (c workCounter) CatchUp(from, to int) { c.p.CatchUp(from, to) }

// TestSparseContentionWorkScales pins the work of the census and the
// convergecast, not their wall: on E29's shape (c = 16, k = 4, C = 48)
// the Step and Deliver calls of phases two and four must grow by less
// than ×2.5 from n = 4000 to n = 8000. Contenders that were stepped and
// delivered to on every attempt grew them ×3.3 per doubling — the
// Θ(Σm²) of m contenders per channel; standing contenders served deaf are
// touched once per stand and once per win, 3n − 2 calls in all. Phase
// four's senders stand by deaf too, so it makes about 18 calls per node
// and both phases grow ×1.9–2.0 per doubling from n = 500 on; while its
// waiting senders sat in hearing parks, re-stepped by every delivery on
// their channel, phase four grew ×3.2 from n = 1000 to 2000.
func TestSparseContentionWorkScales(t *testing.T) {
	work := func(n int) int {
		asn, err := assign.SharedCore(n, 16, 4, 48, assign.LocalLabels, 1)
		if err != nil {
			t.Fatal(err)
		}
		l := cogcomp.PhaseOneLength(n, 16, 4, cogcast.DefaultKappa)
		w := &phaseWindows{p2: l, p3: l + n, p4: 2*l + n}
		_, err = new(cogcomp.Arena).RunWith(asn, 0, trialInputs(n, 0), 1, cogcomp.Config{Sparse: true},
			func(_ sim.NodeID, nd *cogcomp.Node) sim.Protocol { return workCounter{p: nd, windows: w} })
		if err != nil {
			t.Fatal(err)
		}
		return w.calls
	}
	small, large := work(4000), work(8000)
	growth := float64(large) / float64(small)
	t.Logf("phases two and four: %d calls at n=4000, %d at n=8000 (×%.2f)", small, large, growth)
	if growth >= 2.5 {
		t.Errorf("phases two and four grew ×%.2f from n=4000 to n=8000, want < ×2.5", growth)
	}
}

// TestSparsePhaseOneWaivesLosses pins the quiet broadcasts of phase one on
// E29's shape: every phase-one broadcaster is an informed COGCAST node,
// whose loss changes nothing, so a sparse engine delivers none of them
// while the dense engine, which reads no hint, still delivers them all.
// Both runs must reach the same result.
func TestSparsePhaseOneWaivesLosses(t *testing.T) {
	const n = 1000
	asn, err := assign.SharedCore(n, 16, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := cogcomp.PhaseOneLength(n, 16, 4, cogcast.DefaultKappa)
	run := func(sparse bool) (*cogcomp.Result, int) {
		w := &phaseWindows{p2: l, p3: l + n, p4: 2*l + n}
		res, err := new(cogcomp.Arena).RunWith(asn, 0, trialInputs(n, 0), 1, cogcomp.Config{Sparse: sparse},
			func(_ sim.NodeID, nd *cogcomp.Node) sim.Protocol { return workCounter{p: nd, windows: w} })
		if err != nil {
			t.Fatal(err)
		}
		return res, w.lost
	}
	want, dense := run(false)
	got, sparse := run(true)
	t.Logf("phase-one losses delivered: %d dense, %d sparse", dense, sparse)
	if dense == 0 {
		t.Fatal("dense phase one delivered no loss: the pin has nothing to waive")
	}
	if sparse != 0 {
		t.Errorf("sparse phase one delivered %d losses, want 0", sparse)
	}
	if !invariant.AggEqual(got.Value, want.Value) || got.TotalSlots != want.TotalSlots {
		t.Errorf("sparse run (%v, %d slots) != dense (%v, %d slots)", got.Value, got.TotalSlots, want.Value, want.TotalSlots)
	}
}

// TestSparseSendersStandBy pins phase four's stand-bys on E29's shape:
// once its value is final, a sender that is not a mediator waits for its
// cluster's announcement deaf, so a sparse engine delivers it nothing
// until its value wins, while the dense engine, which reads no hint,
// delivers it every announcement, value, loss and ack on its channel.
// Both runs must reach the same result.
func TestSparseSendersStandBy(t *testing.T) {
	const n = 1000
	asn, err := assign.SharedCore(n, 16, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := cogcomp.PhaseOneLength(n, 16, 4, cogcast.DefaultKappa)
	run := func(sparse bool) (*cogcomp.Result, *phaseWindows) {
		w := &phaseWindows{p2: l, p3: l + n, p4: 2*l + n, sender: make([]senderState, n)}
		res, err := new(cogcomp.Arena).RunWith(asn, 0, trialInputs(n, 0), 1, cogcomp.Config{Sparse: sparse},
			func(id sim.NodeID, nd *cogcomp.Node) sim.Protocol { return workCounter{id: id, p: nd, windows: w} })
		if err != nil {
			t.Fatal(err)
		}
		wins := 0
		for _, st := range w.sender {
			if st == won {
				wins++
			}
		}
		if wins < n/2 {
			t.Fatalf("sparse=%v: %d senders won after waiting, want at least %d", sparse, wins, n/2)
		}
		return res, w
	}
	want, dense := run(false)
	got, sparse := run(true)
	t.Logf("deliveries to waiting senders: %d dense, %d sparse", dense.waited, sparse.waited)
	if dense.waited == 0 {
		t.Fatal("dense phase four delivered nothing to a waiting sender: the pin has nothing to skip")
	}
	if sparse.waited != 0 {
		t.Errorf("sparse phase four delivered %d times to waiting senders, want 0", sparse.waited)
	}
	if !invariant.AggEqual(got.Value, want.Value) || got.TotalSlots != want.TotalSlots ||
		got.MaxMessageSize != want.MaxMessageSize {
		t.Errorf("sparse run (%v, %d slots, max message %d) != dense (%v, %d slots, max message %d)",
			got.Value, got.TotalSlots, got.MaxMessageSize, want.Value, want.TotalSlots, want.MaxMessageSize)
	}
}

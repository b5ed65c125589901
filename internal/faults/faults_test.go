package faults_test

import (
	"errors"
	"testing"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/faults"
	"github.com/cogradio/crn/internal/sim"
)

func TestAlwaysUp(t *testing.T) {
	s := faults.AlwaysUp{}
	if !s.Up(3, 100) || s.Name() != "none" {
		t.Error("AlwaysUp misbehaves")
	}
}

func TestRandomOutagesValidation(t *testing.T) {
	if _, err := faults.NewRandomOutages(1.0, 5, 1); err == nil {
		t.Error("p=1 accepted")
	}
	if _, err := faults.NewRandomOutages(-0.1, 5, 1); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := faults.NewRandomOutages(0.1, 0, 1); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestRandomOutagesProtection(t *testing.T) {
	s, err := faults.NewRandomOutages(0.9, 3, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 100; slot++ {
		if !s.Up(0, slot) {
			t.Fatalf("protected node down at slot %d", slot)
		}
	}
	downs := 0
	for slot := 0; slot < 100; slot++ {
		if !s.Up(1, slot) {
			downs++
		}
	}
	if downs == 0 {
		t.Error("p=0.9 outages never took node 1 down")
	}
}

func TestRandomOutagesDurationRespected(t *testing.T) {
	s, err := faults.NewRandomOutages(0.05, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Whenever a node transitions up->down, it must stay down for at least
	// ... an outage lasts `duration` slots, though overlapping outages can
	// extend it. Check minimum length.
	for node := sim.NodeID(1); node < 5; node++ {
		run := 0
		for slot := 0; slot < 400; slot++ {
			if !s.Up(node, slot) {
				run++
				continue
			}
			if run > 0 && run < 4 {
				t.Fatalf("node %d outage lasted only %d slots, want >= 4", node, run)
			}
			run = 0
		}
	}
}

func TestBlackout(t *testing.T) {
	b, err := faults.NewBlackout(10, 20, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Up(2, 9) || b.Up(2, 10) || b.Up(3, 19) || !b.Up(3, 20) {
		t.Error("blackout interval boundaries wrong")
	}
	if !b.Up(5, 15) {
		t.Error("unlisted node affected")
	}
	if _, err := faults.NewBlackout(5, 2); err == nil {
		t.Error("inverted interval accepted")
	}
}

func TestCrasherSilencesDownNode(t *testing.T) {
	b, err := faults.NewBlackout(0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	asn, err := assign.FullOverlap(2, 1, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner := cogcast.New(sim.View(asn, 1), true, "x", 1) // informed node: would broadcast
	crashed := faults.Wrap(inner, 1, b)
	for slot := 0; slot < 5; slot++ {
		if act := crashed.Step(slot); act.Op != sim.OpIdle {
			t.Fatalf("slot %d: down node acted %v", slot, act.Op)
		}
	}
	if act := crashed.Step(5); act.Op != sim.OpBroadcast {
		t.Fatalf("recovered node should broadcast, got %v", act.Op)
	}
	if crashed.DownSlots() != 5 {
		t.Errorf("DownSlots = %d, want 5", crashed.DownSlots())
	}
}

// runFaultyCogcast runs COGCAST with a fault schedule and reports slots and
// completion.
func runFaultyCogcast(t *testing.T, schedule faults.Schedule, seed int64) (int, bool) {
	t.Helper()
	const n, c, k = 32, 8, 2
	asn, err := assign.Partitioned(n, c, k, assign.LocalLabels, seed)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*cogcast.Node, n)
	protos := make([]sim.Protocol, n)
	for i := range nodes {
		nodes[i] = cogcast.New(sim.View(asn, sim.NodeID(i)), i == 0, "m", seed)
		protos[i] = faults.Wrap(nodes[i], sim.NodeID(i), schedule)
	}
	eng, err := sim.NewEngine(asn, protos, seed)
	if err != nil {
		t.Fatal(err)
	}
	informed := func() bool {
		for _, nd := range nodes {
			if !nd.Informed() {
				return false
			}
		}
		return true
	}
	_, err = eng.RunWhile(100000, func() bool { return !informed() })
	if err != nil && !errors.Is(err, sim.ErrMaxSlots) {
		t.Fatal(err)
	}
	return eng.Slot(), informed()
}

func TestCogcastSurvivesRandomOutages(t *testing.T) {
	// The paper's robustness claim: with the source protected, COGCAST
	// completes despite per-slot outages. Completion may be slower; it must
	// not fail.
	for seed := int64(0); seed < 5; seed++ {
		schedule, err := faults.NewRandomOutages(0.02, 10, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		slots, done := runFaultyCogcast(t, schedule, seed)
		if !done {
			t.Fatalf("seed %d: COGCAST defeated by outages after %d slots", seed, slots)
		}
	}
}

func TestCogcastSurvivesBlackout(t *testing.T) {
	// Half the network dark for 40 slots mid-broadcast.
	schedule, err := faults.NewBlackout(5, 45, 8, 9, 10, 11, 12, 13, 14, 15)
	if err != nil {
		t.Fatal(err)
	}
	slots, done := runFaultyCogcast(t, schedule, 3)
	if !done {
		t.Fatalf("COGCAST defeated by blackout after %d slots", slots)
	}
}

func TestCogcompBrittleUnderFaults(t *testing.T) {
	// The contrast to COGCAST's robustness: COGCOMP's census, rewind and
	// convergecast assume synchronized participation, so heavy outages
	// derail it — typically as a stall (budget exhausted), occasionally as
	// a corrupted aggregate. This test documents the brittleness: across
	// several seeds at a high fault rate, at least one run must deviate
	// from the true sum, and the fault-free control must stay correct.
	const n = 32
	inputs := make([]int64, n)
	var want int64
	for i := range inputs {
		inputs[i] = int64(i + 1)
		want += inputs[i]
	}

	runFaulty := func(seed int64) (value aggfunc.Value, stalled bool) {
		asn, err := assign.Partitioned(n, 8, 2, assign.LocalLabels, seed)
		if err != nil {
			t.Fatal(err)
		}
		schedule, err := faults.NewRandomOutages(0.05, 20, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		l := cogcomp.PhaseOneLength(n, 8, 2, cogcast.DefaultKappa)
		res, err := new(cogcomp.Arena).RunWith(asn, 0, inputs, seed, cogcomp.Config{MaxSlots: 20 * (2*l + n)},
			func(id sim.NodeID, nd *cogcomp.Node) sim.Protocol { return faults.Wrap(nd, id, schedule) })
		switch {
		case errors.Is(err, sim.ErrMaxSlots):
			return nil, true
		case err != nil && !errors.Is(err, cogcomp.ErrIncomplete):
			t.Fatal(err)
		}
		return res.Value, false
	}

	deviated := 0
	for seed := int64(1); seed <= 6; seed++ {
		value, stalled := runFaulty(seed)
		if stalled || value != want {
			deviated++
		}
	}
	if deviated == 0 {
		t.Error("COGCOMP completed correctly under heavy faults on every seed; expected brittleness")
	}

	// Fault-free control stays exact.
	asn, err := assign.Partitioned(n, 8, 2, assign.LocalLabels, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcomp.Run(asn, 0, inputs, 5, cogcomp.Config{})
	if err != nil {
		t.Fatalf("fault-free control run failed: %v", err)
	}
	if res.Value != want {
		t.Fatalf("control aggregate %v != %d", res.Value, want)
	}
}

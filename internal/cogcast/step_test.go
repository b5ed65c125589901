package cogcast_test

import (
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/sim"
)

// TestStepIntoMatchesConstructors pins Step's and StepInto's field-by-field
// writes to sim's constructors: an informed node's action is
// sim.BroadcastQuiet(ch, wire) and an uninformed node's sim.Listen(ch),
// where ch is the channel a twin node on the same seed draws. StepInto
// writes into an action that holds every field of an unrelated one, so a
// field it forgot to write would show. One node starts informed, one is
// informed by a delivery part-way, and one never is; 700 slots carry each
// stream past the generator's lazy boundaries, and a second pass after
// Reinit reuses the state the first one allocated.
func TestStepIntoMatchesConstructors(t *testing.T) {
	asn, err := assign.FullOverlap(3, 7, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	const slots, learnAt = 700, 300
	body := "m"
	wire := cogcast.Payload{Body: body}
	stale := sim.Action{Op: sim.OpBroadcast, Quiet: true, Key: 7, Channel: -1, Msg: "stale", Sleep: 9, Await: 3}
	cases := []struct {
		name           string
		source, learns bool
	}{
		{"informed", true, false},
		{"learns", false, true},
		{"uninformed", false, false},
	}
	for _, c := range cases {
		view := sim.View(asn, 1)
		step, into, twin := new(cogcast.Node), new(cogcast.Node), new(cogcast.Node)
		for pass, seed := range []int64{5, 6} {
			for _, nd := range []*cogcast.Node{step, into, twin} {
				nd.Reinit(view, c.source, body, seed)
			}
			for slot := 0; slot < slots; slot++ {
				if c.learns && slot == learnAt {
					for _, nd := range []*cogcast.Node{step, into, twin} {
						nd.Deliver(slot-1, sim.Event{Kind: sim.EvReceived, From: 0, Msg: wire})
					}
				}
				ch := twin.Step(slot).Channel
				want := sim.Listen(ch)
				if twin.Informed() {
					want = sim.BroadcastQuiet(ch, wire)
				}
				if got := step.Step(slot); got != want {
					t.Fatalf("%s pass %d slot %d: Step = %+v, want %+v", c.name, pass, slot, got, want)
				}
				got := stale
				into.StepInto(slot, &got)
				if got != want {
					t.Fatalf("%s pass %d slot %d: StepInto = %+v, want %+v", c.name, pass, slot, got, want)
				}
			}
		}
	}
}

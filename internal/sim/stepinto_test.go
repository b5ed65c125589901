package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// stepOnly hides the StepperInto of the node it wraps, so an engine over
// stepOnly nodes calls Step on every node. stepOnlyCatchUpper forwards
// CatchUpper, so that a sparse engine serves the node deaf as it would
// unwrapped.
type stepOnly struct{ sim.Protocol }

type stepOnlyCatchUpper struct{ stepOnly }

func (s stepOnlyCatchUpper) CatchUp(from, to int) { s.Protocol.(sim.CatchUpper).CatchUp(from, to) }

func hideStepInto(p sim.Protocol) sim.Protocol {
	if _, ok := p.(sim.CatchUpper); ok {
		return stepOnlyCatchUpper{stepOnly{p}}
	}
	return stepOnly{p}
}

// TestStepIntoPathMatchesStep runs each execution twice, once over nodes
// that implement sim.StepperInto, which the engine steps in place, and
// once over the same nodes behind stepOnly, which it steps through Step.
// COGCOMP runs dense and sparse, COGCAST on four shards; results and
// JSONL traces must be identical.
func TestStepIntoPathMatchesStep(t *testing.T) {
	const n = 48
	asn, err := assign.SharedCore(n, 8, 2, 24, assign.LocalLabels, 2)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64(3*i%11 + 1)
	}
	for _, sparse := range []bool{false, true} {
		var traces [2]bytes.Buffer
		var results [2]*cogcomp.Result
		for i, hide := range []bool{false, true} {
			var wrap func(sim.NodeID, *cogcomp.Node) sim.Protocol
			if hide {
				wrap = func(_ sim.NodeID, nd *cogcomp.Node) sim.Protocol { return hideStepInto(nd) }
			}
			sink := trace.NewJSONL(&traces[i])
			res, err := new(cogcomp.Arena).RunWith(asn, 0, inputs, 9, cogcomp.Config{Trace: sink, Sparse: sparse}, wrap)
			if err != nil {
				t.Fatal(err)
			}
			sink.Finish()
			results[i] = res
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("cogcomp sparse=%v: result %+v in place, %+v through Step", sparse, results[0], results[1])
		}
		if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
			t.Errorf("cogcomp sparse=%v: traces differ (%d and %d bytes)", sparse, traces[0].Len(), traces[1].Len())
		}
	}

	var traces [2]bytes.Buffer
	var informed [2]string
	for i, hide := range []bool{false, true} {
		nodes := make([]*cogcast.Node, n)
		protos := make([]sim.Protocol, n)
		for v := range nodes {
			nodes[v] = cogcast.New(sim.View(asn, sim.NodeID(v)), v == 0, "m", 4)
			protos[v] = nodes[v]
			if hide {
				protos[v] = hideStepInto(nodes[v])
			}
		}
		sink := trace.NewJSONL(&traces[i])
		eng, err := sim.NewEngine(asn, protos, 4, sim.WithShards(4), sim.WithObserver(trace.NewRecorder(sink)))
		if err != nil {
			t.Fatal(err)
		}
		if eng.Shards() != 4 {
			t.Fatalf("engine runs %d shards, want 4", eng.Shards())
		}
		if _, err := eng.Run(40); !errors.Is(err, sim.ErrMaxSlots) {
			t.Fatal(err)
		}
		sink.Finish()
		for _, nd := range nodes {
			informed[i] += fmt.Sprintf("%v %d %d %d\n", nd.Informed(), nd.Parent(), nd.InformedSlot(), nd.InformedChannel())
		}
	}
	if informed[0] != informed[1] {
		t.Errorf("cogcast: nodes differ:\n%s\nthrough Step:\n%s", informed[0], informed[1])
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Errorf("cogcast: traces differ (%d and %d bytes)", traces[0].Len(), traces[1].Len())
	}
}

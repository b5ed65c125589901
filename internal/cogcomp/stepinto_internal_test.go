package cogcomp

import (
	"errors"
	"testing"
	"unsafe"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/faults"
	"github.com/cogradio/crn/internal/sim"
)

// stale is the action twinNode's StepInto writes into: every field holds
// a value no COGCOMP action has, so a field StepInto forgot would show.
var stale = sim.Action{Op: sim.Op(9), Quiet: true, Key: 0x5a1e, Channel: -7, Msg: "stale", Sleep: -3, Await: 0xdead}

// twinNode steps a node through Step and, in lockstep, its twin through
// StepInto into stale, and fails the test on the first slot where the two
// actions differ. The twin is copied from the node at its first call, when
// the node is fresh (every backing nil, its generator's state array not
// yet allocated, so the two share nothing they write but the census log,
// whose appends are idempotent) and a session has set its rounds.
// Deliveries, catch-ups, the crash hooks and the recovery hooks reach
// both. seen tallies the shapes of the actions stepped.
type twinNode struct {
	t      *testing.T
	nd, tw *Node
	seen   map[string]int
}

func (w *twinNode) twin() *Node {
	if w.tw == nil {
		w.tw = new(Node)
		*w.tw = *w.nd
	}
	return w.tw
}

func (w *twinNode) Step(slot int) sim.Action {
	tw, nd := w.twin(), w.nd
	for _, k := range actionShapes(nd, slot) {
		w.seen[k]++
	}
	got := stale
	tw.StepInto(slot, &got)
	want := nd.Step(slot)
	if got != want {
		w.t.Fatalf("node %d slot %d: StepInto = %+v, Step = %+v", nd.id, slot, got, want)
	}
	for _, k := range wantShapes(want) {
		w.seen[k]++
	}
	return want
}

func (w *twinNode) Deliver(slot int, ev sim.Event) {
	w.twin().Deliver(slot, ev)
	w.nd.Deliver(slot, ev)
}

func (w *twinNode) Done() bool {
	if w.tw != nil && w.tw.Done() != w.nd.Done() {
		w.t.Fatalf("node %d: twin's Done = %v, node's %v", w.nd.id, w.tw.Done(), w.nd.Done())
	}
	return w.nd.Done()
}

func (w *twinNode) CatchUp(from, to int) { w.twin().CatchUp(from, to); w.nd.CatchUp(from, to) }
func (w *twinNode) MissSlot(slot int)    { w.twin().MissSlot(slot); w.nd.MissSlot(slot) }
func (w *twinNode) Restart(slot int)     { w.twin().Restart(slot); w.nd.Restart(slot) }

// both applies a recovery hook to the node and its twin.
func (w *twinNode) both(f func(*Node)) { f(w.twin()); f(w.nd) }

// actionShapes names the phase of slot for nd, and the recovery hold if
// slot falls in one, before nd steps.
func actionShapes(nd *Node, slot int) []string {
	switch {
	case slot < nd.holdUntil:
		return []string{"hold gap"}
	case slot < nd.p2start:
		return []string{"phase 1"}
	case slot < nd.p3start:
		return []string{"phase 2"}
	case slot < nd.p4start:
		return []string{"phase 3"}
	}
	return []string{"phase 4"}
}

// wantShapes names the hinted and keyed shapes of a stepped action.
func wantShapes(a sim.Action) (out []string) {
	switch {
	case a.Await != sim.NoKey && a.Op == sim.OpBroadcast:
		out = append(out, "stand")
	case a.Await != sim.NoKey && a.Op == sim.OpListen:
		out = append(out, "stand-by")
	case a.Quiet && a.Op == sim.OpListen:
		out = append(out, "quiet park")
	case a.Sleep > 0 && a.Op == sim.OpListen:
		out = append(out, "park")
	case a.Sleep > 0:
		out = append(out, "sleep")
	}
	if a.Key != sim.NoKey {
		out = append(out, "keyed send")
	}
	return out
}

// TestStepIntoMatchesStep holds COGCOMP's StepInto to its Step (see
// twinNode) in every slot of three dense runs on one network: a classic
// run, a three-round session, and a run through the recovery supervisor's
// hooks, in which two nodes crash and restart mid-census and the census
// is re-run after a hold gap, as the supervisor re-runs a deficient one.
// Between them the runs step every phase, the hold gap, stands, stand-bys,
// parks and keyed sends, which the test checks. The network is small
// enough that no node's generator passes draw 273, which the twin copy
// relies on.
func TestStepIntoMatchesStep(t *testing.T) {
	const n = 24
	asn, err := assign.SharedCore(n, 6, 2, 12, assign.LocalLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64(i*i%7 + 1)
	}
	seen := map[string]int{}
	var twins []*twinNode
	wrap := func(_ sim.NodeID, nd *Node) sim.Protocol {
		w := &twinNode{t: t, nd: nd, seen: seen}
		twins = append(twins, w)
		return w
	}
	ok := func(err error) {
		t.Helper()
		if err != nil && !errors.Is(err, ErrIncomplete) && !errors.Is(err, sim.ErrMaxSlots) {
			t.Fatal(err)
		}
	}

	l := PhaseOneLength(n, asn.PerNode(), asn.MinOverlap(), cogcast.DefaultKappa)
	if l >= 273 {
		t.Fatalf("phase one is %d slots: twins would share a generator's state array", l)
	}

	_, err = new(Arena).RunWith(asn, 0, inputs, 5, Config{}, wrap)
	ok(err)

	twins = nil
	_, err = new(Arena).runRounds(asn, 0, [][]int64{inputs, inputs, inputs}, 6, SessionConfig{}, wrap)
	ok(err)

	// The recovered run: nodes 5 and 9 are down for the census's first
	// slots and restart with their census undone; then the census is
	// re-run on every channel, every node holding through a gap first.
	twins = nil
	down, err := faults.NewBlackout(l+1, l+4, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, eng, _, err := new(Arena).Prepare(asn, 0, inputs, 7, Config{}, func(id sim.NodeID, nd *Node) sim.Protocol {
		return faults.Wrap(wrap(id, nd), id, down, faults.WithRestart())
	})
	if err != nil {
		t.Fatal(err)
	}
	const gap = 8
	p2end := l + n
	_, err = eng.Run(p2end)
	ok(err)
	for _, w := range twins {
		w.both(func(nd *Node) {
			nd.ResetCensus()
			nd.Hold(p2end + gap)
			nd.ExtendCensus(gap + n)
		})
	}
	_, err = eng.Run(DefaultMaxSlots(n, l) + gap + n)
	ok(err)

	for _, k := range []string{"phase 1", "phase 2", "phase 3", "phase 4", "hold gap",
		"stand", "stand-by", "quiet park", "park", "sleep", "keyed send"} {
		if seen[k] == 0 {
			t.Errorf("no %s stepped", k)
		}
	}
	t.Logf("shapes stepped: %v", seen)
}

// TestStandMatchesConstructors pins stand's field-by-field writes to
// sim.Stand (a broadcast) and sim.StandBy (a listen), writing over stale.
func TestStandMatchesConstructors(t *testing.T) {
	for _, op := range []sim.Op{sim.OpBroadcast, sim.OpListen} {
		want := sim.Stand(3, "v", 11, 40)
		if op == sim.OpListen {
			want = sim.StandBy(3, "v", 11, 40)
		}
		got := stale
		stand(&got, op, 3, "v", 11, 40)
		if got != want {
			t.Errorf("stand(%v) = %+v, want %+v", op, got, want)
		}
	}
}

// TestHotFieldsLead pins Node's layout: the fields every Done and Step
// reads, the embedded COGCAST node's among them, end within the node's
// first 24 pointer words (192 bytes on 64-bit targets), so the first
// touch of a slot brings them in together and a field added to Node
// cannot push them back.
func TestHotFieldsLead(t *testing.T) {
	var nd Node
	limit := 24 * unsafe.Sizeof(uintptr(0))
	ends := map[string]uintptr{
		"done":      unsafe.Offsetof(nd.done) + unsafe.Sizeof(nd.done),
		"holdUntil": unsafe.Offsetof(nd.holdUntil) + unsafe.Sizeof(nd.holdUntil),
		"p2start":   unsafe.Offsetof(nd.p2start) + unsafe.Sizeof(nd.p2start),
		"p3start":   unsafe.Offsetof(nd.p3start) + unsafe.Sizeof(nd.p3start),
		"p4start":   unsafe.Offsetof(nd.p4start) + unsafe.Sizeof(nd.p4start),
		"pos":       unsafe.Offsetof(nd.pos) + unsafe.Sizeof(nd.pos),
		"cast":      unsafe.Offsetof(nd.cast) + unsafe.Sizeof(nd.cast),
	}
	for name, end := range ends {
		if end > limit {
			t.Errorf("Node.%s ends at byte %d, past the first %d", name, end, limit)
		}
	}
}

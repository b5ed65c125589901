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
// in each slot is decoded from script[slot*n+id]. A listen byte with its
// top bit set parks: the node holds that listen for the next (b>>4)&7
// slots, ignoring its script, unless a delivery arrives. The hold ends at
// an absolute slot, so the Sleep hint it carries honours the Action.Sleep
// contract. It never terminates — the fuzz body runs a fixed number of
// slots — and logs every delivery.
type scripted struct {
	script   []byte
	id, n, c int
	hold     sim.Action
	holdEnd  int // first slot after the hold; the hold is over when slot >= holdEnd
	log      []string
}

func (s *scripted) Step(slot int) sim.Action {
	if slot < s.holdEnd {
		act := s.hold
		act.Sleep = s.holdEnd - 1 - slot
		return act
	}
	idx := slot*s.n + s.id
	if idx >= len(s.script) {
		return sim.Idle()
	}
	b := s.script[idx]
	ch := int(b/3) % s.c
	switch b % 3 {
	case 0:
		return sim.Idle()
	case 1:
		if k := int(b>>4) & 7; b&0x80 != 0 && k > 0 {
			s.hold, s.holdEnd = sim.ParkListen(ch, k), slot+k+1
			return s.hold
		}
		return sim.Listen(ch)
	default:
		return sim.Broadcast(ch, int(b))
	}
}

func (s *scripted) Deliver(slot int, ev sim.Event) {
	s.holdEnd = 0
	s.log = append(s.log, fmt.Sprintf("%d/%v/%d/%v/%d", slot, ev.Kind, ev.From, ev.Msg, ev.Channel))
}

func (s *scripted) Done() bool { return false }

// FuzzEngineSlot drives the engine with adversarial broadcast/listen
// patterns decoded from raw bytes and re-verifies every slot with the
// invariant oracle: channels resolve in ascending physical order, every
// participant's physical channel is in its set, each node uses one radio
// per slot, and every contended channel has exactly one winner drawn from
// its broadcasters. Any script the engine accepts must produce a
// violation-free outcome stream. The script is then replayed unobserved on
// two shards, where every node's delivery log must match the observed dense
// run's, and under sparse stepping with its own oracle attached, where the
// delivery logs and the per-slot outcome stream must both match — each
// sparse channel's Listeners ∪ Parked against the dense Listeners — so one
// target drives the shared scan and resolver through all three stepping
// modes. Dense runs must report no parked listener, and sparse Parked lists
// must be ascending and disjoint from Listeners.
func FuzzEngineSlot(f *testing.F) {
	f.Add(uint8(8), uint8(3), int64(1), []byte("\x02\x05\x08\x0b\x0e\x11\x14\x17"))
	f.Add(uint8(4), uint8(2), int64(7), []byte{2, 2, 2, 2, 1, 1, 1, 1})
	f.Add(uint8(12), uint8(4), int64(42), []byte("mixed traffic with listeners and idles"))
	f.Add(uint8(2), uint8(1), int64(3), []byte{255, 254, 253, 252, 0, 1, 2})
	// Two nodes park listening on different physical channels, so one slot
	// reports two channels whose parked lists must both stay valid
	// until the observer has run.
	f.Add(uint8(4), uint8(2), int64(7), []byte("00\xa6\xa6"))
	f.Fuzz(func(t *testing.T, rawN, rawC uint8, seed int64, script []byte) {
		n := 2 + int(rawN)%31 // [2, 32] nodes
		c := 1 + int(rawC)%7  // [1, 7] channels per node
		// SharedCore is deterministic construction (RandomPool's rejection
		// sampling may legitimately fail to find a draw at low overlap).
		asn, err := assign.SharedCore(n, c, 1, 2*c, assign.LocalLabels, seed)
		if err != nil {
			t.Fatalf("SharedCore(%d, %d) rejected valid parameters: %v", n, c, err)
		}
		slots := len(script)/n + 2 // run past the script into all-idle slots
		if slots > 64 {
			slots = 64
		}
		// run executes the script under opts and returns the engine and
		// every node's delivery log.
		run := func(opts ...sim.Option) (*sim.Engine, string) {
			protos := make([]sim.Protocol, n)
			recs := make([]*scripted, n)
			for i := range protos {
				recs[i] = &scripted{script: script, id: i, n: n, c: c}
				protos[i] = recs[i]
			}
			eng, err := sim.NewEngine(asn, protos, seed, opts...)
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
		// observed runs the script under a fresh oracle and returns its
		// delivery logs and the outcome stream the oracle saw.
		observed := func(opts ...sim.Option) (*sim.Engine, string, *outcomeLog) {
			ck := new(invariant.Checker)
			ck.Reset(asn, sim.UniformWinner)
			outs := new(outcomeLog)
			eng, logs := run(append(opts, sim.WithObserver(sim.Tee(ck, outs)))...)
			if err := ck.Err(); err != nil {
				t.Fatalf("oracle violation (%d total) on n=%d c=%d seed=%d script=%q: %v",
					ck.Violations(), n, c, seed, script, err)
			}
			if outs.err != nil {
				t.Fatal(outs.err)
			}
			return eng, logs, outs
		}
		_, dense, denseOuts := observed()
		if denseOuts.parked != 0 {
			t.Fatalf("dense engine reported %d parked listeners", denseOuts.parked)
		}
		sharded, got := run(sim.WithShards(2))
		if sharded.Shards() != 2 {
			t.Fatalf("Shards() = %d, want 2", sharded.Shards())
		}
		if got != dense {
			t.Fatalf("2 shards diverged from the observed dense run:\n--- sharded ---\n%s--- dense ---\n%s", got, dense)
		}
		sparse, got, gotOuts := observed(sim.WithSparse())
		if !sparse.Sparse() {
			t.Fatal("WithSparse did not engage on a static assignment")
		}
		if got != dense {
			t.Fatalf("sparse diverged from the observed dense run:\n--- sparse ---\n%s--- dense ---\n%s", got, dense)
		}
		if gotOuts.String() != denseOuts.String() {
			t.Fatalf("sparse outcome stream diverged from dense:\n--- sparse ---\n%s--- dense ---\n%s", gotOuts, denseOuts)
		}
	})
}

// outcomeLog is an observer that renders every slot's channel outcomes,
// one line per slot, listing each channel's listeners as the sorted union
// of Listeners and Parked: the set a dense engine reports as Listeners. It
// counts parked entries and records the first Parked list that is not
// ascending or meets Listeners.
type outcomeLog struct {
	strings.Builder
	parked int
	err    error
	ls     []sim.NodeID
}

func (l *outcomeLog) OnSlot(slot int, outcomes []sim.ChannelOutcome) {
	fmt.Fprintf(l, "%d:", slot)
	for _, o := range outcomes {
		l.parked += len(o.Parked)
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
	l.WriteByte('\n')
}

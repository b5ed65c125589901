package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
)

// scripted is a protocol driven entirely by fuzz bytes: node id's action
// in each slot is decoded from script[slot*n+id]. It never terminates —
// the fuzz body runs a fixed number of slots — and logs every delivery.
type scripted struct {
	script   []byte
	id, n, c int
	log      []string
}

func (s *scripted) Step(slot int) sim.Action {
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
		return sim.Listen(ch)
	default:
		return sim.Broadcast(ch, int(b))
	}
}

func (s *scripted) Deliver(slot int, ev sim.Event) {
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
// two shards and under sparse stepping, and every node's delivery log must
// match the observed dense run's, so one target drives the shared scan and
// resolver through all three stepping modes.
func FuzzEngineSlot(f *testing.F) {
	f.Add(uint8(8), uint8(3), int64(1), []byte("\x02\x05\x08\x0b\x0e\x11\x14\x17"))
	f.Add(uint8(4), uint8(2), int64(7), []byte{2, 2, 2, 2, 1, 1, 1, 1})
	f.Add(uint8(12), uint8(4), int64(42), []byte("mixed traffic with listeners and idles"))
	f.Add(uint8(2), uint8(1), int64(3), []byte{255, 254, 253, 252, 0, 1, 2})
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
		ck := new(invariant.Checker)
		ck.Reset(asn, sim.UniformWinner)
		_, dense := run(sim.WithObserver(ck))
		if err := ck.Err(); err != nil {
			t.Fatalf("oracle violation (%d total) on n=%d c=%d seed=%d script=%q: %v",
				ck.Violations(), n, c, seed, script, err)
		}
		sharded, got := run(sim.WithShards(2))
		if sharded.Shards() != 2 {
			t.Fatalf("Shards() = %d, want 2", sharded.Shards())
		}
		if got != dense {
			t.Fatalf("2 shards diverged from the observed dense run:\n--- sharded ---\n%s--- dense ---\n%s", got, dense)
		}
		sparse, got := run(sim.WithSparse())
		if !sparse.Sparse() {
			t.Fatal("WithSparse did not engage on a static assignment")
		}
		if got != dense {
			t.Fatalf("sparse diverged from the observed dense run:\n--- sparse ---\n%s--- dense ---\n%s", got, dense)
		}
	})
}

package recover_test

import (
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/faults"
	recov "github.com/cogradio/crn/internal/recover"
	"github.com/cogradio/crn/internal/sim"
)

// scriptedSchedule replays crash spans decoded from fuzz input: byte
// triples of (node, start, duration), so the fuzzer controls exactly who
// crashes when and for how long.
type scriptedSchedule struct {
	spans [][3]int // node, from, until
}

var _ faults.Schedule = (*scriptedSchedule)(nil)

func decodeSchedule(data []byte, n int) *scriptedSchedule {
	s := &scriptedSchedule{}
	for i := 0; i+2 < len(data) && len(s.spans) < 24; i += 3 {
		node := int(data[i]) % n
		from := int(data[i+1]) * 4 // reach well into phase four
		dur := int(data[i+2])%96 + 1
		s.spans = append(s.spans, [3]int{node, from, from + dur})
	}
	return s
}

func (s *scriptedSchedule) Name() string { return "scripted" }

func (s *scriptedSchedule) Up(node sim.NodeID, slot int) bool {
	for _, sp := range s.spans {
		if int(node) == sp[0] && slot >= sp[1] && slot < sp[2] {
			return false
		}
	}
	return true
}

// FuzzRecovery feeds arbitrary crash-restart scripts to the supervisor
// with the full invariant oracle armed: whatever the schedule, the run
// must terminate without error, never double-count a contribution, keep
// the checkpoint log monotone, and flag degradation honestly.
func FuzzRecovery(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{3, 10, 40}, int64(2))
	f.Add([]byte{1, 30, 90, 5, 30, 90, 9, 30, 90}, int64(3))
	f.Add([]byte{2, 0, 255, 7, 60, 80, 7, 90, 80, 11, 5, 5}, int64(4))
	f.Add([]byte{4, 100, 96, 5, 100, 96, 6, 100, 96, 4, 140, 96}, int64(5))

	const n, c = 12, 4
	var rec recov.Arena
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		asn, err := assign.FullOverlap(n, c, assign.LocalLabels, seed)
		if err != nil {
			t.Skip()
		}
		sched := decodeSchedule(data, n)
		in := make([]int64, n)
		for i := range in {
			in[i] = int64(i + 1)
		}
		res, err := rec.Run(asn, 0, in, seed, recov.Config{
			Config:     cogcomp.Config{Check: true},
			Schedule:   sched,
			MaxRetries: 3,
		})
		if err != nil {
			t.Fatalf("schedule %v: %v", sched.spans, err)
		}
		if res.Stalled && !res.Degraded {
			t.Fatal("stalled run not flagged degraded")
		}
		if res.Complete && (res.Degraded || len(res.Contributors) != n) {
			t.Fatalf("complete run inconsistent: degraded=%v contributors=%d",
				res.Degraded, len(res.Contributors))
		}
		if !res.Stalled && len(res.Contributors) == 0 {
			t.Fatal("settled run reports no contributors")
		}
	})
}

package recover_test

import (
	"reflect"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/faults"
	recov "github.com/cogradio/crn/internal/recover"
	"github.com/cogradio/crn/internal/sim"
)

func inputsFor(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i*3 + 1)
	}
	return in
}

func phaseOneLen(asn sim.Assignment) int {
	return cogcomp.PhaseOneLength(asn.Nodes(), asn.PerNode(), asn.MinOverlap(), cogcast.DefaultKappa)
}

// TestFaultFreeMatchesClassic: with no fault schedule the supervisor must
// be draw-for-draw identical to the classic runner — same aggregate, same
// slot counts, same tree — with zero recovery activity.
func TestFaultFreeMatchesClassic(t *testing.T) {
	var classic cogcomp.Arena
	var rec recov.Arena
	for _, tc := range []struct {
		name    string
		n, c, k int
		full    bool
	}{
		{"full-overlap", 24, 6, 6, true},
		{"partitioned", 32, 8, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				var asn sim.Assignment
				var err error
				if tc.full {
					asn, err = assign.FullOverlap(tc.n, tc.c, assign.LocalLabels, seed)
				} else {
					asn, err = assign.Partitioned(tc.n, tc.c, tc.k, assign.LocalLabels, seed)
				}
				if err != nil {
					t.Fatal(err)
				}
				in := inputsFor(tc.n)
				want, err := classic.Run(asn, 0, in, seed, cogcomp.Config{Check: true})
				if err != nil {
					t.Fatalf("seed %d: classic: %v", seed, err)
				}
				got, err := rec.Run(asn, 0, in, seed, recov.Config{Config: cogcomp.Config{Check: true}})
				if err != nil {
					t.Fatalf("seed %d: recover: %v", seed, err)
				}
				if !got.Complete || got.Degraded || got.Stalled {
					t.Fatalf("seed %d: fault-free run flagged complete=%v degraded=%v stalled=%v",
						seed, got.Complete, got.Degraded, got.Stalled)
				}
				if got.Value != want.Value {
					t.Errorf("seed %d: value %v != classic %v", seed, got.Value, want.Value)
				}
				if got.TotalSlots != want.TotalSlots {
					t.Errorf("seed %d: slots %d != classic %d", seed, got.TotalSlots, want.TotalSlots)
				}
				if got.Phase1Slots != want.Phase1Slots || got.Phase2Slots != want.Phase2Slots ||
					got.Phase3Slots != want.Phase3Slots || got.Phase4Slots != want.Phase4Slots {
					t.Errorf("seed %d: phase breakdown (%d,%d,%d,%d) != classic (%d,%d,%d,%d)",
						seed, got.Phase1Slots, got.Phase2Slots, got.Phase3Slots, got.Phase4Slots,
						want.Phase1Slots, want.Phase2Slots, want.Phase3Slots, want.Phase4Slots)
				}
				if !reflect.DeepEqual(got.Parents, want.Parents) {
					t.Errorf("seed %d: distribution tree differs from classic", seed)
				}
				if got.Mediators != want.Mediators || got.MaxMessageSize != want.MaxMessageSize ||
					got.InformedAfterPhase1 != want.InformedAfterPhase1 {
					t.Errorf("seed %d: mediators/msg/informed (%d,%d,%d) != classic (%d,%d,%d)",
						seed, got.Mediators, got.MaxMessageSize, got.InformedAfterPhase1,
						want.Mediators, want.MaxMessageSize, want.InformedAfterPhase1)
				}
				if got.Retries != 0 || got.Reelections != 0 || got.Restarts != 0 ||
					got.DownSlots != 0 || got.Pruned != 0 {
					t.Errorf("seed %d: fault-free run reports recovery activity %+v", seed, got)
				}
				if len(got.Contributors) != tc.n {
					t.Errorf("seed %d: %d contributors, want all %d", seed, len(got.Contributors), tc.n)
				}
				if !reflect.DeepEqual(got.Result, *want) {
					t.Errorf("seed %d: result %+v != classic %+v", seed, got.Result, *want)
				}
			}
		})
	}
}

// TestCensusCrashRestart: nodes crashed through the whole census window
// come back with their roster wiped; the supervisor must detect the
// deficient channels, re-execute the census, and still complete exactly.
func TestCensusCrashRestart(t *testing.T) {
	const n, c, seed = 20, 5, 3
	asn, err := assign.FullOverlap(n, c, assign.LocalLabels, seed)
	if err != nil {
		t.Fatal(err)
	}
	l := phaseOneLen(asn)
	sched, err := faults.NewBlackout(l, l+n, 5, 6, 11, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := recov.Run(asn, 0, inputsFor(n), seed, recov.Config{Config: cogcomp.Config{Check: true}, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("census crash not recovered: degraded=%v stalled=%v pruned=%d",
			res.Degraded, res.Stalled, res.Pruned)
	}
	if res.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1 (census re-execution)", res.Retries)
	}
	if res.Restarts < 1 {
		t.Errorf("Restarts = %d, want >= 1", res.Restarts)
	}
	if res.TotalSlots <= 2*l+n {
		t.Errorf("TotalSlots = %d does not reflect the extended census", res.TotalSlots)
	}
}

// TestRewindCrashRestart: crashes spanning the rewind wipe collected
// clusters; the supervisor re-anchors and replays the rewind. Across a few
// seeds at least one run must actually retry, and every run must end with
// the exact aggregate.
func TestRewindCrashRestart(t *testing.T) {
	const n, c = 20, 5
	var rec recov.Arena
	retried := 0
	for seed := int64(1); seed <= 4; seed++ {
		asn, err := assign.FullOverlap(n, c, assign.LocalLabels, seed)
		if err != nil {
			t.Fatal(err)
		}
		l := phaseOneLen(asn)
		sched, err := faults.NewBlackout(l+n, l+n+l, 3, 4, 9, 13)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rec.Run(asn, 0, inputsFor(n), seed, recov.Config{Config: cogcomp.Config{Check: true}, Schedule: sched})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Complete {
			t.Fatalf("seed %d: rewind crash not recovered (degraded=%v stalled=%v)",
				seed, res.Degraded, res.Stalled)
		}
		if res.Retries > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no seed triggered a rewind retry; fault window looks inert")
	}
}

// TestMediatorReelection: a blackout over half the network at the start of
// the convergecast takes mediators down mid-coordination. The supervisor
// must re-elect and still finish with the exact aggregate; across the seed
// set at least one re-election must fire.
func TestMediatorReelection(t *testing.T) {
	const n, c, k = 16, 4, 2
	var rec recov.Arena
	reelected := 0
	for seed := int64(1); seed <= 6; seed++ {
		asn, err := assign.Partitioned(n, c, k, assign.LocalLabels, seed)
		if err != nil {
			t.Fatal(err)
		}
		l := phaseOneLen(asn)
		p4 := 2*l + n
		ids := make([]sim.NodeID, 0, n/2)
		for id := sim.NodeID(n / 2); id < sim.NodeID(n); id++ {
			ids = append(ids, id)
		}
		sched, err := faults.NewBlackout(p4, p4+150, ids...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rec.Run(asn, 0, inputsFor(n), seed, recov.Config{Config: cogcomp.Config{Check: true}, Schedule: sched})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Stalled {
			t.Fatalf("seed %d: stalled despite recoverable blackout", seed)
		}
		if !res.Complete {
			t.Fatalf("seed %d: incomplete (pruned=%d degraded=%v)", seed, res.Pruned, res.Degraded)
		}
		reelected += res.Reelections
	}
	if reelected == 0 {
		t.Error("no mediator re-election across all seeds; detector looks inert")
	}
}

// TestPermanentOutageDegrades: nodes that never come up cannot be
// recovered. The supervisor must exhaust its budget, degrade gracefully,
// and report a partial-census aggregate over exactly the live nodes.
func TestPermanentOutageDegrades(t *testing.T) {
	const n, c, seed = 12, 4, 2
	asn, err := assign.FullOverlap(n, c, assign.LocalLabels, seed)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.NewBlackout(0, 1<<30, 9, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := recov.Run(asn, 0, inputsFor(n), seed,
		recov.Config{Config: cogcomp.Config{Check: true}, Schedule: sched, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Complete {
		t.Fatalf("permanent outage not flagged: complete=%v degraded=%v", res.Complete, res.Degraded)
	}
	if res.Stalled {
		t.Fatal("degradation should settle, not stall")
	}
	want := make([]sim.NodeID, 0, n-3)
	var sum int64
	in := inputsFor(n)
	for i := 0; i < 9; i++ {
		want = append(want, sim.NodeID(i))
		sum += in[i]
	}
	if !reflect.DeepEqual(res.Contributors, want) {
		t.Fatalf("contributors %v, want %v", res.Contributors, want)
	}
	if got := res.Value.(int64); got != sum {
		t.Errorf("partial aggregate %d, want %d", got, sum)
	}
}

// TestRandomOutagesRecover: E20's outage model (random crash-restarts)
// against the supervisor. Every run must either complete exactly, degrade
// with a verified partial aggregate, or stall with the flag set — the
// invariant oracle (Check) vouches for the value in the first two cases.
func TestRandomOutagesRecover(t *testing.T) {
	const n, c, k = 32, 8, 2
	var rec recov.Arena
	restarts, completes := 0, 0
	const trials = 6
	for seed := int64(1); seed <= trials; seed++ {
		asn, err := assign.Partitioned(n, c, k, assign.LocalLabels, seed)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := faults.NewRandomOutages(0.002, 10, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rec.Run(asn, 0, inputsFor(n), seed, recov.Config{Config: cogcomp.Config{Check: true}, Schedule: sched})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Stalled && !res.Degraded {
			t.Fatalf("seed %d: stalled run not flagged degraded", seed)
		}
		restarts += res.Restarts
		if res.Complete {
			completes++
		}
	}
	if restarts == 0 {
		t.Error("no crash-restart across all seeds; schedule looks inert")
	}
	if completes == 0 {
		t.Error("no run completed under mild outages; recovery looks broken")
	}
}

// TestDeterminism: identical parameters must reproduce identical results,
// recovery actions included.
func TestDeterminism(t *testing.T) {
	const n, c, k, seed = 16, 4, 2, 5
	asn, err := assign.Partitioned(n, c, k, assign.LocalLabels, seed)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.NewRandomOutages(0.004, 8, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := recov.Config{Config: cogcomp.Config{Check: true}, Schedule: sched}
	var a, b recov.Arena
	r1, err := a.Run(asn, 0, inputsFor(n), seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Run(asn, 0, inputsFor(n), seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", r1, r2)
	}
	// Arena reuse must not change the outcome either.
	r3, err := a.Run(asn, 0, inputsFor(n), seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatalf("warm arena diverged:\n%+v\n%+v", r1, r3)
	}
}

// TestValidation: parameter errors surface as errors, not panics.
func TestValidation(t *testing.T) {
	asn, err := assign.FullOverlap(4, 2, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recov.Run(asn, 9, inputsFor(4), 1, recov.Config{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := recov.Run(asn, 0, inputsFor(3), 1, recov.Config{}); err == nil {
		t.Error("short input vector accepted")
	}
}

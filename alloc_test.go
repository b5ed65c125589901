package crn_test

import (
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/metrics"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// steadyStateEngine builds a 256-node COGCAST network where every node is
// already informed — the configuration BenchmarkEngineSlot measures — and
// warms it up so lazily-grown scratch has reached its final size.
func steadyStateEngine(t *testing.T, opts ...sim.Option) *sim.Engine {
	t.Helper()
	const n, c = 256, 16
	asn, err := assign.SharedCore(n, c, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]sim.Protocol, n)
	for i := range protos {
		protos[i] = cogcast.New(sim.View(asn, sim.NodeID(i)), true, "m", 1)
	}
	eng, err := sim.NewEngine(asn, protos, 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestRunSlotAllocFree pins the zero-allocation property of the hot loop:
// a steady-state RunSlot must not allocate at all. A regression here (a
// map rebuilt per slot, a re-boxed message, a fresh outcome slice) shows up
// as a fractional alloc count and fails loudly.
func TestRunSlotAllocFree(t *testing.T) {
	eng := steadyStateEngine(t)
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RunSlot allocates %.2f objects/slot, want 0", allocs)
	}
}

// TestRunSlotShardedAllocFree extends the zero-allocation pin to the
// sharded scan: once the per-shard accumulators and goroutine bodies are
// built at Reset, a steady-state sharded RunSlot spawns its workers and
// merges their pending actions without a single allocation, at every shard
// count. A regression here (a closure rebuilt per slot, a pend list regrown,
// a channel-based handoff) is exactly the kind of cost that would erase the
// multi-core win WithShards exists for.
func TestRunSlotShardedAllocFree(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		eng := steadyStateEngine(t, sim.WithShards(shards))
		if got := eng.Shards(); got != shards {
			t.Fatalf("Shards() = %d, want %d", got, shards)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := eng.RunSlot(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state RunSlot with %d shards allocates %.2f objects/slot, want 0", shards, allocs)
		}
	}
}

// TestRunSlotPartitionedAllocFree extends the pin to the many-channel
// regime BenchmarkEngineSlotPartitioned measures: on the partitioned
// topology C grows with n, so a slot's actions spread over thousands of
// channels and sort in more than one digit, and a warm slot still
// allocates nothing, serial or sharded.
func TestRunSlotPartitionedAllocFree(t *testing.T) {
	const n, c, k = 5000, 16, 4
	asn, err := assign.Partitioned(n, c, k, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]sim.Protocol, n)
	for i := range protos {
		protos[i] = cogcast.New(sim.View(asn, sim.NodeID(i)), true, "m", 1)
	}
	for _, shards := range []int{1, 2} {
		eng, err := sim.NewEngine(asn, protos, 1, sim.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := eng.RunSlot(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := eng.RunSlot(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state partitioned RunSlot with %d shards allocates %.2f objects/slot, want 0", shards, allocs)
		}
	}
}

// TestRunSlotSparseAllocFree pins the wake-queue's zero-allocation
// property: once the heap, awake set and listen buckets are pre-sized at
// Reset, a steady-state event-driven slot pops wakes, steps the awake few,
// resolves their channels and re-parks them without a single allocation.
// The workload is the census round-robin from BenchmarkEngineSlotSparse —
// the dormancy-heavy pattern the sparse engine exists for — and the pin
// holds at every requested shard count: sparse execution forces the scan
// serial (Shards() == 1), and the discarded shard machinery must not leak
// per-slot cost back in. It also holds with a ring-buffered trace recorder
// and the invariant oracle observing, which keep the engine sparse, on the
// idle round-robin, on its listening variant (censusListener), whose
// slots report thousands of parked listeners, on the contention
// variant (censusStander), whose standing broadcasters are merged into
// their channels each slot and served deaf, and on COGCAST, whose
// informed nodes broadcast quietly, so each channel's losers are left
// out of its deliveries.
func TestRunSlotSparseAllocFree(t *testing.T) {
	const n, c = 4096, 16
	asn, err := assign.SharedCore(n, c, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	type mode struct {
		shards   int
		observed bool
		listen   bool
		stand    bool
		cast     bool
	}
	modes := []mode{{1, false, false, false, false}, {2, false, false, false, false}, {4, false, false, false, false},
		{8, false, false, false, false}, {1, true, false, false, false}, {1, true, true, false, false},
		{1, false, false, true, false}, {1, true, false, true, false}, {1, false, false, false, true}, {1, true, false, false, true}}
	for _, m := range modes {
		protos := make([]sim.Protocol, n)
		for i := range protos {
			switch {
			case m.cast:
				protos[i] = cogcast.New(sim.View(asn, sim.NodeID(i)), i%64 == 0, "m", 1)
			case m.stand:
				protos[i] = &censusStander{msg: i, won: -1}
			case m.listen:
				protos[i] = &censusListener{censusNode{id: i, n: n}}
			default:
				protos[i] = &censusNode{id: i, n: n}
			}
		}
		opts := []sim.Option{sim.WithSparse(), sim.WithShards(m.shards)}
		ck := new(invariant.Checker)
		if m.observed {
			ck.Reset(asn, sim.UniformWinner)
			opts = append(opts, sim.WithObserver(sim.Tee(trace.NewRecorder(trace.NewRing(4096)), ck)))
		}
		eng, err := sim.NewEngine(asn, protos, 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !eng.Sparse() {
			t.Fatalf("%+v: engine not in sparse mode", m)
		}
		if got := eng.Shards(); got != 1 {
			t.Fatalf("%+v: sparse engine reports %d shards, want 1 (forced serial)", m, got)
		}
		for i := 0; i < 2*standPeriod; i++ { // warm scratch, the wake-queue and the stand groups
			if err := eng.RunSlot(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := eng.RunSlot(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state sparse RunSlot (%+v) allocates %.2f objects/slot, want 0", m, allocs)
		}
		if err := ck.Err(); err != nil {
			t.Fatalf("%+v: oracle violation on a healthy run: %v", m, err)
		}
	}
}

// TestRunSlotObservedAllocBound allows the observer path at most one
// allocation per slot: the engine hands the observer its reused outcome
// scratch, so any steady-state cost belongs to the observer itself (the
// metrics collector is itself alloc-free once warm).
func TestRunSlotObservedAllocBound(t *testing.T) {
	eng := steadyStateEngine(t, sim.WithObserver(&metrics.Collector{}))
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("observed RunSlot allocates %.2f objects/slot, want <= 1", allocs)
	}
}

// TestArenaTrialAllocBound pins the setup path's reuse contract end to end:
// one warm (builder, arena) pair running complete COGCAST trials — regenerate
// a SharedCore assignment into the builder's backing, reset the engine,
// reinitialize every node, run to completion — must stay within a small
// constant number of allocations per trial (the Result struct and its two
// per-node slices, plus engine-option boxing), independent of slot count and
// network size. Before the flat/reuse rework this figure was in the tens of
// thousands; a regression toward per-trial rebuilding fails loudly.
func TestArenaTrialAllocBound(t *testing.T) {
	var b assign.Builder
	var arena cogcast.Arena
	const n, c, k, total = 64, 8, 2, 24
	trial := 0
	runTrial := func() {
		trial++
		asn, err := b.SharedCore(n, c, k, total, assign.LocalLabels, int64(trial%7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := arena.Run(asn, 0, "m", int64(trial%7), cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatal("trial incomplete")
		}
	}
	runTrial() // warm the builder, nodes, and engine scratch
	allocs := testing.AllocsPerRun(20, runTrial)
	if allocs > 8 {
		t.Errorf("warm arena COGCAST trial allocates %.1f objects, want <= 8", allocs)
	}
}

// TestTraceDisabledAllocFree pins the observability layer's zero-cost
// contract: with tracing disabled (no sink attached anywhere), the
// steady-state slot path must remain exactly the zero-allocation loop of
// TestRunSlotAllocFree — adding the trace package cannot tax runs that do
// not use it.
func TestTraceDisabledAllocFree(t *testing.T) {
	eng := steadyStateEngine(t)
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("untraced steady-state RunSlot allocates %.2f objects/slot, want 0", allocs)
	}
}

// TestTraceRingAllocFree pins the flight-recorder mode: recording every
// channel outcome and slot marker into a trace.Ring must not reintroduce
// per-slot allocations (Event is a fixed-size value, the ring storage is
// preallocated).
func TestTraceRingAllocFree(t *testing.T) {
	eng := steadyStateEngine(t, sim.WithObserver(trace.NewRecorder(trace.NewRing(4096))))
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ring-traced steady-state RunSlot allocates %.2f objects/slot, want 0", allocs)
	}
}

// TestCheckerObservedAllocFree pins the invariant oracle's warm-path cost:
// a steady-state engine with the checker attached must not allocate per
// slot. The checker's scratch (participation stamps, winner tallies) grows
// lazily during warm-up and is then reused; only the violation path — which
// a healthy run never takes — formats errors.
func TestCheckerObservedAllocFree(t *testing.T) {
	const n, c = 256, 16
	asn, err := assign.SharedCore(n, c, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := new(invariant.Checker)
	ck.Reset(asn, sim.UniformWinner)
	protos := make([]sim.Protocol, n)
	for i := range protos {
		protos[i] = cogcast.New(sim.View(asn, sim.NodeID(i)), true, "m", 1)
	}
	eng, err := sim.NewEngine(asn, protos, 1, sim.WithObserver(ck))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ { // warm both engine scratch and checker tallies
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("checked steady-state RunSlot allocates %.2f objects/slot, want 0", allocs)
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("oracle violation on a healthy run: %v", err)
	}
}

// TestCheckerResetAllocFree pins a warm checker's Reset to no allocation:
// the membership table it rebuilds for a fixed assignment reuses its
// backing array when the shape has not grown.
func TestCheckerResetAllocFree(t *testing.T) {
	asn, err := assign.SharedCore(256, 16, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := new(invariant.Checker)
	ck.Reset(asn, sim.UniformWinner)
	if allocs := testing.AllocsPerRun(10, func() { ck.Reset(asn, sim.UniformWinner) }); allocs != 0 {
		t.Errorf("warm Checker.Reset allocates %.2f objects, want 0", allocs)
	}
}

// TestCheckAssignmentAllocConstantInN pins CheckAssignment's allocation
// count to O(1) in n, in both its exhaustive and its sampled regime: it
// copies the sets into flat arrays of its own rather than building a
// membership map per node (which cost some 5000 allocations at n = 5000).
// The bound leaves room for the odd allocation of the runtime's own that
// lands inside a measured call.
func TestCheckAssignmentAllocConstantInN(t *testing.T) {
	allocs := func(n int) float64 {
		asn, err := assign.SharedCore(n, 16, 4, 48, assign.LocalLabels, 1)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(4, func() {
			if err := invariant.CheckAssignment(asn, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, ns := range [][2]int{{64, 512}, {5000, 20000}} {
		small, large := allocs(ns[0]), allocs(ns[1])
		t.Logf("allocs: n=%d %.0f, n=%d %.0f", ns[0], small, ns[1], large)
		if large-small > 2 {
			t.Errorf("CheckAssignment allocates %.0f objects at n=%d vs %.0f at n=%d, want a difference <= 2", large, ns[1], small, ns[0])
		}
	}
}

// TestCheckerDisabledAllocFree reaffirms the opt-in contract after the
// invariant wiring landed in the protocol runners: with Check off nothing
// is attached to the engine and the slot path stays the pinned
// zero-allocation loop.
func TestCheckerDisabledAllocFree(t *testing.T) {
	eng := steadyStateEngine(t)
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.RunSlot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("unchecked steady-state RunSlot allocates %.2f objects/slot, want 0", allocs)
	}
}

// TestColdArenaAllocConstantInN pins a cold COGCAST run's allocation count
// to O(1) in n: a fresh Arena grows its node slab, pointer slices and
// engine scratch once each, whatever the network size, and a node's
// generator is a value inside the node, not an allocation of its own (a
// generator per node made the count at n = 4000 about 3000 higher than at
// n = 1000). The runs stop at SlotBound, 160 and 192 slots here, below the
// 274th draw at which a generator allocates its 607-word state array.
func TestColdArenaAllocConstantInN(t *testing.T) {
	coldRun := func(n int) float64 {
		asn, err := assign.SharedCore(n, 16, 4, 48, assign.LocalLabels, 1)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := new(cogcast.Arena).Run(asn, 0, "m", 1, cogcast.RunConfig{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := coldRun(1000), coldRun(4000)
	t.Logf("allocs: n=1000 %.0f, n=4000 %.0f", small, large)
	if large-small > 8 {
		t.Errorf("cold arena run allocates %.0f objects at n=4000 vs %.0f at n=1000, want a difference <= 8", large, small)
	}
}

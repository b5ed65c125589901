package exper

import (
	"fmt"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E28",
		Title: "Single-trial scale: COGCAST to a million nodes, COGCOMP to its Θ(n)-slot limit",
		Claim: "Theorem 4's Θ((c/k)·lg n) regime only separates from baselines at scale; the sharded slot engine plus the CSR membership index make a 10⁶-node COGCAST trial practical (slots grow with lg n while per-node index cost stays flat), whereas COGCOMP's Θ(n) census slots make its total work quadratic — the structural reason the epidemic primitive is the scalable one.",
		Run:   runE28,
	})
}

// runE28 sweeps single-trial network sizes. The table carries only
// deterministic columns (topology shape, CSR index footprint, slot counts);
// machine-dependent throughput (slots/sec, wall, bytes/node) is what
// cogbench's -bench-out report records for this experiment, gated in CI
// against BENCH_scale_baseline.json. One trial per point: at these sizes a
// single run is the experiment, and per-point seeds are still derived from
// the point so the table is byte-identical at any -parallel/-shards value.
//
// The COGCAST sweep runs on the partitioned (Theorem 16) topology, where
// C = k + n·(c−k) grows with n: that is the regime where slots track
// (c/k)·lg n and where the engine's channel scratch and the CSR index are
// actually stressed (12M physical channels at n=10⁶, bitsets elided). A
// shared-core row rides along as the dense contrast — pairwise overlap is so
// rich there that capture resolution informs everyone in a couple of slots,
// and the index keeps per-node bitsets.
func runE28(cfg Config) ([]*Table, error) {
	const c, k, coreChannels = 16, 4, 48
	type point struct {
		proto string // "COGCAST" or "COGCOMP"
		topo  string // "partitioned" or "shared-core"
		n     int
	}
	points := []point{
		{"COGCAST", "partitioned", 100_000},
		{"COGCAST", "partitioned", 400_000},
		{"COGCAST", "partitioned", 1_000_000},
		{"COGCAST", "shared-core", 1_000_000},
		{"COGCOMP", "shared-core", 2_000},
		{"COGCOMP", "shared-core", 8_000},
	}
	if cfg.Quick {
		points = []point{
			{"COGCAST", "partitioned", 100_000},
			{"COGCAST", "shared-core", 100_000},
			{"COGCOMP", "shared-core", 2_000},
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("E28: single-trial scale sweep (c=%d, k=%d, local labels, 1 trial/point)", c, k),
		Claim:   "partitioned COGCAST slots grow ~lg n while index bytes/node stay flat; COGCOMP slots grow ~n",
		Columns: []string{"protocol", "topology", "n", "C", "index B/node", "bitsets", "slots", "complete"},
	}

	type scaleResult struct {
		channels int
		indexBPN float64
		bitsets  bool
		slots    int
		complete bool
	}
	runPoint := func(p point) (scaleResult, error) {
		results, err := forTrials(cfg, 1, func(trial int, a *arena) (scaleResult, error) {
			var out scaleResult
			ts := rng.Derive(cfg.Seed, int64(p.n), int64(len(p.proto)+len(p.topo)), 280)
			var asn *assign.Static
			var err error
			if p.topo == "partitioned" {
				asn, err = a.assign.Partitioned(p.n, c, k, assign.LocalLabels, ts)
			} else {
				asn, err = a.assign.SharedCore(p.n, c, k, coreChannels, assign.LocalLabels, ts)
			}
			if err != nil {
				return out, err
			}
			idx := asn.Index()
			out.channels = asn.Channels()
			out.indexBPN = float64(idx.MemoryBytes()) / float64(p.n)
			out.bitsets = idx.HasBitsets()
			if cfg.Trace != nil {
				cfg.Trace.Emit(trace.TrialEvent(trial, ts))
			}
			switch p.proto {
			case "COGCAST":
				budget := 64 * cogcast.SlotBound(p.n, c, k, cogcast.DefaultKappa)
				res, err := a.cast.Run(asn, 0, "m", ts, cfg.cast(cogcast.RunConfig{
					UntilAllInformed: true, MaxSlots: budget, Trace: cfg.Trace,
				}))
				if err != nil {
					return out, err
				}
				out.slots = res.Slots
				out.complete = res.AllInformed
			default: // COGCOMP
				res, err := a.compRun(cfg, asn, 0, a.experInputs(p.n, ts), ts, cogcomp.Config{Trace: cfg.Trace})
				if err != nil {
					return out, err
				}
				out.slots = res.TotalSlots
				out.complete = res.Complete
			}
			return out, nil
		})
		if err != nil {
			return scaleResult{}, err
		}
		return results[0], nil
	}

	for _, p := range points {
		r, err := runPoint(p)
		if err != nil {
			return nil, fmt.Errorf("exper: E28 %s %s n=%d: %w", p.proto, p.topo, p.n, err)
		}
		bitsets := "no"
		if r.bitsets {
			bitsets = "yes"
		}
		t.AddRow(p.proto, p.topo, itoa(p.n), itoa(r.channels), ftoa(r.indexBPN), bitsets,
			itoa(r.slots), fmt.Sprintf("%v", r.complete))
		if !r.complete {
			t.AddNote("UNEXPECTED: %s incomplete at n=%d (%s)", p.proto, p.n, p.topo)
		}
	}
	t.AddNote("COGCOMP stops at n=8000: its phase-2 census is n slots, so total work is Θ(n²) and a 10⁶-node run is structurally infeasible — the contrast the claim predicts")
	t.AddNote("throughput (slots/sec, wall, bytes/node) is machine-dependent and lives in cogbench's -bench-out report (BENCH_scale_baseline.json), not in this table; -shards k speeds large points up on multi-core machines without changing a cell")
	return []*Table{t}, nil
}

func init() {
	register(Experiment{
		ID:    "E29",
		Title: "Event-driven COGCOMP scale: the census wall moves from n=8000 to n=100000",
		Claim: "COGCOMP's phase-2 census occupies ~n slots in which ever-fewer nodes still contend — once a node's entry lands it only listens quietly until the phase boundary. Dense stepping still scans all n nodes every slot (Θ(n²) node-steps); event-driven stepping (sim.WithSparse) walks only the contenders and hands deliveries to quiet listeners in place, so the practical wall moves from n=8000 to n=100000 while every observable stays byte-identical to the dense execution.",
		Run:   runE29,
	})
}

// runE29 sweeps COGCOMP sizes in dense and sparse stepping modes. Paired
// rows (same n, both modes) share a seed, so their slot counts and phase
// breakdowns are cell-for-cell identical — the table *is* the equivalence
// argument, and the wake-queue's entire effect is wall-clock. Throughput
// (slots/sec, wall) is machine-dependent and lives in cogbench's -bench-out
// report, gated in CI against BENCH_scale_baseline.json. Two separate walls
// divide the modes: the engine's per-slot scan (Θ(n) dense vs O(awake)
// sparse — BenchmarkEngineSlotSparse isolates it at three to four orders of
// magnitude on the census's dormant window) and the protocol's own Θ(m²)
// census/collection contention, which dense stepping pays in Steps and
// deliveries while sparse stepping keeps contenders standing (sim.Stand)
// and serves them deaf; end-to-end a 2-core box measures ~14x per pair at
// n=8000 (dense 5.4s vs sparse 0.38s) and ~50x at n=32000 (111s vs 2.2s),
// and only sparse stepping carries the sweep to n=100000 — dense
// extrapolates to ~20 minutes at its measured n=32000 rate of 330
// slots/sec. Config.Check and Config.Trace observe the
// sparse rows as they run, so -check verifies the sparse-only point slot by
// slot too.
func runE29(cfg Config) ([]*Table, error) {
	const c, k, coreChannels = 16, 4, 48
	type point struct {
		sparse bool
		n      int
	}
	points := []point{
		{false, 2_000},
		{false, 8_000},
		{true, 8_000},
		{false, 32_000},
		{true, 32_000},
		{true, 100_000},
	}
	if cfg.Quick {
		points = []point{
			{false, 2_000},
			{true, 2_000},
			{true, 8_000},
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("E29: COGCOMP census wall, dense vs event-driven stepping (shared-core, c=%d, k=%d, 1 trial/point)", c, k),
		Claim:   "sparse rows reproduce dense rows cell-for-cell at the same n; only sparse stepping reaches n=100000",
		Columns: []string{"stepping", "n", "C", "slots", "census slots", "phase4 slots", "complete"},
	}
	type sparseResult struct {
		channels int
		slots    int
		census   int
		phase4   int
		complete bool
	}
	for _, p := range points {
		results, err := forTrials(cfg, 1, func(trial int, a *arena) (sparseResult, error) {
			var out sparseResult
			// Seed depends on n only: the dense and sparse rows at the same
			// n run the same trial, so any cell divergence is an engine bug.
			ts := rng.Derive(cfg.Seed, int64(p.n), 0, 290)
			asn, err := a.assign.SharedCore(p.n, c, k, coreChannels, assign.LocalLabels, ts)
			if err != nil {
				return out, err
			}
			out.channels = asn.Channels()
			if cfg.Trace != nil {
				cfg.Trace.Emit(trace.TrialEvent(trial, ts))
			}
			res, err := a.compRun(cfg, asn, 0, a.experInputs(p.n, ts), ts, cogcomp.Config{Trace: cfg.Trace, Sparse: p.sparse})
			if err != nil {
				return out, err
			}
			out.slots = res.TotalSlots
			out.census = res.Phase2Slots
			out.phase4 = res.Phase4Slots
			out.complete = res.Complete
			return out, nil
		})
		if err != nil {
			return nil, fmt.Errorf("exper: E29 sparse=%v n=%d: %w", p.sparse, p.n, err)
		}
		r := results[0]
		mode := "dense"
		if p.sparse {
			mode = "sparse"
		}
		t.AddRow(mode, itoa(p.n), itoa(r.channels), itoa(r.slots), itoa(r.census), itoa(r.phase4),
			fmt.Sprintf("%v", r.complete))
		if !r.complete {
			t.AddNote("UNEXPECTED: incomplete at n=%d (sparse=%v)", p.n, p.sparse)
		}
	}
	t.AddNote("the census window is ~n slots in which landed nodes listen quietly: dense stepping pays n node-steps per slot regardless (Θ(n²) total), sparse stepping pays only the contenders plus their deliveries")
	t.AddNote("wall-clock and slots/sec are machine-dependent and live in cogbench's -bench-out report (BENCH_scale_baseline.json); the dense/sparse pairs at n=8000 and n=32000 measure the end-to-end gap (~3x — protocol traffic is shared), BenchmarkEngineSlotSparse the engine-level one (>10³x on the dormant window)")
	return []*Table{t}, nil
}

package cogcast

import (
	"context"
	"fmt"

	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// Result reports one COGCAST execution.
type Result struct {
	// Slots is the number of slots executed.
	Slots int
	// AllInformed reports whether every node held the message at the end.
	AllInformed bool
	// Parents[v] is the node that informed v (sim.None for the source and
	// for uninformed nodes). This is the distribution tree of Section 5.
	Parents []sim.NodeID
	// InformedSlots[v] is the slot in which v was first informed (-1 for
	// the source and uninformed nodes).
	InformedSlots []int
	// Trajectory[s] is the number of informed nodes after slot s. Only
	// recorded when requested.
	Trajectory []int
}

// RunConfig configures the convenience runner.
type RunConfig struct {
	// MaxSlots bounds the execution. Zero means the theoretical bound
	// SlotBound(n, c, k, DefaultKappa).
	MaxSlots int
	// Trajectory requests per-slot informed counts.
	Trajectory bool
	// UntilAllInformed stops the run as soon as every node is informed
	// (measuring completion time); otherwise the run uses the full slot
	// budget (measuring the fixed-horizon protocol).
	UntilAllInformed bool
	// Collisions selects the engine's contention semantics (default: the
	// paper's uniform-winner model). The stronger all-delivered model of
	// footnote 3 is available for ablations.
	Collisions sim.CollisionModel
	// Observer, when non-nil, receives per-slot channel outcomes (e.g. a
	// metrics.Collector).
	Observer sim.Observer
	// Trace, when non-nil, receives the run's structured event stream
	// (TRACE.md): per-slot channel outcomes plus epidemic progress and
	// per-node informed events. Nil disables tracing at zero cost.
	Trace trace.Sink
	// Check attaches the invariant oracle: the assignment's k-overlap
	// contract is re-verified, every slot's channel outcomes are re-checked
	// against the collision model, and the resulting distribution tree is
	// validated. A violation fails the run. Disabled (the default) it costs
	// nothing; see package invariant.
	Check bool
	// Shards splits the engine's per-slot protocol scan across that many
	// goroutines (sim.WithShards). Results are byte-identical at any value;
	// 0 or 1 means serial.
	Shards int
	// Sparse enables event-driven stepping (sim.WithSparse). COGCAST nodes
	// draw a channel every slot and never finish, so they never declare
	// dormancy: a sparse engine still steps every node every slot, and only
	// differs in running its scan on one shard whatever Shards asks. The
	// wins belong to protocols with quiescent phases (COGCOMP's census, the
	// hopping baseline). Byte-identical either way.
	Sparse bool
	// Context, when non-nil, is checked at every slot boundary
	// (sim.WithContext): a done context stops the run with a
	// *sim.Interrupted error carrying the slots completed. Runs that
	// complete are byte-identical with or without one.
	Context context.Context
}

// Arena holds the reusable pieces of a COGCAST execution — nodes, their
// protocol slice, the engine, and trace scratch — so repeated trials can run
// without rebuilding them. The zero value is ready to use; Arena.Run on a
// warm arena is byte-identical to the package-level Run. Arenas are not safe
// for concurrent use: parallel trial runners keep one per worker.
type Arena struct {
	nodes       []*Node
	protos      []sim.Protocol
	eng         *sim.Engine
	wasInformed []bool
	opts        []sim.Option
	checker     *invariant.Checker
}

// Checker returns the arena's invariant checker, non-nil once a checked
// run has happened. Its winner-uniformity tallies pool across all of the
// arena's checked runs (see invariant.Checker.Uniformity).
func (a *Arena) Checker() *invariant.Checker { return a.checker }

// Nodes exposes the per-node protocol state of the most recent Run; entry i
// is valid until the arena's next trial. COGCOMP's phases read these.
func (a *Arena) Nodes() []*Node { return a.nodes }

// EngineOptions appends to dst the engine options one run configured by cfg
// needs, and returns the extended slice. It is the single place a runner's
// per-call settings become engine options; COGCAST's and COGCOMP's runners
// both configure their engines here. The order is fixed: the collision
// model (unless it is the engine's default, UniformWinner), shards (when
// cfg.Shards > 1), sparse stepping, the context, and then the observer
// chain, which tees cfg.Observer first, a trace recorder for cfg.Trace
// second, and the invariant checker last. With cfg.Check set, the
// assignment contract is verified up front and *ck is allocated on first
// use and re-armed for asn; its winner tallies pool across the runs that
// share it. Only MaxSlots, Trajectory and UntilAllInformed are ignored.
func EngineOptions(dst []sim.Option, asn sim.Assignment, cfg RunConfig, ck **invariant.Checker) ([]sim.Option, error) {
	if cfg.Collisions != sim.UniformWinner {
		dst = append(dst, sim.WithCollisionModel(cfg.Collisions))
	}
	if cfg.Shards > 1 {
		dst = append(dst, sim.WithShards(cfg.Shards))
	}
	if cfg.Sparse {
		dst = append(dst, sim.WithSparse())
	}
	if cfg.Context != nil {
		dst = append(dst, sim.WithContext(cfg.Context))
	}
	obs := cfg.Observer
	if cfg.Trace != nil {
		obs = sim.Tee(obs, trace.NewRecorder(cfg.Trace))
	}
	if cfg.Check {
		if err := invariant.CheckAssignment(asn, 0); err != nil {
			return dst, err
		}
		if *ck == nil {
			*ck = new(invariant.Checker)
		}
		(*ck).Reset(asn, cfg.Collisions)
		obs = sim.Tee(obs, *ck)
	}
	if obs != nil {
		dst = append(dst, sim.WithObserver(obs))
	}
	return dst, nil
}

// build (re)initializes n nodes and the engine for one trial.
func (a *Arena) build(asn sim.Assignment, source sim.NodeID, payload sim.Message, seed int64, engOpts []sim.Option) error {
	n := asn.Nodes()
	if cap(a.nodes) < n {
		a.nodes = append(a.nodes[:cap(a.nodes)], make([]*Node, n-cap(a.nodes))...)
		a.protos = make([]sim.Protocol, n)
	}
	a.nodes = a.nodes[:n]
	a.protos = a.protos[:n]
	for i := range a.nodes {
		if a.nodes[i] == nil {
			a.nodes[i] = &Node{}
		}
		a.nodes[i].Reinit(sim.View(asn, sim.NodeID(i)), sim.NodeID(i) == source, payload, seed)
		a.protos[i] = a.nodes[i]
	}
	if a.eng == nil {
		eng, err := sim.NewEngine(asn, a.protos, seed, engOpts...)
		if err != nil {
			return err
		}
		a.eng = eng
		return nil
	}
	return a.eng.Reset(asn, a.protos, seed, engOpts...)
}

// Run executes COGCAST exactly as the package-level Run does, reusing the
// arena's nodes and engine.
func (a *Arena) Run(asn sim.Assignment, source sim.NodeID, payload sim.Message, seed int64, cfg RunConfig) (*Result, error) {
	n := asn.Nodes()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("cogcast: source %d outside [0,%d)", source, n)
	}
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		maxSlots = SlotBound(n, asn.PerNode(), asn.MinOverlap(), DefaultKappa)
	}

	var err error
	if a.opts, err = EngineOptions(a.opts[:0], asn, cfg, &a.checker); err != nil {
		return nil, fmt.Errorf("cogcast: %w", err)
	}
	if err := a.build(asn, source, payload, seed, a.opts); err != nil {
		return nil, err
	}
	nodes, eng := a.nodes, a.eng

	informed := func() int {
		count := 0
		for _, nd := range nodes {
			if nd.Informed() {
				count++
			}
		}
		return count
	}

	// Tracing tracks which nodes are newly informed after each slot so it
	// can emit per-node informed events and the epidemic-progress curve.
	var wasInformed []bool
	if cfg.Trace != nil {
		if cap(a.wasInformed) < n {
			a.wasInformed = make([]bool, n)
		}
		wasInformed = a.wasInformed[:n]
		for i, nd := range nodes {
			wasInformed[i] = nd.Informed()
		}
		cfg.Trace.Emit(trace.ProgressEvent(-1, informed(), n))
	}

	res := &Result{}
	for eng.Slot() < maxSlots {
		if cfg.UntilAllInformed && informed() == n {
			break
		}
		if err := eng.RunSlot(); err != nil {
			return nil, err
		}
		if cfg.Trajectory {
			res.Trajectory = append(res.Trajectory, informed())
		}
		if cfg.Trace != nil {
			slot := eng.Slot() - 1
			changed := false
			for i, nd := range nodes {
				if !wasInformed[i] && nd.Informed() {
					wasInformed[i] = true
					changed = true
					cfg.Trace.Emit(trace.InformedEvent(slot, i, int(nd.Parent()), nd.InformedChannel()))
				}
			}
			if changed {
				cfg.Trace.Emit(trace.ProgressEvent(slot, informed(), n))
			}
		}
	}

	res.Slots = eng.Slot()
	res.AllInformed = informed() == n
	res.Parents = make([]sim.NodeID, n)
	res.InformedSlots = make([]int, n)
	for i, nd := range nodes {
		res.Parents[i] = nd.Parent()
		res.InformedSlots[i] = nd.InformedSlot()
	}
	if cfg.Check {
		if err := a.checker.Err(); err != nil {
			return nil, fmt.Errorf("cogcast: slot oracle (%d violations): %w", a.checker.Violations(), err)
		}
		if err := invariant.CheckBroadcastTree(n, source, res.Parents, res.InformedSlots, res.AllInformed); err != nil {
			return nil, fmt.Errorf("cogcast: %w", err)
		}
	}
	return res, nil
}

// Run executes COGCAST over the assignment with the given source node and
// returns the outcome. It is the harness used by experiments, baselines
// comparisons, and the public API. Repeated callers should prefer a reusable
// Arena; this convenience builds a fresh one per call.
func Run(asn sim.Assignment, source sim.NodeID, payload sim.Message, seed int64, cfg RunConfig) (*Result, error) {
	return new(Arena).Run(asn, source, payload, seed, cfg)
}

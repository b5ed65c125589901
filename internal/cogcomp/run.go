package cogcomp

import (
	"context"
	"errors"
	"fmt"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// ErrIncomplete is returned when aggregation finished but some nodes never
// joined the tree (the phase-one w.h.p. event failed), so the source's
// aggregate is missing inputs.
var ErrIncomplete = errors.New("cogcomp: aggregation incomplete: some nodes were never informed")

// Config configures a COGCOMP run.
type Config struct {
	// Kappa scales phase one's length (see cogcast.SlotBound). Zero means
	// cogcast.DefaultKappa.
	Kappa float64
	// MaxSlots bounds the whole execution. Zero picks a budget comfortably
	// above the Theorem 10 bound for the given parameters.
	MaxSlots int
	// Func is the aggregate to compute. Nil means aggfunc.Sum.
	Func aggfunc.Func
	// Observer, when non-nil, receives every slot's channel outcomes
	// (before the trace recorder and the invariant checker in tee order).
	// Reactive adversaries attach through it. Observers see sparse runs
	// slot by slot, exactly as they see dense ones.
	Observer sim.Observer
	// Trace, when non-nil, receives the run's structured event stream
	// (TRACE.md): per-slot channel outcomes, phase-transition events as
	// the run crosses the nominal phase boundaries, and a final census
	// event with the informed count and elected mediators. Nil disables
	// tracing at zero cost.
	Trace trace.Sink
	// Check attaches the invariant oracle: the assignment contract, every
	// slot's channel outcomes, the phase-one distribution tree, the
	// cluster census, and — on complete runs — the aggregate value against
	// aggfunc.Fold ground truth. A violation fails the run. Disabled (the
	// default) it costs nothing; see package invariant.
	Check bool
	// Shards splits the engine's per-slot protocol scan across that many
	// goroutines (sim.WithShards). Results are byte-identical at any value;
	// 0 or 1 means serial.
	Shards int
	// Sparse enables event-driven stepping (sim.WithSparse): the engine
	// honours the dormancy hints nodes always emit and scans only awake
	// nodes, which collapses the census window's Θ(n²) node-steps to
	// O(events). Executions are byte-identical to dense runs, Trace and
	// Check included; the engine silently runs dense when the assignment
	// is not sim.Fixed.
	Sparse bool
	// Context, when non-nil, is checked at every slot boundary
	// (sim.WithContext): a done context stops the run with a
	// *sim.Interrupted error carrying the slots completed. Runs that
	// complete are byte-identical with or without one.
	Context context.Context
}

// DefaultMaxSlots is the slot budget Run uses when Config.MaxSlots is
// zero: phases 1-3 take 2l+n slots, phase four needs at most about 3(n+l)
// slots per the Theorem 10 induction; double it for slack.
func DefaultMaxSlots(n, l int) int {
	return (2*l + n) + 6*(n+l) + 96
}

// Result reports one COGCOMP execution.
type Result struct {
	// Value is the aggregate held by the source at termination.
	Value aggfunc.Value
	// Complete reports that every node contributed.
	Complete bool
	// TotalSlots is the number of slots until every node terminated.
	TotalSlots int
	// Phase1Slots .. Phase4Slots break the run down per phase. Phases one
	// to three have fixed lengths (l, n, l); phase four runs to completion.
	Phase1Slots, Phase2Slots, Phase3Slots, Phase4Slots int
	// InformedAfterPhase1 counts nodes holding INIT when phase one ended.
	InformedAfterPhase1 int
	// Parents is the distribution tree (sim.None for source/uninformed).
	Parents []sim.NodeID
	// MaxMessageSize is the largest phase-four value message any node sent,
	// in abstract words (see aggfunc.Func.Size).
	MaxMessageSize int
	// Mediators counts elected mediators (one per channel that informed
	// anyone in phase one).
	Mediators int
}

// Arena holds the reusable pieces of a COGCOMP execution — nodes (each with
// its embedded COGCAST node), the census logs their rosters index, the
// protocol slice, and the engine — so repeated trials run without
// rebuilding them. Every Node is built by an arena. The zero value is ready
// to use; a warm arena's runs are byte-identical to the package-level Run
// and RunRounds. Arenas are not safe for concurrent use: parallel trial
// runners keep one per worker.
type Arena struct {
	nodes    []*Node
	slab     []Node // backs nodes: one allocation per growth, not per node
	cen      census
	protos   []sim.Protocol
	eng      *sim.Engine
	engOpts  []sim.Option
	checker  *invariant.Checker
	infSlots []int
}

// build (re)initializes n nodes and the engine for one execution. wrap,
// when non-nil, maps each node to the protocol the engine drives (e.g. a
// fault-injection wrapper); nil drives the nodes directly.
func (a *Arena) build(asn sim.Assignment, source sim.NodeID, n, l int, input func(i int) int64, f aggfunc.Func, seed int64, engOpts []sim.Option, wrap func(sim.NodeID, *Node) sim.Protocol) error {
	if len(a.slab) < n {
		a.slab = append(a.slab, make([]Node, n-len(a.slab))...)
		a.nodes, a.protos = make([]*Node, n), make([]sim.Protocol, n)
	}
	a.nodes = a.nodes[:n]
	a.protos = a.protos[:n]
	a.cen.reset(asn)
	for i := range a.nodes {
		a.nodes[i] = &a.slab[i]
		a.nodes[i].reinit(sim.View(asn, sim.NodeID(i)), sim.NodeID(i) == source, n, l, input(i), f, seed, &a.cen)
		if wrap == nil {
			a.protos[i] = a.nodes[i]
		} else {
			a.protos[i] = wrap(sim.NodeID(i), a.nodes[i])
		}
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

// Prepare validates the run parameters and (re)initializes the arena's
// nodes and engine for one execution without running it: configuration
// defaulting, observer wiring (trace recorder, invariant checker) and node
// construction, exactly as Run performs them. It returns the nodes, the
// engine, and the phase-one length l. internal/recover's supervisor uses
// Prepare to take over the slot loop while staying draw-for-draw identical
// to the classic runner; wrap lets it interpose fault-injection wrappers
// between the engine and the nodes.
func (a *Arena) Prepare(asn sim.Assignment, source sim.NodeID, inputs []int64, seed int64, cfg Config, wrap func(sim.NodeID, *Node) sim.Protocol) ([]*Node, *sim.Engine, int, error) {
	n := asn.Nodes()
	if source < 0 || int(source) >= n {
		return nil, nil, 0, fmt.Errorf("cogcomp: source %d outside [0,%d)", source, n)
	}
	if len(inputs) != n {
		return nil, nil, 0, fmt.Errorf("cogcomp: got %d inputs for %d nodes", len(inputs), n)
	}
	kappa := cfg.Kappa
	if kappa == 0 {
		kappa = cogcast.DefaultKappa
	}
	f := cfg.Func
	if f == nil {
		f = aggfunc.Sum{}
	}
	l := PhaseOneLength(n, asn.PerNode(), asn.MinOverlap(), kappa)

	var err error
	a.engOpts, err = cogcast.EngineOptions(a.engOpts[:0], asn, cogcast.RunConfig{
		Observer: cfg.Observer, Trace: cfg.Trace, Check: cfg.Check,
		Shards: cfg.Shards, Sparse: cfg.Sparse, Context: cfg.Context,
	}, &a.checker)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cogcomp: %w", err)
	}
	if err := a.build(asn, source, n, l, func(i int) int64 { return inputs[i] }, f, seed, a.engOpts, wrap); err != nil {
		return nil, nil, 0, err
	}
	return a.nodes, a.eng, l, nil
}

// Run executes COGCOMP exactly as the package-level Run does, reusing the
// arena's nodes and engine.
func (a *Arena) Run(asn sim.Assignment, source sim.NodeID, inputs []int64, seed int64, cfg Config) (*Result, error) {
	return a.RunWith(asn, source, inputs, seed, cfg, nil)
}

// RunWith is Run with an optional protocol wrapper interposed between the
// engine and every node (see Prepare) — the hook fault injectors use to
// run the *unsupervised* protocol under crashes, measuring what recovery
// is worth. A nil wrap is exactly Run.
func (a *Arena) RunWith(asn sim.Assignment, source sim.NodeID, inputs []int64, seed int64, cfg Config, wrap func(sim.NodeID, *Node) sim.Protocol) (*Result, error) {
	n := asn.Nodes()
	nodes, eng, l, err := a.Prepare(asn, source, inputs, seed, cfg, wrap)
	if err != nil {
		return nil, err
	}
	f := nodes[source].f
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		maxSlots = DefaultMaxSlots(n, l)
	}
	// A traced run emits each phase event the moment the run crosses its
	// nominal boundary (phases one to three have the fixed lengths l, n, l;
	// phase four starts at 2l+n and runs to completion). Tiny networks may
	// finish before a boundary, and then the remaining phase events are not
	// emitted, matching the run's actual shape rather than the nominal one.
	var phases []trace.Event
	if cfg.Trace != nil {
		phases = []trace.Event{
			trace.PhaseEvent(0, 1, l),
			trace.PhaseEvent(l, 2, n),
			trace.PhaseEvent(l+n, 3, l),
			trace.PhaseEvent(2*l+n, 4, 0),
		}
	}
	total, err := eng.RunWhile(maxSlots, func() bool {
		if eng.AllDone() {
			return false
		}
		for len(phases) > 0 && eng.Slot() >= phases[0].Slot {
			cfg.Trace.Emit(phases[0])
			phases = phases[1:]
		}
		return true
	})
	if err != nil {
		if errors.As(err, new(*sim.Interrupted)) { // it names the count
			return nil, fmt.Errorf("cogcomp: %w (l=%d n=%d)", err, l, n)
		}
		return nil, fmt.Errorf("cogcomp: %w (after %d slots; l=%d n=%d)", err, total, l, n)
	}

	res := &Result{
		TotalSlots:  total,
		Phase1Slots: l,
		Phase2Slots: n,
		Phase3Slots: l,
		Phase4Slots: total - (2*l + n),
	}
	if res.Phase4Slots < 0 {
		// Tiny networks can finish before the nominal phase boundaries.
		res.Phase4Slots = 0
	}
	a.Tally(res, source)
	informed := res.InformedAfterPhase1
	res.Complete = informed == n
	if cfg.Trace != nil {
		cfg.Trace.Emit(trace.CensusEvent(total, informed, res.Mediators))
	}
	if cfg.Check {
		if err := a.CheckRun(res, source); err != nil {
			return nil, fmt.Errorf("cogcomp: %w", err)
		}
		if err := invariant.CheckCensus(n, asn.Channels(), informed, res.Mediators, res.Complete); err != nil {
			return nil, fmt.Errorf("cogcomp: %w", err)
		}
		if res.Complete {
			if want := aggfunc.Fold(f, inputs); !invariant.AggEqual(res.Value, want) {
				return nil, fmt.Errorf("cogcomp: aggregate %v diverges from ground truth %v (%s over n=%d)",
					res.Value, want, f.Name(), n)
			}
		}
	}
	if !res.Complete {
		return res, ErrIncomplete
	}
	return res, nil
}

// Tally fills res's per-node fields from the arena's nodes after a run: the
// source's aggregate, the distribution tree, the largest phase-four
// message, the mediator count and, in InformedAfterPhase1, the informed
// count. The classic runner and the recovery supervisor both assemble
// their results through it; each sets the phase accounting and Complete
// itself.
func (a *Arena) Tally(res *Result, source sim.NodeID) {
	res.Value = a.nodes[source].Aggregate()
	res.Parents = make([]sim.NodeID, len(a.nodes))
	for i, nd := range a.nodes {
		if nd.Informed() {
			res.InformedAfterPhase1++
		}
		res.Parents[i] = nd.Parent()
		if nd.MaxMessageSize() > res.MaxMessageSize {
			res.MaxMessageSize = nd.MaxMessageSize()
		}
		if nd.IsMediator() {
			res.Mediators++
		}
	}
}

// CheckRun runs the oracle verdicts the classic runner and the recovery
// supervisor share after a checked run, in order: the slot checker's first
// violation, then the distribution tree in res (filled by Tally) against
// every node's informed slot, complete when every node was informed. The
// error carries no package prefix; callers add their own.
func (a *Arena) CheckRun(res *Result, source sim.NodeID) error {
	if err := a.checker.Err(); err != nil {
		return fmt.Errorf("slot oracle (%d violations): %w", a.checker.Violations(), err)
	}
	n := len(a.nodes)
	if cap(a.infSlots) < n {
		a.infSlots = make([]int, n)
	}
	a.infSlots = a.infSlots[:n]
	for i, nd := range a.nodes {
		a.infSlots[i] = nd.InformedSlot()
	}
	return invariant.CheckBroadcastTree(n, source, res.Parents, a.infSlots, res.InformedAfterPhase1 == n)
}

// Run executes COGCOMP over the assignment and returns the source's
// aggregate. The assignment must be static: phases two to four revisit the
// channels used in phase one, which is meaningless if sets change per slot
// (COGCAST alone, by contrast, also works over dynamic assignments).
// Repeated callers should prefer a reusable Arena; this convenience builds a
// fresh one per call.
func Run(asn sim.Assignment, source sim.NodeID, inputs []int64, seed int64, cfg Config) (*Result, error) {
	return new(Arena).Run(asn, source, inputs, seed, cfg)
}

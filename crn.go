// Package crn is a simulation library for communication in single-hop
// cognitive radio networks, reproducing "Efficient Communication in
// Cognitive Radio Networks" (Gilbert, Kuhn, Newport, Zheng — PODC 2015).
//
// The model: n nodes, C physical channels, each node holding c of them,
// every pair of nodes overlapping on at least k channels. Time is slotted;
// per slot a node tunes to one channel and broadcasts or listens; when
// several nodes broadcast on a channel one uniformly chosen message is
// delivered (a backoff layer the paper abstracts away — see the E12
// experiment for its cost).
//
// The package exposes the paper's two protocols:
//
//   - Broadcast (COGCAST): epidemic local broadcast in
//     O((c/k)·max{1,c/n}·lg n) slots w.h.p.
//   - Aggregate (COGCOMP): data aggregation over the broadcast's implicit
//     spanning tree in O((c/k)·max{1,c/n}·lg n + n) slots w.h.p.
//
// plus the baselines the paper compares against (rendezvous broadcast,
// rendezvous aggregation, global-label lockstep scanning) and a jammed
// multi-channel network adapter (Theorem 18). Everything is deterministic
// given a seed.
//
// Quick start:
//
//	net, err := crn.NewNetwork(crn.Spec{
//		Nodes: 64, ChannelsPerNode: 8, MinOverlap: 2,
//		TotalChannels: 24, Topology: crn.SharedCore, Seed: 1,
//	})
//	...
//	res, err := net.Broadcast(crn.BroadcastOptions{Payload: "hello", Seed: 1})
//	fmt.Println(res.Slots, res.AllInformed)
package crn

import (
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/cogradio/crn/internal/adversary"
	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/baseline"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/faults"
	"github.com/cogradio/crn/internal/jamming"
	"github.com/cogradio/crn/internal/metrics"
	recov "github.com/cogradio/crn/internal/recover"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// NodeID identifies a node, 0..n-1.
type NodeID = int

// None marks "no node" in parent slices (the source's parent, uninformed
// nodes).
const None NodeID = -1

// Topology selects how channel sets are generated.
type Topology int

// Topologies. See DESIGN.md for which parts of the paper's analysis each
// exercises.
const (
	// FullOverlap: all nodes share the same c channels (C = c, k = c).
	FullOverlap Topology = iota + 1
	// Partitioned: k channels shared by everyone, the rest private per
	// node (the Theorem 16 lower-bound construction; C = k + n(c−k)).
	Partitioned
	// SharedCore: k shared channels plus uniformly drawn extras from a
	// pool of TotalChannels (the generic topology; overlaps >= k).
	SharedCore
	// RandomPool: every set drawn uniformly from TotalChannels, rejected
	// until pairwise overlap >= k.
	RandomPool
	// PairwiseDedicated: every pair of nodes shares k channels dedicated
	// to that pair (the "spread overlap" extreme of Claim 2; needs
	// c >= k(n−1)).
	PairwiseDedicated
)

// Labels selects the channel-label model.
type Labels int

// Label models.
const (
	// LocalLabels (the paper's default): each node names its channels in a
	// private arbitrary order.
	LocalLabels Labels = iota
	// GlobalLabels: all nodes use a consistent numbering; required by the
	// HoppingTogether baseline.
	GlobalLabels
)

// Spec describes a network to build.
type Spec struct {
	// Nodes is n.
	Nodes int
	// ChannelsPerNode is c.
	ChannelsPerNode int
	// MinOverlap is k.
	MinOverlap int
	// TotalChannels is C; required by SharedCore and RandomPool, derived
	// for the other topologies.
	TotalChannels int
	// Topology selects the generator. Zero value is invalid; pick one.
	Topology Topology
	// Labels selects the label model (default LocalLabels).
	Labels Labels
	// Dynamic re-draws channel sets every slot while preserving MinOverlap
	// (SharedCore semantics). Broadcast supports dynamic networks;
	// Aggregate requires a static one.
	Dynamic bool
	// FlipSlots re-draws channel sets at exactly the listed slots (strictly
	// increasing, positive) while preserving MinOverlap — SharedCore
	// semantics with operator-driven reassignment events instead of
	// Dynamic's per-slot churn. Requires Topology SharedCore, local labels,
	// and Dynamic false. The network counts as dynamic: Broadcast supports
	// it, Aggregate does not.
	FlipSlots []int
	// Seed determines the generated assignment.
	Seed int64
}

// Network is a network instance protocols run over. A network whose
// Dynamic reports false is immutable and safe to share between concurrent
// runs. A dynamic one is not: its assignment caches or re-draws sets per
// slot, jamming adapters hold state, and a reactive network resets a shared
// adversary in every Broadcast, so concurrent runs each need their own.
type Network struct {
	asn sim.Assignment
	adv *adversary.Driver
}

// NewNetwork builds a network from a Spec.
func NewNetwork(spec Spec) (*Network, error) {
	model := assign.LocalLabels
	if spec.Labels == GlobalLabels {
		model = assign.GlobalLabels
	}
	var (
		asn sim.Assignment
		err error
	)
	if spec.Dynamic || len(spec.FlipSlots) > 0 {
		kind, when := "flipping", "at flip slots"
		if spec.Dynamic {
			if len(spec.FlipSlots) > 0 {
				return nil, errors.New("crn: Dynamic re-draws every slot already; drop FlipSlots")
			}
			kind, when = "dynamic", "per slot"
		}
		if spec.Topology != SharedCore {
			return nil, fmt.Errorf("crn: %s networks use SharedCore semantics; set Topology: SharedCore", kind)
		}
		if spec.Labels == GlobalLabels {
			return nil, fmt.Errorf("crn: %s networks re-draw sets %s and only support local labels", kind, when)
		}
		if spec.Dynamic {
			asn, err = assign.NewDynamic(spec.Nodes, spec.ChannelsPerNode, spec.MinOverlap, spec.TotalChannels, spec.Seed)
		} else {
			asn, err = assign.NewFlipping(spec.Nodes, spec.ChannelsPerNode, spec.MinOverlap, spec.TotalChannels, spec.Seed, spec.FlipSlots)
		}
	} else {
		switch spec.Topology {
		case FullOverlap:
			asn, err = assign.FullOverlap(spec.Nodes, spec.ChannelsPerNode, model, spec.Seed)
		case Partitioned:
			asn, err = assign.Partitioned(spec.Nodes, spec.ChannelsPerNode, spec.MinOverlap, model, spec.Seed)
		case SharedCore:
			asn, err = assign.SharedCore(spec.Nodes, spec.ChannelsPerNode, spec.MinOverlap, spec.TotalChannels, model, spec.Seed)
		case RandomPool:
			asn, err = assign.RandomPool(spec.Nodes, spec.ChannelsPerNode, spec.MinOverlap, spec.TotalChannels, model, spec.Seed)
		case PairwiseDedicated:
			asn, err = assign.PairwiseDedicated(spec.Nodes, spec.ChannelsPerNode, spec.MinOverlap, model, spec.Seed)
		default:
			return nil, fmt.Errorf("crn: unknown topology %d", spec.Topology)
		}
	}
	if err != nil {
		return nil, err
	}
	return &Network{asn: asn}, nil
}

// NewJammedNetwork builds the Theorem 18 reduction: a classic n-node,
// c-channel network under an n-uniform adversary that jams up to kJam < c/2
// channels per node per slot. strategy is one of "none", "random", "sweep",
// "block" (a sweeping jammer that dwells on one budget-sized channel block
// at a time), or "split". The result behaves like a dynamic cognitive radio
// network with pairwise overlap at least c−2·kJam; Broadcast runs over it
// unmodified.
func NewJammedNetwork(nodes, channels, kJam int, strategy string, seed int64) (*Network, error) {
	jam, err := newJammer(strategy, channels, kJam, seed)
	if err != nil {
		return nil, err
	}
	asn, err := jamming.NewAssignment(nodes, channels, kJam, jam, seed)
	if err != nil {
		return nil, err
	}
	return &Network{asn: asn}, nil
}

// newJammer maps a strategy name to a jamming adversary with the given
// per-node budget.
func newJammer(strategy string, channels, kJam int, seed int64) (jamming.Jammer, error) {
	switch strategy {
	case "none":
		return jamming.NoJammer{}, nil
	case "random":
		return jamming.NewRandomJammer(channels, kJam, seed), nil
	case "sweep":
		return jamming.NewSweepJammer(channels, kJam), nil
	case "block":
		return jamming.NewBlockSweepJammer(channels, kJam, 8), nil
	case "split":
		return jamming.NewSplitJammer(channels, kJam, 4), nil
	default:
		return nil, fmt.Errorf("crn: unknown jammer strategy %q (want none, random, sweep, block or split)", strategy)
	}
}

// AdversaryBudget bounds a reactive adversary's energy: PerSlot caps the
// actions scheduled in any one slot, Total is the whole-run reserve (one
// unit per jammed channel per slot, one unit per node-slot held down).
// See DESIGN.md "Adversaries and tournaments".
type AdversaryBudget struct {
	PerSlot int
	Total   int
}

// DefaultAdversaryPerSlot is the per-slot action cap used when an
// AdversaryBudget leaves PerSlot zero but has energy to spend.
const DefaultAdversaryPerSlot = 2

// AdversaryReport is the budget ledger of a run that faced a reactive
// adversary, copied into the result.
type AdversaryReport struct {
	// Strategy is the adversary's name.
	Strategy string
	// PerSlot and Total echo the budget.
	PerSlot, Total int
	// Spent is the energy charged; JamSpent and CrashSpent split it by
	// weapon.
	Spent, JamSpent, CrashSpent int
	// ExhaustedAt is the slot the reserve hit zero, or -1.
	ExhaustedAt int
}

// advReport copies a driver's ledger into the public report form.
func advReport(drv *adversary.Driver) *AdversaryReport {
	led := drv.Ledger()
	return &AdversaryReport{
		Strategy:    drv.Name(),
		PerSlot:     led.PerSlot,
		Total:       led.Total,
		Spent:       led.Spent,
		JamSpent:    led.JamSpent,
		CrashSpent:  led.CrashSpent,
		ExhaustedAt: led.ExhaustedAt,
	}
}

// NewReactiveJammedNetwork builds the Theorem 18 reduction under a
// *reactive* adversary (package adversary): a strategy that observes every
// slot's channel outcomes and jams up to budget.PerSlot channels next
// slot, spending from budget.Total. Strategies: "none", "busiest",
// "follower", "hunter" (crash-capable strategies like "crasher" have no
// jamming interpretation and are rejected). The per-slot cap doubles as
// the reduction's kJam, so it must stay below channels/2 and the overlap
// guarantee is channels − 2·PerSlot.
//
// A "none" strategy or a zero budget builds the plain no-jammer control
// network — byte-for-byte, so zero-energy runs are their own control arm.
func NewReactiveJammedNetwork(nodes, channels int, strategy string, budget AdversaryBudget, seed int64) (*Network, error) {
	strat, err := adversary.New(strategy)
	if err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	if strategy != "none" && !adversary.CanJam(strategy) {
		return nil, fmt.Errorf("crn: adversary %q cannot jam; reactive jammed networks take none, busiest, follower or hunter", strategy)
	}
	if budget.PerSlot == 0 && budget.Total > 0 {
		budget.PerSlot = DefaultAdversaryPerSlot
	}
	if strategy == "none" || budget.Total <= 0 || budget.PerSlot <= 0 {
		return NewJammedNetwork(nodes, channels, 0, "none", seed)
	}
	drv, err := adversary.NewDriver(strat, nodes, channels, adversary.Budget{PerSlot: budget.PerSlot, Total: budget.Total}, seed)
	if err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	drv.EnableJam(budget.PerSlot)
	asn, err := jamming.NewAssignment(nodes, channels, budget.PerSlot, drv, seed)
	if err != nil {
		return nil, err
	}
	return &Network{asn: asn, adv: drv}, nil
}

// JamPhase is one segment of a phase-scheduled jamming adversary: from
// FromSlot on, the adversary plays Strategy with a per-node budget of
// Budget jammed channels per slot.
type JamPhase struct {
	FromSlot int
	Strategy string
	Budget   int
}

// NewJammedNetworkPhases builds the Theorem 18 reduction under an adversary
// that switches strategies at pre-declared slots (the scenario DSL's
// "jam-switch" events): phase i's strategy and budget apply from its
// FromSlot until the next phase starts. Phases must start at slot 0 and
// have strictly increasing FromSlots; each phase is still oblivious, so
// the whole adversary stays deterministic and runs reproducible. The
// reduction's overlap guarantee uses the largest budget of any phase
// (which must stay below channels/2).
func NewJammedNetworkPhases(nodes, channels int, phases []JamPhase, seed int64) (*Network, error) {
	if len(phases) == 0 {
		return nil, errors.New("crn: jammed network needs at least one phase")
	}
	maxBudget := 0
	sw := make([]jamming.SwitchPhase, len(phases))
	for i, p := range phases {
		jam, err := newJammer(p.Strategy, channels, p.Budget, seed)
		if err != nil {
			return nil, err
		}
		if p.Budget > maxBudget {
			maxBudget = p.Budget
		}
		sw[i] = jamming.SwitchPhase{From: p.FromSlot, Jammer: jam}
	}
	var jam jamming.Jammer
	if len(sw) == 1 {
		// A single phase is exactly NewJammedNetwork; skip the switcher so
		// the two constructors stay byte-identical.
		jam = sw[0].Jammer
	} else {
		var err error
		jam, err = jamming.NewSwitcher(sw...)
		if err != nil {
			return nil, err
		}
	}
	asn, err := jamming.NewAssignment(nodes, channels, maxBudget, jam, seed)
	if err != nil {
		return nil, err
	}
	return &Network{asn: asn}, nil
}

// Nodes returns n.
func (nw *Network) Nodes() int { return nw.asn.Nodes() }

// ChannelsPerNode returns c.
func (nw *Network) ChannelsPerNode() int { return nw.asn.PerNode() }

// MinOverlap returns k.
func (nw *Network) MinOverlap() int { return nw.asn.MinOverlap() }

// TotalChannels returns C.
func (nw *Network) TotalChannels() int { return nw.asn.Channels() }

// Dynamic reports whether channel sets can change from slot to slot.
func (nw *Network) Dynamic() bool { return !sim.Fixed(nw.asn) }

// SlotBound returns the paper's COGCAST run-length
// κ·(c/k)·max{1,c/n}·lg n for this network (κ = kappa; pass 0 for the
// library default).
func (nw *Network) SlotBound(kappa float64) int {
	if kappa == 0 {
		kappa = cogcast.DefaultKappa
	}
	return cogcast.SlotBound(nw.Nodes(), nw.ChannelsPerNode(), nw.MinOverlap(), kappa)
}

// EngineOptions holds the execution settings Broadcast, Aggregate and
// AggregateRounds share; BroadcastOptions and AggregateOptions embed it.
type EngineOptions struct {
	// MaxSlots bounds the run; zero means the protocol's own budget (the
	// theoretical SlotBound for Broadcast, a budget above the Theorem 10
	// bound for Aggregate). AggregateRounds rejects it: a session sizes
	// its own window.
	MaxSlots int
	// Trace, when non-nil, streams a structured JSONL event trace of the
	// run to the writer: per-slot channel outcomes, the protocol's
	// progress events, and the jammer's, adversary's and recovery
	// supervisor's events where they take part. The schema is documented
	// in TRACE.md. Tracing does not change the run's results. Buffer the
	// writer for large runs. AggregateRounds rejects it.
	Trace io.Writer
	// Check runs the invariant oracle alongside the protocol: the
	// assignment's overlap contract, every slot's collision resolution,
	// the distribution tree and, for aggregation, the cluster census and
	// the aggregate against directly computed ground truth. Any violation
	// fails the run. Results are unchanged; zero cost when false.
	Check bool
	// Shards splits the engine's per-slot protocol scan across that many
	// goroutines, speeding up very large static networks on multi-core
	// machines. Results are byte-identical at any value — shard results
	// merge in node order and tie-break draws stay serial — and dynamic or
	// jammed networks silently run serially. 0 or 1 means serial.
	Shards int
	// Sparse runs the engine in event-driven stepping mode: nodes that
	// declare themselves dormant (almost every node in COGCOMP's census
	// window) are skipped instead of scanned, so a slot costs
	// O(awake + deliveries) instead of Θ(n). Results are byte-identical at
	// any setting; dynamic or jammed networks and recovered runs silently
	// step densely.
	Sparse bool
	// Context, when non-nil, can interrupt the run; context.WithTimeout
	// bounds its wall-clock time. Cancellation is observed at slot
	// boundaries and consumes no protocol randomness, so a run that
	// completes is byte-identical to the same run without a context. An
	// interrupted run returns an *InterruptedError wrapping ErrCanceled or
	// ErrDeadlineExceeded and carrying the count of fully executed slots.
	Context context.Context
}

// BroadcastOptions configures a Broadcast run.
type BroadcastOptions struct {
	// Source is the initiating node (default 0).
	Source NodeID
	// Payload is the message to disseminate.
	Payload any
	// Seed determines all protocol randomness.
	Seed int64
	// RunToCompletion stops as soon as every node is informed, measuring
	// completion time, rather than running the fixed theoretical horizon.
	RunToCompletion bool
	// Trajectory records the informed count after every slot.
	Trajectory bool
	// CollectMetrics requests medium statistics (busy channels, collision
	// and delivery rates) in the result.
	CollectMetrics bool
	EngineOptions
}

// BroadcastResult reports a Broadcast run.
type BroadcastResult struct {
	// Slots executed.
	Slots int
	// AllInformed reports whether every node holds the message.
	AllInformed bool
	// Parents is the implicit distribution tree: Parents[v] is the node
	// that informed v (None for the source and uninformed nodes).
	Parents []NodeID
	// InformedSlots[v] is when v was informed (-1 for source/uninformed).
	InformedSlots []int
	// Trajectory (if requested) is the informed count after each slot.
	Trajectory []int
	// TreeHeight is the distribution tree's height (0 if no tree).
	TreeHeight int
	// Metrics carries medium statistics when requested via CollectMetrics.
	Metrics *MediumMetrics
	// Adversary is the budget ledger when the network was built by
	// NewReactiveJammedNetwork with an active adversary; nil otherwise.
	Adversary *AdversaryReport
}

// MediumMetrics summarizes how a run used the radio medium.
type MediumMetrics struct {
	// Slots is the number of slots the statistics cover.
	Slots int
	// BusyChannelsPerSlot is the mean number of channels carrying traffic.
	BusyChannelsPerSlot float64
	// BroadcastsPerSlot is the mean number of transmissions per slot.
	BroadcastsPerSlot float64
	// CollisionRate is the fraction of busy channels with 2+ broadcasters.
	CollisionRate float64
	// DeliveryRate is the fraction of listens that received a message.
	DeliveryRate float64
}

// Broadcast runs COGCAST over the network.
func (nw *Network) Broadcast(opts BroadcastOptions) (*BroadcastResult, error) {
	cfg := cogcast.RunConfig{
		MaxSlots:         opts.MaxSlots,
		Trajectory:       opts.Trajectory,
		UntilAllInformed: opts.RunToCompletion,
		Check:            opts.Check,
		Shards:           opts.Shards,
		Sparse:           opts.Sparse,
		Context:          opts.Context,
	}
	var collector *metrics.Collector
	if opts.CollectMetrics {
		collector = &metrics.Collector{}
		cfg.Observer = collector
	}
	if nw.adv != nil {
		// The reactive adversary closes its loop through the observer
		// hook; re-arm its budget and plan for this run.
		nw.adv.Reset()
		cfg.Observer = sim.Tee(cfg.Observer, nw.adv)
	}
	var res *cogcast.Result
	err := nw.run(opts.EngineOptions, "cogcast", opts.Seed, func(tr trace.Sink) (err error) {
		cfg.Trace = tr
		res, err = cogcast.Run(nw.asn, sim.NodeID(opts.Source), opts.Payload, opts.Seed, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &BroadcastResult{
		Slots:         res.Slots,
		AllInformed:   res.AllInformed,
		Parents:       make([]NodeID, len(res.Parents)),
		InformedSlots: res.InformedSlots,
		Trajectory:    res.Trajectory,
	}
	for i, p := range res.Parents {
		out.Parents[i] = NodeID(p)
	}
	out.TreeHeight = treeHeight(sim.NodeID(opts.Source), res.Parents)
	if collector != nil {
		m := collector.Snapshot()
		out.Metrics = &MediumMetrics{
			Slots:               m.Slots,
			BusyChannelsPerSlot: m.BusyChannelsPerSlot,
			BroadcastsPerSlot:   m.BroadcastsPerSlot,
			CollisionRate:       m.CollisionRate,
			DeliveryRate:        m.DeliveryRate,
		}
	}
	if nw.adv != nil {
		out.Adversary = advReport(nw.adv)
	}
	return out, nil
}

// treeHeight is the depth of the deepest node in the distribution tree
// that parents describes (Section 5): a node's parent is the node that
// first informed it, and a node without one, other than the source, was
// never informed and adds nothing. COGCAST's parents are acyclic (the
// oracle checks the tree under Check), so each walk up a chain ends at the
// source or at an uninformed node, and every depth is found once.
func treeHeight(source sim.NodeID, parents []sim.NodeID) int {
	depth := make([]int, len(parents)) // depth+1 once known, -1 uninformed, 0 unknown
	depth[source] = 1
	height := 0
	var chain []sim.NodeID
	for v := range parents {
		chain = chain[:0]
		u := sim.NodeID(v)
		for depth[u] == 0 && parents[u] != sim.None {
			chain = append(chain, u)
			u = parents[u]
		}
		d := depth[u]
		for i := len(chain) - 1; i >= 0; i-- {
			if d > 0 {
				d++
			} else {
				d = -1
			}
			depth[chain[i]] = d
		}
		height = max(height, d-1)
	}
	return height
}

// run opens and closes one run of the named protocol: body runs it,
// writing to tr. With eo.Trace set, tr is a JSONL sink whose header
// describes the network, and the jamming assignment and reactive adversary
// write into it for the run's length; otherwise tr is nil. An interrupt
// becomes an *InterruptedError, and a finished trace's write error is
// returned.
func (nw *Network) run(eo EngineOptions, protocol string, seed int64, body func(tr trace.Sink) error) error {
	if eo.Trace == nil {
		return finishInterrupted(nil, body(nil))
	}
	sink := trace.NewJSONL(eo.Trace)
	sink.SetMeta(trace.Meta{
		Protocol:   protocol,
		Nodes:      nw.Nodes(),
		PerNode:    nw.ChannelsPerNode(),
		MinOverlap: nw.MinOverlap(),
		Channels:   nw.TotalChannels(),
		Seed:       seed,
		Collisions: sim.UniformWinner.String(),
	})
	nw.attachTrace(sink)
	defer nw.attachTrace(nil)
	if err := body(sink); err != nil {
		return finishInterrupted(sink, err)
	}
	sink.Finish()
	return sink.Err()
}

// attachTrace points the jamming assignment's injection events and the
// reactive adversary's events at tr; nil detaches them.
func (nw *Network) attachTrace(tr trace.Sink) {
	if ja, ok := nw.asn.(*jamming.Assignment); ok {
		ja.SetTrace(tr)
	}
	if nw.adv != nil {
		nw.adv.SetTrace(tr)
	}
}

// AggregateOptions configures an Aggregate run.
type AggregateOptions struct {
	// Source is the node that ends up holding the aggregate (default 0).
	Source NodeID
	// Func selects the aggregate: "sum" (default), "count", "min", "max",
	// "stats", or "collect".
	Func string
	// Seed determines all protocol randomness.
	Seed int64
	// Kappa scales phase one's length (0 = library default).
	Kappa float64
	// Recover runs the aggregation under the crash-restart recovery
	// supervisor: the four COGCOMP phases become checkpointed epochs that
	// are re-executed (with exponential backoff, up to MaxRetries times)
	// when crashed nodes leave them incomplete, mediators are re-elected
	// when they die, and when the retry budget runs out the run degrades
	// to an explicit partial aggregate instead of stalling or silently
	// corrupting. Fault-free recovered runs are byte-identical to the
	// classic runner. See DESIGN.md §7.
	Recover bool
	// OutageRate, with Recover set, injects random crash-restart outages:
	// each unprotected node independently goes down with this per-slot
	// probability (the source is protected). Zero injects no faults.
	OutageRate float64
	// OutageDuration is the length in slots of each injected outage
	// (default 10).
	OutageDuration int
	// MaxRetries bounds per-epoch re-executions before the run degrades
	// (0 = library default).
	MaxRetries int
	// Faults, with Recover set, injects additional timed fault elements on
	// top of OutageRate's whole-run churn: each FaultSpec contributes one
	// deterministic crash-restart schedule and a node is down whenever any
	// element says so. This is the programmatic form of the scenario DSL's
	// event schedule (see SCENARIOS.md).
	Faults []FaultSpec
	// Adversary, with Recover set, pits the supervised run against a
	// reactive crash adversary (package adversary): the named strategy
	// observes every slot's channel outcomes and decides which nodes to
	// hold down next slot, bounded by AdversaryEnergy. Strategies with a
	// crash interpretation: "none", "hunter", "crasher", "oblivious".
	// The source is protected. Empty means no adversary.
	Adversary string
	// AdversaryEnergy is the adversary's total energy reserve (one unit
	// per node-slot held down). Zero disables the adversary entirely —
	// the run is byte-for-byte the control.
	AdversaryEnergy int
	// AdversaryPerSlot caps nodes held down per slot (0 = the
	// DefaultAdversaryPerSlot default).
	AdversaryPerSlot int
	EngineOptions
}

// FaultSpec declares one timed fault-injection element of a recovered run.
// Kind selects the fault process:
//
//   - "random": every unprotected node independently starts a
//     Duration-slot outage with per-slot probability Rate (the source is
//     protected).
//   - "correlated": blocks of Group consecutive node ids fail together
//     with per-slot probability Rate for Duration slots.
//   - "blackout": the listed Nodes are down for the whole window — the
//     deterministic worst case.
//
// From and Until clip the element to slots [From, Until); Until 0 leaves
// it open-ended ("blackout" requires an explicit Until).
type FaultSpec struct {
	Kind        string
	From, Until int
	Rate        float64
	Duration    int
	Group       int
	Nodes       []NodeID
}

// schedule builds the internal fault schedule for one spec.
func (f FaultSpec) schedule(seed int64, source NodeID) (faults.Schedule, error) {
	duration := f.Duration
	if duration == 0 {
		duration = 10
	}
	var (
		s   faults.Schedule
		err error
	)
	switch f.Kind {
	case "random":
		s, err = faults.NewRandomOutages(f.Rate, duration, seed, sim.NodeID(source))
	case "correlated":
		group := f.Group
		if group == 0 {
			group = 8
		}
		s, err = faults.NewCorrelatedOutages(f.Rate, duration, group, seed, sim.NodeID(source))
	case "blackout":
		if f.Until <= f.From {
			return nil, fmt.Errorf("crn: blackout fault needs a window with Until > From, got [%d, %d)", f.From, f.Until)
		}
		for _, id := range f.Nodes {
			if id == source {
				return nil, fmt.Errorf("crn: blackout fault must not include the source node %d", source)
			}
		}
		nodes := make([]sim.NodeID, len(f.Nodes))
		for i, id := range f.Nodes {
			nodes[i] = sim.NodeID(id)
		}
		return faults.NewBlackout(f.From, f.Until, nodes...)
	default:
		return nil, fmt.Errorf("crn: unknown fault kind %q (want random, correlated or blackout)", f.Kind)
	}
	if err != nil {
		return nil, err
	}
	if f.From > 0 || f.Until > 0 {
		return faults.NewClipped(s, f.From, f.Until)
	}
	return s, nil
}

// AggregateResult reports an Aggregate run.
type AggregateResult struct {
	// Value is the aggregate at the source: int64 for sum/count/min/max,
	// Stats for "stats", []Reading for "collect".
	Value any
	// Slots executed in total, and the per-phase breakdown.
	Slots                                              int
	Phase1Slots, Phase2Slots, Phase3Slots, Phase4Slots int
	// Parents is the distribution tree used.
	Parents []NodeID
	// MaxMessageSize is the largest value message sent, in abstract words.
	MaxMessageSize int
	// Degraded (recovered runs only) reports that the retry budget ran out
	// and Value aggregates only Contributors' inputs — an explicit partial
	// census, never a silent wrong answer.
	Degraded bool
	// Stalled (recovered runs only) reports that phase four stopped making
	// progress entirely; Value is unreliable and Contributors is nil.
	Stalled bool
	// Contributors (recovered runs only) lists the nodes whose inputs are
	// aggregated in Value, ascending.
	Contributors []NodeID
	// Retries, Reelections and Restarts (recovered runs only) count epoch
	// re-executions, mediator re-elections, and node crash-restart cycles.
	Retries, Reelections, Restarts int
	// Adversary is the budget ledger when the run faced an active
	// reactive adversary (AggregateOptions.Adversary); nil otherwise.
	Adversary *AdversaryReport
}

// Stats is the value of the "stats" aggregate.
type Stats struct {
	Count, Sum, Min, Max int64
	Mean                 float64
}

// Reading is one entry of the "collect" aggregate.
type Reading struct {
	Node  NodeID
	Value int64
}

// ErrIncomplete is returned by Aggregate when some nodes were never
// informed during phase one (the w.h.p. event failed), so the aggregate is
// missing inputs. Re-run with a larger Kappa.
var ErrIncomplete = cogcomp.ErrIncomplete

// Sentinels for interrupted runs: errors.Is(err, ErrCanceled) matches a run
// stopped by canceling its Context, errors.Is(err, ErrDeadlineExceeded) one
// stopped by the Context's deadline. The concrete error is always an
// *InterruptedError carrying the partial progress.
var (
	ErrCanceled         = errors.New("crn: run canceled")
	ErrDeadlineExceeded = errors.New("crn: deadline exceeded")
)

// InterruptedError reports a run stopped by its Context at a slot
// boundary. The slots already executed are real, fully simulated
// slots; only the remainder of the run is missing.
type InterruptedError struct {
	// Slots is the count of fully executed slots before the interrupt.
	Slots int
	// Deadline reports whether a deadline (rather than a plain
	// cancellation) stopped the run.
	Deadline bool
	// sentinel is ErrCanceled or ErrDeadlineExceeded; cause the wrapped
	// engine error (which itself wraps context.Canceled or
	// context.DeadlineExceeded).
	sentinel, cause error
}

// Error reports the engine's deterministic interrupt message.
func (e *InterruptedError) Error() string { return e.cause.Error() }

// Unwrap exposes both the crn sentinel and the underlying engine error, so
// errors.Is works with ErrCanceled/ErrDeadlineExceeded as well as
// context.Canceled/context.DeadlineExceeded.
func (e *InterruptedError) Unwrap() []error { return []error{e.sentinel, e.cause} }

// finishInterrupted converts an engine interrupt into the public typed
// error. When a trace sink is attached it records the interrupt as a
// "cancel" event and writes the end-of-stream marker, so a gracefully
// interrupted trace file stays parseable and self-declares completeness.
// Non-interrupt errors pass through untouched.
func finishInterrupted(sink *trace.JSONL, err error) error {
	var it *sim.Interrupted
	if !errors.As(err, &it) {
		return err
	}
	deadline := errors.Is(it.Cause, context.DeadlineExceeded)
	if sink != nil {
		sink.Emit(trace.CancelEvent(it.Slots, deadline))
		sink.Finish()
	}
	sentinel := ErrCanceled
	if deadline {
		sentinel = ErrDeadlineExceeded
	}
	return &InterruptedError{Slots: it.Slots, Deadline: deadline, sentinel: sentinel, cause: err}
}

// Aggregate runs COGCOMP over the network: inputs[v] is node v's datum, and
// the returned value is the aggregate of all inputs at the source. The
// network must be static (phases two to four revisit phase-one channels).
func (nw *Network) Aggregate(inputs []int64, opts AggregateOptions) (*AggregateResult, error) {
	if nw.Dynamic() {
		return nil, errors.New("crn: Aggregate requires a static network (COGCOMP revisits phase-one channels)")
	}
	f, err := aggfunc.ByName(opts.Func)
	if err != nil {
		return nil, err
	}
	if opts.Adversary != "" && !opts.Recover {
		return nil, errors.New("crn: Adversary needs Recover (the classic runner has no fault injection)")
	}
	var (
		res *cogcomp.Result
		rec *recov.Result
		drv *adversary.Driver
	)
	err = nw.run(opts.EngineOptions, "cogcomp", opts.Seed, func(tr trace.Sink) (err error) {
		cfg := cogcomp.Config{
			Kappa:    opts.Kappa,
			MaxSlots: opts.MaxSlots,
			Func:     f,
			Trace:    tr,
			Check:    opts.Check,
			Shards:   opts.Shards,
			Sparse:   opts.Sparse,
			Context:  opts.Context,
		}
		if !opts.Recover {
			res, err = cogcomp.Run(nw.asn, sim.NodeID(opts.Source), inputs, opts.Seed, cfg)
			return err
		}
		rec, drv, err = nw.aggregateRecovered(inputs, opts, cfg)
		if rec != nil {
			res = &rec.Result
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &AggregateResult{
		Value:          exportValue(res.Value),
		Slots:          res.TotalSlots,
		Phase1Slots:    res.Phase1Slots,
		Phase2Slots:    res.Phase2Slots,
		Phase3Slots:    res.Phase3Slots,
		Phase4Slots:    res.Phase4Slots,
		Parents:        make([]NodeID, len(res.Parents)),
		MaxMessageSize: res.MaxMessageSize,
	}
	for i, p := range res.Parents {
		out.Parents[i] = NodeID(p)
	}
	if rec != nil {
		out.Degraded, out.Stalled = rec.Degraded, rec.Stalled
		out.Retries, out.Reelections, out.Restarts = rec.Retries, rec.Reelections, rec.Restarts
		if rec.Contributors != nil {
			out.Contributors = make([]NodeID, len(rec.Contributors))
			for i, id := range rec.Contributors {
				out.Contributors[i] = NodeID(id)
			}
		}
	}
	if drv != nil {
		out.Adversary = advReport(drv)
	}
	return out, nil
}

// aggregateRecovered runs the recovery supervisor for Aggregate over the
// COGCOMP settings ccfg, with optional injected outages and a crash
// adversary. It returns the adversary's driver when one was built, so its
// ledger can be reported.
func (nw *Network) aggregateRecovered(inputs []int64, opts AggregateOptions, ccfg cogcomp.Config) (*recov.Result, *adversary.Driver, error) {
	cfg := recov.Config{Config: ccfg, MaxRetries: opts.MaxRetries}
	var parts []faults.Schedule
	if opts.OutageRate > 0 {
		duration := opts.OutageDuration
		if duration == 0 {
			duration = 10
		}
		schedule, err := faults.NewRandomOutages(opts.OutageRate, duration, opts.Seed, sim.NodeID(opts.Source))
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, schedule)
	}
	for _, f := range opts.Faults {
		s, err := f.schedule(opts.Seed, opts.Source)
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, s)
	}
	var drv *adversary.Driver
	if opts.Adversary != "" {
		strat, err := adversary.New(opts.Adversary)
		if err != nil {
			return nil, nil, fmt.Errorf("crn: %w", err)
		}
		if opts.Adversary != "none" && !adversary.CanCrash(opts.Adversary) {
			return nil, nil, fmt.Errorf("crn: adversary %q cannot crash nodes; recovered runs take none, hunter, crasher or oblivious", opts.Adversary)
		}
		perSlot := opts.AdversaryPerSlot
		if perSlot == 0 && opts.AdversaryEnergy > 0 {
			perSlot = DefaultAdversaryPerSlot
		}
		budget := adversary.Budget{PerSlot: perSlot, Total: opts.AdversaryEnergy}
		drv, err = adversary.NewDriver(strat, nw.Nodes(), nw.TotalChannels(), budget, opts.Seed)
		if err != nil {
			return nil, nil, fmt.Errorf("crn: %w", err)
		}
		drv.EnableCrash(sim.NodeID(opts.Source))
		if drv.Active() {
			// An inert adversary (zero energy or the no-op control) is
			// not wired at all, keeping the run byte-for-byte the
			// control; an active one joins the fault schedule and closes
			// its loop through the observer hook.
			parts = append(parts, drv)
			cfg.Observer = drv
			drv.SetTrace(cfg.Trace)
		}
	}
	if len(parts) > 0 {
		schedule, err := faults.Compose(parts...)
		if err != nil {
			return nil, nil, err
		}
		cfg.Schedule = schedule
	}
	res, err := recov.Run(nw.asn, sim.NodeID(opts.Source), inputs, opts.Seed, cfg)
	return res, drv, err
}

// exportValue converts internal aggregate values to public types.
func exportValue(v aggfunc.Value) any {
	switch x := v.(type) {
	case aggfunc.StatsValue:
		return Stats{Count: x.Count, Sum: x.Sum, Min: x.Min, Max: x.Max, Mean: x.Mean()}
	case []aggfunc.Entry:
		out := make([]Reading, len(x))
		for i, e := range x {
			out[i] = Reading{Node: NodeID(e.ID), Value: e.Input}
		}
		return out
	default:
		return v
	}
}

// SessionResult reports a multi-round aggregation session.
type SessionResult struct {
	// Values[r] is the aggregate for round r (same typing as
	// AggregateResult.Value).
	Values []any
	// Slots is the whole session's cost; SetupSlots the one-time phases
	// 1-3; RoundSlots the fixed per-round window.
	Slots, SetupSlots, RoundSlots int
}

// AggregateRounds runs a multi-round aggregation session: the distribution
// tree and coordination structures are built once, then each round of
// inputs (rounds[r][v] = node v's datum in round r) is converged over the
// same tree. This amortizes the Θ((c/k)·lg n + n) setup across the paper's
// periodic-snapshot use case. The network must be static. Sessions size
// their own slot window from the round count, so setting MaxSlots is an
// error; they also run untraced and unsupervised, so setting Trace,
// Recover, OutageRate, Faults or Adversary is one too.
func (nw *Network) AggregateRounds(rounds [][]int64, opts AggregateOptions) (*SessionResult, error) {
	if nw.Dynamic() {
		return nil, errors.New("crn: AggregateRounds requires a static network")
	}
	if opts.MaxSlots != 0 {
		return nil, errors.New("crn: AggregateRounds does not support MaxSlots (sessions have no slot budget)")
	}
	for _, o := range []struct {
		name string
		set  bool
	}{
		{"Trace", opts.Trace != nil},
		{"Recover", opts.Recover},
		{"OutageRate", opts.OutageRate != 0},
		{"Faults", len(opts.Faults) > 0},
		{"Adversary", opts.Adversary != ""},
	} {
		if o.set {
			return nil, fmt.Errorf("crn: AggregateRounds does not support %s (sessions run untraced and unsupervised)", o.name)
		}
	}
	f, err := aggfunc.ByName(opts.Func)
	if err != nil {
		return nil, err
	}
	res, err := cogcomp.RunRounds(nw.asn, sim.NodeID(opts.Source), rounds, opts.Seed, cogcomp.SessionConfig{
		Kappa:   opts.Kappa,
		Func:    f,
		Shards:  opts.Shards,
		Sparse:  opts.Sparse,
		Check:   opts.Check,
		Context: opts.Context,
	})
	if err != nil {
		return nil, finishInterrupted(nil, err)
	}
	out := &SessionResult{
		Values:     make([]any, len(res.Values)),
		Slots:      res.TotalSlots,
		SetupSlots: res.SetupSlots,
		RoundSlots: res.RoundSlots,
	}
	for i, v := range res.Values {
		out.Values[i] = exportValue(v)
	}
	return out, nil
}

// RendezvousBroadcast runs the paper's baseline broadcast (no relaying)
// until completion or maxSlots, returning the slot count and whether it
// completed.
func (nw *Network) RendezvousBroadcast(source NodeID, payload any, seed int64, maxSlots int) (int, bool, error) {
	res, err := baseline.RendezvousBroadcast(nw.asn, sim.NodeID(source), payload, seed, maxSlots)
	if err != nil {
		return 0, false, err
	}
	return res.Slots, res.AllInformed, nil
}

// RendezvousAggregate runs the baseline aggregation (every node shouts its
// datum at a hopping source) until the source heard everyone or maxSlots.
func (nw *Network) RendezvousAggregate(source NodeID, inputs []int64, seed int64, maxSlots int) (int, bool, error) {
	res, err := baseline.RendezvousAggregation(nw.asn, sim.NodeID(source), inputs, seed, maxSlots)
	if err != nil {
		return 0, false, err
	}
	return res.Slots, res.Complete, nil
}

// HoppingTogether runs the global-label lockstep-scan broadcast (Section 6
// discussion). The network must use GlobalLabels and be static.
func (nw *Network) HoppingTogether(source NodeID, payload any, seed int64, maxSlots int) (int, bool, error) {
	if nw.Dynamic() {
		return 0, false, errors.New("crn: HoppingTogether requires a static network")
	}
	res, err := baseline.HoppingTogether(nw.asn, sim.NodeID(source), payload, seed, maxSlots)
	if err != nil {
		return 0, false, err
	}
	return res.Slots, res.AllInformed, nil
}

package scenario

// Execution. Execute is the single run path behind cmd/cogsim: the flag
// parser builds a Scenario and calls it, file mode loads one and calls
// it, so the two are byte-identical by construction. The output format
// and the guard errors below are therefore cogsim's — changing a string
// here changes the CLI.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	crn "github.com/cogradio/crn"
	"github.com/cogradio/crn/internal/exper"
	"github.com/cogradio/crn/internal/metrics"
	"github.com/cogradio/crn/internal/parallel"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/stats"
)

// Outcome is what a run exposes to the assertion checker.
type Outcome struct {
	// Slots is the single run's slot count (repeated runs use RepSlots).
	Slots int
	// AllInformed reports dissemination completeness (cogcast, gossip,
	// rendezvous, rendezvous-agg, hop).
	AllInformed bool
	// Value is the aggregate (cogcomp).
	Value any
	// Degraded, Stalled, Contributors, Retries, Reelections and Restarts
	// report the recovery supervisor (recovered cogcomp runs).
	Degraded, Stalled              bool
	Contributors                   int
	Retries, Reelections, Restarts int
	// Nodes is the network size (census assertions).
	Nodes int
	// RepSlots holds per-repetition slot counts when Engine.Repeat > 1.
	RepSlots []float64
}

// Run executes the scenario and then evaluates its assertions, printing
// one line per assertion. It returns an error if the run itself fails or
// any assertion does.
func (sc *Scenario) Run(out io.Writer) error {
	return sc.RunContext(context.Background(), out)
}

// RunContext is Run with an interrupt context: a canceled ctx stops the
// run at the next slot boundary and the error carries the partial
// progress. Assertions are only evaluated when the run completes.
func (sc *Scenario) RunContext(ctx context.Context, out io.Writer) error {
	oc, err := sc.ExecuteContext(ctx, out)
	if err != nil {
		return err
	}
	return sc.Assert(out, oc)
}

// Execute runs the scenario, writing the protocol report to out, and
// returns the Outcome for assertion checking. The scenario must be
// normalized (Load does this); Execute performs only the guard checks the
// cogsim flag path relies on, not full validation.
func (sc *Scenario) Execute(out io.Writer) (*Outcome, error) {
	return sc.ExecuteContext(context.Background(), out)
}

// ExecuteContext is Execute under an interrupt context. The Limits
// section layers on top of ctx: a limits.deadline wraps it with a
// timeout, limits.max_slots caps every runner's slot budget (sessions,
// which have none, reject it). Context checks happen at slot boundaries
// only and consume no randomness, so a run that completes is
// byte-identical to the same run without a context.
func (sc *Scenario) ExecuteContext(ctx context.Context, out io.Writer) (*Outcome, error) {
	ctx, cancel, err := sc.limitContext(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if sc.Protocol.Name == "experiment" {
		return sc.executeExperiment(ctx, out)
	}
	net, err := sc.buildNetwork(sc.Seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "network: n=%d c=%d k=%d C=%d dynamic=%v\n",
		net.Nodes(), net.ChannelsPerNode(), net.MinOverlap(), net.TotalChannels(), net.Dynamic())
	fmt.Fprintf(out, "theory:  COGCAST slot bound = %d\n", net.SlotBound(0))

	auto := 64 * net.SlotBound(0)
	budget := sc.slotBudget(auto)
	if sc.Engine.Repeat > 1 {
		if sc.Engine.Trace != "" {
			return nil, fmt.Errorf("-trace records a single run; drop -repeat")
		}
		return sc.runRepeated(ctx, out, budget)
	}

	// Trace: open the file up front so a bad path fails before the run,
	// and buffer it — JSONL emits one small write per event.
	var traceFile *os.File
	var traceW *bufio.Writer
	if sc.Engine.Trace != "" {
		if sc.Protocol.Name != "cogcast" && sc.Protocol.Name != "cogcomp" {
			return nil, fmt.Errorf("-trace supports cogcast and cogcomp, not %q", sc.Protocol.Name)
		}
		traceFile, err = os.Create(sc.Engine.Trace)
		if err != nil {
			return nil, err
		}
		traceW = bufio.NewWriter(traceFile)
	}
	closeTrace := func() error {
		if traceFile == nil {
			return nil
		}
		ferr := traceW.Flush()
		if cerr := traceFile.Close(); ferr == nil {
			ferr = cerr
		}
		traceFile = nil
		return ferr
	}
	defer closeTrace()

	if sc.Engine.Check && sc.Protocol.Name != "cogcast" && sc.Protocol.Name != "cogcomp" && sc.Protocol.Name != "session" {
		return nil, fmt.Errorf("-check supports cogcast, cogcomp and session, not %q", sc.Protocol.Name)
	}
	if (sc.Recovery.Enabled || sc.Recovery.OutageRate > 0) && sc.Protocol.Name != "cogcomp" {
		return nil, fmt.Errorf("-recover/-outage support cogcomp, not %q", sc.Protocol.Name)
	}
	if sc.Recovery.OutageRate > 0 && !sc.Recovery.Enabled {
		return nil, fmt.Errorf("-outage needs -recover (the classic runner has no fault injection)")
	}
	if sc.Adversary.Strategy != "" {
		switch sc.Protocol.Name {
		case "cogcast", "cogcomp":
		default:
			return nil, fmt.Errorf("-adversary supports cogcast and cogcomp, not %q", sc.Protocol.Name)
		}
		if sc.Protocol.Name == "cogcomp" && !sc.Recovery.Enabled {
			return nil, fmt.Errorf("-adversary on cogcomp needs -recover (the classic runner has no fault injection)")
		}
	}

	oc := &Outcome{Nodes: net.Nodes()}
	switch sc.Protocol.Name {
	case "cogcast":
		opts := sc.broadcastOptions(ctx, sc.Seed, budget)
		opts.Trajectory = sc.Protocol.Curve
		if traceW != nil {
			opts.Trace = traceW
			opts.CollectMetrics = true
		}
		res, err := net.Broadcast(opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "cogcast: %d slots, all informed: %v, tree height %d\n",
			res.Slots, res.AllInformed, res.TreeHeight)
		if res.Adversary != nil {
			fmt.Fprintf(out, "adversary: %s\n", adversaryLine(res.Adversary))
		}
		if sc.Protocol.Curve {
			fmt.Fprintf(out, "epidemic: %s\n", sparkline(res.Trajectory, net.Nodes()))
		}
		if traceW != nil {
			if err := closeTrace(); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "medium: %s\n", mediumLine(res.Metrics))
			fmt.Fprintf(out, "trace: wrote %s\n", sc.Engine.Trace)
		}
		oc.Slots, oc.AllInformed = res.Slots, res.AllInformed
	case "cogcomp":
		inputs := make([]int64, net.Nodes())
		for i := range inputs {
			inputs[i] = int64(i)
		}
		opts := sc.aggregateOptions(ctx, sc.Seed)
		if traceW != nil {
			opts.Trace = traceW
		}
		res, err := net.Aggregate(inputs, opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "cogcomp: %d slots (phases %d/%d/%d/%d), %s = %v, max message %d words\n",
			res.Slots, res.Phase1Slots, res.Phase2Slots, res.Phase3Slots, res.Phase4Slots,
			sc.Protocol.Aggregate, res.Value, res.MaxMessageSize)
		if sc.Recovery.Enabled {
			fmt.Fprintf(out, "recovery: contributors %d/%d, retries %d, re-elections %d, restarts %d, degraded %v, stalled %v\n",
				len(res.Contributors), net.Nodes(), res.Retries, res.Reelections, res.Restarts,
				res.Degraded, res.Stalled)
		}
		if res.Adversary != nil {
			fmt.Fprintf(out, "adversary: %s\n", adversaryLine(res.Adversary))
		}
		if traceW != nil {
			if err := closeTrace(); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "trace: wrote %s\n", sc.Engine.Trace)
		}
		oc.Slots, oc.Value = res.Slots, res.Value
		oc.Degraded, oc.Stalled = res.Degraded, res.Stalled
		oc.Contributors = len(res.Contributors)
		oc.Retries, oc.Reelections, oc.Restarts = res.Retries, res.Reelections, res.Restarts
	case "session":
		roundInputs := make([][]int64, sc.Protocol.Rounds)
		for r := range roundInputs {
			roundInputs[r] = make([]int64, net.Nodes())
			for i := range roundInputs[r] {
				roundInputs[r][i] = int64(r*1000 + i)
			}
		}
		res, err := net.AggregateRounds(roundInputs, sc.aggregateOptions(ctx, sc.Seed))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "session: %d rounds in %d slots (setup %d + %d/round window)\n",
			sc.Protocol.Rounds, res.Slots, res.SetupSlots, res.RoundSlots)
		for r, v := range res.Values {
			fmt.Fprintf(out, "  round %d: %s = %v\n", r+1, sc.Protocol.Aggregate, v)
		}
		oc.Slots = res.Slots
	case "gossip":
		sources := make([]crn.NodeID, sc.Protocol.Rumors)
		for i := range sources {
			sources[i] = crn.NodeID((i * net.Nodes()) / sc.Protocol.Rumors)
		}
		res, err := net.Gossip(sources, sc.Seed, sc.slotBudget(auto*(1+sc.Protocol.Rumors)))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "gossip: %d rumors to all %d nodes in %d slots, complete: %v\n",
			sc.Protocol.Rumors, net.Nodes(), res.Slots, res.Complete)
		oc.Slots, oc.AllInformed = res.Slots, res.Complete
	case "rendezvous":
		slots, done, err := net.RendezvousBroadcast(crn.NodeID(sc.Protocol.Source), sc.Protocol.Payload, sc.Seed, sc.slotBudget(128*auto))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "rendezvous broadcast: %d slots, complete: %v\n", slots, done)
		oc.Slots, oc.AllInformed = slots, done
	case "rendezvous-agg":
		inputs := make([]int64, net.Nodes())
		slots, done, err := net.RendezvousAggregate(crn.NodeID(sc.Protocol.Source), inputs, sc.Seed, sc.slotBudget(1024*auto))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "rendezvous aggregation: %d slots, complete: %v\n", slots, done)
		oc.Slots, oc.AllInformed = slots, done
	case "hop":
		slots, done, err := net.HoppingTogether(crn.NodeID(sc.Protocol.Source), sc.Protocol.Payload, sc.Seed, sc.slotBudget(64*net.TotalChannels()))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "hopping-together: %d slots, complete: %v (one spectrum pass = %d)\n",
			slots, done, net.TotalChannels())
		oc.Slots, oc.AllInformed = slots, done
	default:
		return nil, fmt.Errorf("unknown protocol %q", sc.Protocol.Name)
	}
	return oc, nil
}

// engineOptions builds the engine settings every cogcast, cogcomp and
// session run shares from the scenario, with maxSlots as the slot bound.
func (sc *Scenario) engineOptions(ctx context.Context, maxSlots int) crn.EngineOptions {
	return crn.EngineOptions{
		MaxSlots: maxSlots, Check: sc.Engine.Check,
		Shards: sc.Engine.Shards, Sparse: sc.Engine.Sparse, Context: ctx,
	}
}

// broadcastOptions builds a cogcast run's options from the scenario, for
// the single run and every -repeat repetition alike.
func (sc *Scenario) broadcastOptions(ctx context.Context, seed int64, budget int) crn.BroadcastOptions {
	return crn.BroadcastOptions{
		Source: crn.NodeID(sc.Protocol.Source), Payload: sc.Protocol.Payload, Seed: seed,
		RunToCompletion: true, EngineOptions: sc.engineOptions(ctx, budget),
	}
}

// aggregateOptions builds a cogcomp or session run's options from the
// scenario, for the single run and every -repeat repetition alike.
// Sessions reject a slot budget and ignore recovery and adversary
// settings, which Validate admits only for cogcomp; fault events never
// meet -repeat.
func (sc *Scenario) aggregateOptions(ctx context.Context, seed int64) crn.AggregateOptions {
	opts := crn.AggregateOptions{
		Source: crn.NodeID(sc.Protocol.Source), Func: sc.Protocol.Aggregate, Seed: seed,
		Recover: sc.Recovery.Enabled, OutageRate: sc.Recovery.OutageRate,
		EngineOptions: sc.engineOptions(ctx, sc.slotBudget(0)),
	}
	if sc.Recovery.Enabled {
		opts.OutageDuration = sc.Recovery.OutageDuration
		opts.MaxRetries = sc.Recovery.MaxRetries
		opts.Faults = sc.faultSpecs()
	}
	if sc.Adversary.Strategy != "" {
		opts.Adversary = sc.Adversary.Strategy
		opts.AdversaryEnergy = sc.Adversary.Energy
		opts.AdversaryPerSlot = sc.Adversary.PerSlot
	}
	return opts
}

// runRepeated executes Engine.Repeat independent seeded repetitions of
// cogcast or cogcomp across a bounded worker pool, prints one line per
// repetition (index, derived seed, slots) and a slot-count summary. Every
// repetition rebuilds its network from a seed derived from the repetition
// index, so the output is byte-identical at any Engine.Parallel value
// (dynamic and jammed assignments are stateful and must not be shared).
func (sc *Scenario) runRepeated(ctx context.Context, out io.Writer, budget int) (*Outcome, error) {
	var fn func(trialSeed int64, net *crn.Network) (float64, error)
	switch sc.Protocol.Name {
	case "cogcast":
		fn = func(trialSeed int64, net *crn.Network) (float64, error) {
			res, err := net.Broadcast(sc.broadcastOptions(ctx, trialSeed, budget))
			if err != nil {
				return 0, err
			}
			if !res.AllInformed {
				return 0, fmt.Errorf("cogcast incomplete within %d slots", budget)
			}
			return float64(res.Slots), nil
		}
	case "cogcomp":
		fn = func(trialSeed int64, net *crn.Network) (float64, error) {
			inputs := make([]int64, net.Nodes())
			for i := range inputs {
				inputs[i] = int64(i)
			}
			res, err := net.Aggregate(inputs, sc.aggregateOptions(ctx, trialSeed))
			if err != nil {
				return 0, err
			}
			return float64(res.Slots), nil
		}
	default:
		return nil, fmt.Errorf("-repeat supports cogcast and cogcomp, not %q", sc.Protocol.Name)
	}
	slots, err := parallel.Map(ctx, sc.Engine.Repeat, sc.Engine.Parallel, func(i int) (float64, error) {
		trialSeed := rng.Derive(sc.Seed, int64(i))
		net, err := sc.buildNetwork(trialSeed)
		if err != nil {
			return 0, fmt.Errorf("rep %d (seed %d): %w", i, trialSeed, err)
		}
		v, err := fn(trialSeed, net)
		if err != nil {
			return 0, fmt.Errorf("rep %d (seed %d): %w", i, trialSeed, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range slots {
		fmt.Fprintf(out, "rep %d seed=%d: %.0f slots\n", i, rng.Derive(sc.Seed, int64(i)), v)
	}
	s, err := stats.Summarize(slots)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s x%d: slots min %.0f / median %.1f / mean %.1f / p99 %.1f / max %.0f\n",
		sc.Protocol.Name, sc.Engine.Repeat, s.Min, s.Median, s.Mean, s.P99, s.Max)
	return &Outcome{Nodes: sc.Topology.Nodes, RepSlots: slots}, nil
}

// executeExperiment runs an experiment-suite scenario: the named
// experiment's tables, rendered exactly as cogbench's text format (minus
// the wall-clock line, which is not reproducible output).
func (sc *Scenario) executeExperiment(ctx context.Context, out io.Writer) (*Outcome, error) {
	e, err := exper.ByID(sc.Experiment.ID)
	if err != nil {
		return nil, err
	}
	cfg := exper.Config{
		Seed: sc.Seed, Trials: sc.Experiment.Trials, Quick: sc.Experiment.Quick,
		Parallel: sc.Engine.Parallel, Check: sc.Engine.Check,
		Recover: sc.Recovery.Enabled, Shards: sc.Engine.Shards, Sparse: sc.Engine.Sparse,
		Context: ctx,
	}
	tables, err := e.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	for _, t := range tables {
		if err := t.Render(out); err != nil {
			return nil, err
		}
	}
	return &Outcome{}, nil
}

// limitContext layers limits.deadline onto the caller's context. The
// returned cancel must be called (it releases the timer); with no
// deadline it is a no-op and the context passes through untouched.
func (sc *Scenario) limitContext(ctx context.Context) (context.Context, context.CancelFunc, error) {
	if sc.Limits.Deadline == "" {
		return ctx, func() {}, nil
	}
	d, err := time.ParseDuration(sc.Limits.Deadline)
	if err != nil || d <= 0 {
		return nil, nil, fmt.Errorf("limits.deadline: bad duration %q (want e.g. \"30s\" or \"2m\")", sc.Limits.Deadline)
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

// slotBudget is the slot budget a runner receives: protocol.max_slots
// when set, else the runner's automatic budget auto, capped by
// limits.max_slots. The smallest nonzero value wins; with auto 0 (the
// library picks the budget) a limit replaces the library's budget.
func (sc *Scenario) slotBudget(auto int) int {
	budget := sc.Protocol.MaxSlots
	if budget == 0 {
		budget = auto
	}
	if m := sc.Limits.MaxSlots; m > 0 && (budget == 0 || m < budget) {
		return m
	}
	return budget
}

// buildNetwork realizes the topology (plus any jam-switch and
// assignment-flip events) for the given seed. Repeated runs call it once
// per repetition with the derived trial seed.
func (sc *Scenario) buildNetwork(seed int64) (*crn.Network, error) {
	t := sc.Topology
	if t.Generator == "jammed" {
		if sc.Adversary.Strategy != "" {
			return crn.NewReactiveJammedNetwork(t.Nodes, t.ChannelsPerNode, sc.Adversary.Strategy,
				crn.AdversaryBudget{PerSlot: sc.Adversary.PerSlot, Total: sc.Adversary.Energy}, seed)
		}
		phases := sc.jamPhases()
		if len(phases) == 1 {
			return crn.NewJammedNetwork(t.Nodes, t.ChannelsPerNode, t.JamBudget, t.JamStrategy, seed)
		}
		return crn.NewJammedNetworkPhases(t.Nodes, t.ChannelsPerNode, phases, seed)
	}
	spec := crn.Spec{
		Nodes:           t.Nodes,
		ChannelsPerNode: t.ChannelsPerNode,
		MinOverlap:      t.MinOverlap,
		TotalChannels:   t.TotalChannels,
		Dynamic:         t.Dynamic,
		Seed:            seed,
		FlipSlots:       sc.flipSlots(),
	}
	if spec.TotalChannels == 0 {
		spec.TotalChannels = 3 * t.ChannelsPerNode
	}
	switch t.Generator {
	case "full":
		spec.Topology = crn.FullOverlap
	case "partitioned":
		spec.Topology = crn.Partitioned
	case "shared-core":
		spec.Topology = crn.SharedCore
	case "random-pool":
		spec.Topology = crn.RandomPool
	case "pairwise":
		spec.Topology = crn.PairwiseDedicated
	default:
		return nil, fmt.Errorf("unknown topology %q", t.Generator)
	}
	switch t.Labels {
	case "local":
		spec.Labels = crn.LocalLabels
	case "global":
		spec.Labels = crn.GlobalLabels
	default:
		return nil, fmt.Errorf("unknown label model %q", t.Labels)
	}
	return crn.NewNetwork(spec)
}

// jamPhases assembles the jammer schedule: the topology's strategy at
// slot 0 plus one phase per jam-switch event, in slot order.
func (sc *Scenario) jamPhases() []crn.JamPhase {
	phases := []crn.JamPhase{{FromSlot: 0, Strategy: sc.Topology.JamStrategy, Budget: sc.Topology.JamBudget}}
	for _, ev := range sc.Events {
		if ev.Kind == EvJamSwitch {
			phases = append(phases, crn.JamPhase{FromSlot: ev.At, Strategy: ev.Strategy, Budget: ev.Budget})
		}
	}
	for i := 1; i < len(phases); i++ {
		for j := i; j > 1 && phases[j].FromSlot < phases[j-1].FromSlot; j-- {
			phases[j], phases[j-1] = phases[j-1], phases[j]
		}
	}
	return phases
}

// faultSpecs maps the fault events onto the public fault-injection API.
func (sc *Scenario) faultSpecs() []crn.FaultSpec {
	var specs []crn.FaultSpec
	for _, ev := range sc.Events {
		var kind string
		switch ev.Kind {
		case EvRandomOutages:
			kind = "random"
		case EvCorrelatedOutages:
			kind = "correlated"
		case EvBlackout:
			kind = "blackout"
		default:
			continue
		}
		spec := crn.FaultSpec{
			Kind: kind, From: ev.At, Until: ev.Until,
			Rate: ev.Rate, Duration: ev.Duration, Group: ev.Group,
		}
		for _, id := range ev.Nodes {
			spec.Nodes = append(spec.Nodes, crn.NodeID(id))
		}
		specs = append(specs, spec)
	}
	return specs
}

// adversaryLine renders a run's adversary budget ledger.
func adversaryLine(a *crn.AdversaryReport) string {
	exhausted := "no"
	if a.ExhaustedAt >= 0 {
		exhausted = fmt.Sprintf("at slot %d", a.ExhaustedAt)
	}
	return fmt.Sprintf("%s spent %d/%d (jam %d, crash %d, per-slot cap %d), exhausted %s",
		a.Strategy, a.Spent, a.Total, a.JamSpent, a.CrashSpent, a.PerSlot, exhausted)
}

// mediumLine renders public MediumMetrics through the internal
// metrics.Metrics formatter, so the live run's line and the one
// -trace-summary replays from a trace are comparable byte for byte.
func mediumLine(m *crn.MediumMetrics) string {
	return metrics.Metrics{
		Slots:               m.Slots,
		BusyChannelsPerSlot: m.BusyChannelsPerSlot,
		CollisionRate:       m.CollisionRate,
		DeliveryRate:        m.DeliveryRate,
		BroadcastsPerSlot:   m.BroadcastsPerSlot,
	}.String()
}

// sparkline renders an informed-count trajectory as a compact bar curve.
func sparkline(traj []int, max int) string {
	if len(traj) == 0 || max == 0 {
		return ""
	}
	const bars = "▁▂▃▄▅▆▇█"
	// Downsample long runs to at most 60 columns.
	step := (len(traj) + 59) / 60
	var b []rune
	for i := 0; i < len(traj); i += step {
		level := traj[i] * (len([]rune(bars)) - 1) / max
		b = append(b, []rune(bars)[level])
	}
	return string(b)
}

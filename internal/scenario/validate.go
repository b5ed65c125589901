package scenario

// Semantic validation: field ranges, cross-section consistency, event
// windows, and assertions against the features the scenario actually
// enables. Validate assumes Normalize has run; `cogsim validate` stops
// here, before anything executes, and Execute runs it on a normalized
// copy first, so flag runs meet the same rules.

import (
	"fmt"
	"sort"
	"time"

	"github.com/cogradio/crn/internal/adversary"
	"github.com/cogradio/crn/internal/exper"
)

var (
	generators = []string{"full", "partitioned", "shared-core", "random-pool", "pairwise", "jammed"}
	protocols  = []string{"cogcast", "cogcomp", "session", "gossip", "rendezvous", "rendezvous-agg", "hop", "experiment"}
	aggregates = []string{"sum", "count", "min", "max", "stats", "collect"}
	jammers    = []string{"none", "random", "sweep", "block", "split"}
)

func oneOf(s string, set []string) bool {
	for _, w := range set {
		if s == w {
			return true
		}
	}
	return false
}

// Validate checks a normalized scenario and returns the first problem
// found, as a "scenario: <field>: ..." error.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: name: required")
	}
	if sc.Protocol.Name == "" {
		return fmt.Errorf("scenario: protocol.name: required")
	}
	if !oneOf(sc.Protocol.Name, protocols) {
		return fmt.Errorf("scenario: protocol.name: unknown protocol %q", sc.Protocol.Name)
	}
	if err := sc.validateLimits(); err != nil {
		return err
	}
	if sc.Protocol.Name == "experiment" {
		return sc.validateExperiment()
	}
	if sc.Experiment != (Experiment{}) {
		return fmt.Errorf("scenario: experiment: only valid with protocol.name \"experiment\", not %q", sc.Protocol.Name)
	}
	if err := sc.validateTopology(); err != nil {
		return err
	}
	if err := sc.validateProtocol(); err != nil {
		return err
	}
	if err := sc.validateEngine(); err != nil {
		return err
	}
	if err := sc.validateRecovery(); err != nil {
		return err
	}
	if err := sc.validateAdversary(); err != nil {
		return err
	}
	if err := sc.validateEvents(); err != nil {
		return err
	}
	return sc.validateAssertions()
}

func (sc *Scenario) validateTopology() error {
	t := sc.Topology
	if t.Generator == "" {
		return fmt.Errorf("scenario: topology.generator: required")
	}
	if !oneOf(t.Generator, generators) {
		return fmt.Errorf("scenario: topology.generator: unknown generator %q", t.Generator)
	}
	if t.Nodes < 2 {
		return fmt.Errorf("scenario: topology.nodes: %d out of range (want >= 2)", t.Nodes)
	}
	if t.ChannelsPerNode < 1 {
		return fmt.Errorf("scenario: topology.channels_per_node: %d out of range (want >= 1)", t.ChannelsPerNode)
	}
	if t.Labels != "local" && t.Labels != "global" {
		return fmt.Errorf("scenario: topology.labels: unknown label model %q (want local or global)", t.Labels)
	}
	if t.Generator == "jammed" {
		if sc.Adversary.Strategy != "" {
			// The reactive adversary owns the jammer on this topology.
			if t.JamStrategy != "" {
				return fmt.Errorf("scenario: topology.jam_strategy: the adversary section drives the jammer; leave it unset")
			}
			if t.JamBudget != 0 {
				return fmt.Errorf("scenario: topology.jam_budget: the adversary's per_slot is the jam budget; leave it unset")
			}
		} else if !oneOf(t.JamStrategy, jammers) {
			return fmt.Errorf("scenario: topology.jam_strategy: unknown jammer strategy %q", t.JamStrategy)
		}
		if t.JamBudget < 0 || 2*t.JamBudget >= t.ChannelsPerNode {
			return fmt.Errorf("scenario: topology.jam_budget: %d out of range (want 0 <= budget < channels_per_node/2 = %d/2)",
				t.JamBudget, t.ChannelsPerNode)
		}
		if t.MinOverlap != 0 {
			return fmt.Errorf("scenario: topology.min_overlap: derived as channels_per_node - 2*jam_budget on jammed topologies; leave it unset")
		}
		if t.TotalChannels != 0 {
			return fmt.Errorf("scenario: topology.total_channels: equals channels_per_node on jammed topologies; leave it unset")
		}
		if t.Dynamic {
			return fmt.Errorf("scenario: topology.dynamic: jammed topologies are dynamic already; leave it unset")
		}
		if t.Labels != "local" {
			return fmt.Errorf("scenario: topology.labels: jammed topologies use local labels")
		}
		return nil
	}
	if t.JamStrategy != "" || t.JamBudget != 0 {
		return fmt.Errorf("scenario: topology.jam_strategy: only valid with generator \"jammed\", not %q", t.Generator)
	}
	if t.MinOverlap < 1 || t.MinOverlap > t.ChannelsPerNode {
		return fmt.Errorf("scenario: topology.min_overlap: %d out of range [1, %d (channels_per_node)]", t.MinOverlap, t.ChannelsPerNode)
	}
	if t.TotalChannels < t.ChannelsPerNode {
		return fmt.Errorf("scenario: topology.total_channels: %d out of range (want >= channels_per_node = %d, or 0 for the 3c default)",
			t.TotalChannels, t.ChannelsPerNode)
	}
	if t.Dynamic && t.Generator != "shared-core" {
		return fmt.Errorf("scenario: topology.dynamic: dynamic networks use shared-core semantics; set generator \"shared-core\"")
	}
	if t.Dynamic && t.Labels != "local" {
		return fmt.Errorf("scenario: topology.labels: dynamic networks only support local labels")
	}
	return nil
}

func (sc *Scenario) validateProtocol() error {
	p := sc.Protocol
	if !oneOf(p.Aggregate, aggregates) {
		return fmt.Errorf("scenario: protocol.aggregate: unknown aggregate %q", p.Aggregate)
	}
	if p.Source < 0 || p.Source >= sc.Topology.Nodes {
		return fmt.Errorf("scenario: protocol.source: node %d out of range [0, %d)", p.Source, sc.Topology.Nodes)
	}
	if p.Rounds < 1 {
		return fmt.Errorf("scenario: protocol.rounds: %d out of range (want >= 1)", p.Rounds)
	}
	if p.Rumors < 1 {
		return fmt.Errorf("scenario: protocol.rumors: %d out of range (want >= 1)", p.Rumors)
	}
	if p.MaxSlots < 0 {
		return fmt.Errorf("scenario: protocol.max_slots: %d out of range (want >= 0)", p.MaxSlots)
	}
	if p.MaxSlots != 0 && p.Name == "session" {
		return fmt.Errorf("scenario: protocol.max_slots: not supported for session runs (sessions have no slot budget)")
	}
	if p.Curve && p.Name != "cogcast" {
		return fmt.Errorf("scenario: protocol.curve: supports cogcast, not %q", p.Name)
	}
	if p.Name == "hop" && sc.Topology.Labels != "global" {
		return fmt.Errorf("scenario: protocol.name: hop needs topology.labels \"global\"")
	}
	return nil
}

// validateLimits checks the run-limit section. Limits apply to every
// protocol, experiments included, so Validate calls this before the
// experiment early-exit.
func (sc *Scenario) validateLimits() error {
	l := sc.Limits
	if l.Deadline != "" {
		d, err := time.ParseDuration(l.Deadline)
		if err != nil {
			return fmt.Errorf("scenario: limits.deadline: bad duration %q (want e.g. \"30s\" or \"2m\")", l.Deadline)
		}
		if d <= 0 {
			return fmt.Errorf("scenario: limits.deadline: %s out of range (want > 0)", l.Deadline)
		}
	}
	if l.MaxSlots < 0 {
		return fmt.Errorf("scenario: limits.max_slots: %d out of range (want >= 0)", l.MaxSlots)
	}
	if l.MaxSlots != 0 {
		switch sc.Protocol.Name {
		case "session":
			return fmt.Errorf("scenario: limits.max_slots: not supported for session runs (sessions have no slot budget)")
		case "experiment":
			return fmt.Errorf("scenario: limits.max_slots: not supported for experiment runs (experiments set their own budgets)")
		}
	}
	return nil
}

func (sc *Scenario) validateEngine() error {
	e := sc.Engine
	if e.Shards < 1 {
		return fmt.Errorf("scenario: engine.shards: %d out of range (want >= 1)", e.Shards)
	}
	if e.Parallel < 0 {
		return fmt.Errorf("scenario: engine.parallel: %d out of range (want >= 0)", e.Parallel)
	}
	if e.Repeat < 1 {
		return fmt.Errorf("scenario: engine.repeat: %d out of range (want >= 1)", e.Repeat)
	}
	if e.Repeat > 1 && sc.Protocol.Name != "cogcast" && sc.Protocol.Name != "cogcomp" {
		return fmt.Errorf("scenario: engine.repeat: supports cogcast and cogcomp, not %q", sc.Protocol.Name)
	}
	if e.Trace != "" {
		if sc.Protocol.Name != "cogcast" && sc.Protocol.Name != "cogcomp" {
			return fmt.Errorf("scenario: engine.trace: supports cogcast and cogcomp, not %q", sc.Protocol.Name)
		}
		if e.Repeat > 1 {
			return fmt.Errorf("scenario: engine.trace: records a single run; drop engine.repeat")
		}
	}
	if e.Check && sc.Protocol.Name != "cogcast" && sc.Protocol.Name != "cogcomp" && sc.Protocol.Name != "session" {
		return fmt.Errorf("scenario: engine.check: supports cogcast, cogcomp and session, not %q", sc.Protocol.Name)
	}
	return nil
}

func (sc *Scenario) validateRecovery() error {
	r := sc.Recovery
	if !r.Enabled {
		if r.OutageRate != 0 {
			return fmt.Errorf("scenario: recovery.outage_rate: needs recovery.enabled (the classic runner has no fault injection)")
		}
		if r.MaxRetries != 0 {
			return fmt.Errorf("scenario: recovery.max_retries: needs recovery.enabled")
		}
		return nil
	}
	if sc.Protocol.Name != "cogcomp" {
		return fmt.Errorf("scenario: recovery.enabled: supports cogcomp, not %q", sc.Protocol.Name)
	}
	if r.OutageRate < 0 || r.OutageRate >= 1 {
		return fmt.Errorf("scenario: recovery.outage_rate: %v out of range [0, 1)", r.OutageRate)
	}
	if r.OutageDuration < 1 {
		return fmt.Errorf("scenario: recovery.outage_duration: %d out of range (want >= 1)", r.OutageDuration)
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("scenario: recovery.max_retries: %d out of range (want >= 0)", r.MaxRetries)
	}
	return nil
}

// validateAdversary checks the reactive-adversary section against the
// protocol: jam-capable strategies ride cogcast's jammed topology (where
// per_slot doubles as the reduction's kJam), crash-capable ones ride the
// recovery supervisor.
func (sc *Scenario) validateAdversary() error {
	a := sc.Adversary
	if a.Strategy == "" {
		if a.Energy != 0 || a.PerSlot != 0 {
			return fmt.Errorf("scenario: adversary.energy: needs adversary.strategy")
		}
		return nil
	}
	if _, err := adversary.New(a.Strategy); err != nil {
		return fmt.Errorf("scenario: adversary.strategy: unknown reactive strategy %q", a.Strategy)
	}
	if a.Energy < 0 {
		return fmt.Errorf("scenario: adversary.energy: %d out of range (want >= 0)", a.Energy)
	}
	if a.PerSlot < 1 {
		return fmt.Errorf("scenario: adversary.per_slot: %d out of range (want >= 1)", a.PerSlot)
	}
	switch sc.Protocol.Name {
	case "cogcast":
		if a.Strategy != "none" && !adversary.CanJam(a.Strategy) {
			return fmt.Errorf("scenario: adversary.strategy: %q cannot jam; cogcast takes none, busiest, follower or hunter", a.Strategy)
		}
		if sc.Topology.Generator != "jammed" {
			return fmt.Errorf("scenario: adversary.strategy: reactive jamming needs topology.generator \"jammed\"")
		}
		if 2*a.PerSlot >= sc.Topology.ChannelsPerNode {
			return fmt.Errorf("scenario: adversary.per_slot: %d out of range (want 2*per_slot < channels_per_node = %d; per_slot is the reduction's jam budget)",
				a.PerSlot, sc.Topology.ChannelsPerNode)
		}
	case "cogcomp":
		if a.Strategy != "none" && !adversary.CanCrash(a.Strategy) {
			return fmt.Errorf("scenario: adversary.strategy: %q cannot crash nodes; cogcomp takes none, hunter, crasher or oblivious", a.Strategy)
		}
		if !sc.Recovery.Enabled {
			return fmt.Errorf("scenario: adversary.strategy: needs recovery.enabled on cogcomp (the classic runner has no fault injection)")
		}
	default:
		return fmt.Errorf("scenario: adversary.strategy: supports cogcast and cogcomp, not %q", sc.Protocol.Name)
	}
	return nil
}

func (sc *Scenario) validateEvents() error {
	type window struct{ from, until, index int }
	windows := map[string][]window{}
	points := map[string][]int{}
	for i, ev := range sc.Events {
		path := fmt.Sprintf("events[%d]", i)
		switch ev.Kind {
		case EvRandomOutages, EvCorrelatedOutages, EvBlackout:
			if !sc.Recovery.Enabled {
				return fmt.Errorf("scenario: %s: %s events need recovery.enabled", path, ev.Kind)
			}
			if sc.Engine.Repeat > 1 {
				return fmt.Errorf("scenario: %s: fault events support single runs; drop engine.repeat", path)
			}
			if ev.At < 0 || (ev.Until != 0 && ev.Until <= ev.At) {
				return fmt.Errorf("scenario: %s: invalid slot window [%d, %d)", path, ev.At, ev.Until)
			}
			if ev.Strategy != "" || ev.Budget != 0 {
				return fmt.Errorf("scenario: %s: strategy/budget are jam-switch fields", path)
			}
			switch ev.Kind {
			case EvBlackout:
				if ev.Until == 0 {
					return fmt.Errorf("scenario: %s: blackout needs an explicit until", path)
				}
				if ev.Rate != 0 || ev.Duration != 0 || ev.Group != 0 {
					return fmt.Errorf("scenario: %s: rate/duration/group are outage fields", path)
				}
				if len(ev.Nodes) == 0 {
					return fmt.Errorf("scenario: %s: blackout needs a non-empty nodes list", path)
				}
				for _, id := range ev.Nodes {
					if id < 0 || id >= sc.Topology.Nodes {
						return fmt.Errorf("scenario: %s: node %d out of range [0, %d)", path, id, sc.Topology.Nodes)
					}
					if id == sc.Protocol.Source {
						return fmt.Errorf("scenario: %s: blackout must not include the source node %d", path, id)
					}
				}
			default:
				if ev.Rate <= 0 || ev.Rate >= 1 {
					return fmt.Errorf("scenario: %s: rate %v out of range (0, 1)", path, ev.Rate)
				}
				if ev.Duration < 1 {
					return fmt.Errorf("scenario: %s: duration %d out of range (want >= 1)", path, ev.Duration)
				}
				if ev.Kind == EvCorrelatedOutages && ev.Group < 1 {
					return fmt.Errorf("scenario: %s: group %d out of range (want >= 1)", path, ev.Group)
				}
				if ev.Kind == EvRandomOutages && ev.Group != 0 {
					return fmt.Errorf("scenario: %s: group is a correlated-outages field", path)
				}
				if len(ev.Nodes) != 0 {
					return fmt.Errorf("scenario: %s: nodes is a blackout field", path)
				}
			}
			for _, w := range windows[ev.Kind] {
				if overlaps(w.from, w.until, ev.At, ev.Until) {
					return fmt.Errorf("scenario: %s: window overlaps events[%d] (both %s); merge them or separate the windows",
						path, w.index, ev.Kind)
				}
			}
			windows[ev.Kind] = append(windows[ev.Kind], window{ev.At, ev.Until, i})
		case EvJamSwitch:
			if sc.Topology.Generator != "jammed" {
				return fmt.Errorf("scenario: %s: jam-switch needs topology.generator \"jammed\"", path)
			}
			if sc.Adversary.Strategy != "" {
				return fmt.Errorf("scenario: %s: the reactive adversary owns the jammer; drop jam-switch events", path)
			}
			if ev.At < 1 {
				return fmt.Errorf("scenario: %s: at %d out of range (want >= 1; slot 0 is topology.jam_strategy)", path, ev.At)
			}
			if !oneOf(ev.Strategy, jammers) {
				return fmt.Errorf("scenario: %s: unknown jammer strategy %q", path, ev.Strategy)
			}
			if ev.Budget < 0 || 2*ev.Budget >= sc.Topology.ChannelsPerNode {
				return fmt.Errorf("scenario: %s: budget %d out of range (want 0 <= budget < channels_per_node/2 = %d/2)",
					path, ev.Budget, sc.Topology.ChannelsPerNode)
			}
			if ev.Until != 0 || ev.Rate != 0 || ev.Duration != 0 || ev.Group != 0 || len(ev.Nodes) != 0 {
				return fmt.Errorf("scenario: %s: jam-switch uses only at, strategy and budget", path)
			}
			for _, at := range points[ev.Kind] {
				if at == ev.At {
					return fmt.Errorf("scenario: %s: duplicate jam-switch at slot %d", path, ev.At)
				}
			}
			points[ev.Kind] = append(points[ev.Kind], ev.At)
		case EvAssignmentFlip:
			if sc.Topology.Generator != "shared-core" || sc.Topology.Dynamic {
				return fmt.Errorf("scenario: %s: assignment-flip needs topology.generator \"shared-core\" with dynamic false", path)
			}
			if sc.Protocol.Name != "cogcast" {
				return fmt.Errorf("scenario: %s: assignment-flip supports cogcast, not %q", path, sc.Protocol.Name)
			}
			if ev.At < 1 {
				return fmt.Errorf("scenario: %s: at %d out of range (want >= 1)", path, ev.At)
			}
			if ev.Until != 0 || ev.Rate != 0 || ev.Duration != 0 || ev.Group != 0 ||
				len(ev.Nodes) != 0 || ev.Strategy != "" || ev.Budget != 0 {
				return fmt.Errorf("scenario: %s: assignment-flip uses only at", path)
			}
			for _, at := range points[ev.Kind] {
				if at == ev.At {
					return fmt.Errorf("scenario: %s: duplicate assignment-flip at slot %d", path, ev.At)
				}
			}
			points[ev.Kind] = append(points[ev.Kind], ev.At)
		case "":
			return fmt.Errorf("scenario: %s.kind: required", path)
		default:
			return fmt.Errorf("scenario: %s.kind: unknown event kind %q", path, ev.Kind)
		}
	}
	return nil
}

// overlaps reports whether [a, b) and [c, d) intersect (0 = open end).
func overlaps(a, b, c, d int) bool {
	if b == 0 {
		b = int(^uint(0) >> 1)
	}
	if d == 0 {
		d = int(^uint(0) >> 1)
	}
	return a < d && c < b
}

// flipSlots collects the assignment-flip schedule, ascending.
func (sc *Scenario) flipSlots() []int {
	var out []int
	for _, ev := range sc.Events {
		if ev.Kind == EvAssignmentFlip {
			out = append(out, ev.At)
		}
	}
	sort.Ints(out)
	return out
}

func (sc *Scenario) validateAssertions() error {
	p := sc.Protocol.Name
	for i, a := range sc.Assertions {
		path := fmt.Sprintf("assertions[%d]", i)
		if sc.Engine.Repeat > 1 && a.Kind != AsCompletedBy && a.Kind != AsOracleClean {
			return fmt.Errorf("scenario: %s: %q applies to single runs; only completed-by and oracle-clean work with engine.repeat", path, a.Kind)
		}
		switch a.Kind {
		case AsCompletedBy:
			if a.Slots < 1 {
				return fmt.Errorf("scenario: %s.slots: %d out of range (want >= 1)", path, a.Slots)
			}
		case AsAllInformed:
			switch p {
			case "cogcast", "gossip", "rendezvous", "rendezvous-agg", "hop":
			default:
				return fmt.Errorf("scenario: %s: all-informed supports dissemination protocols, not %q", path, p)
			}
		case AsExactCensus, AsDegradedCensus, AsMaxRetries, AsMaxReelections, AsMaxRestarts:
			if !sc.Recovery.Enabled {
				return fmt.Errorf("scenario: %s: %q needs recovery.enabled", path, a.Kind)
			}
			if a.Kind == AsDegradedCensus && (a.MinContributors < 1 || a.MinContributors > sc.Topology.Nodes) {
				return fmt.Errorf("scenario: %s.min_contributors: %d out of range [1, %d (nodes)]", path, a.MinContributors, sc.Topology.Nodes)
			}
			if (a.Kind == AsMaxRetries || a.Kind == AsMaxReelections || a.Kind == AsMaxRestarts) && a.Value < 0 {
				return fmt.Errorf("scenario: %s.value: %d out of range (want >= 0)", path, a.Value)
			}
		case AsValueEquals:
			if p != "cogcomp" {
				return fmt.Errorf("scenario: %s: value-equals supports cogcomp, not %q", path, p)
			}
			switch sc.Protocol.Aggregate {
			case "sum", "count", "min", "max":
			default:
				return fmt.Errorf("scenario: %s: value-equals supports int64 aggregates, not %q", path, sc.Protocol.Aggregate)
			}
		case AsOracleClean:
			if !sc.Engine.Check {
				return fmt.Errorf("scenario: %s: oracle-clean needs engine.check", path)
			}
		case "":
			return fmt.Errorf("scenario: %s.kind: required", path)
		default:
			return fmt.Errorf("scenario: %s.kind: unknown assertion kind %q", path, a.Kind)
		}
	}
	return nil
}

func (sc *Scenario) validateExperiment() error {
	x := sc.Experiment
	if x.ID == "" {
		return fmt.Errorf("scenario: experiment.id: required")
	}
	if _, err := exper.ByID(x.ID); err != nil {
		return fmt.Errorf("scenario: experiment.id: unknown experiment %q", x.ID)
	}
	if x.Trials < 0 {
		return fmt.Errorf("scenario: experiment.trials: %d out of range (want >= 0)", x.Trials)
	}
	if sc.Topology != (Topology{Labels: "local"}) && sc.Topology != (Topology{}) {
		return fmt.Errorf("scenario: topology: experiment runs declare their own grids; drop the topology section")
	}
	if len(sc.Events) != 0 {
		return fmt.Errorf("scenario: events: experiment runs schedule their own faults; drop the events section")
	}
	if len(sc.Assertions) != 0 {
		return fmt.Errorf("scenario: assertions: not supported for experiment runs (experiments carry their own verdict notes)")
	}
	if sc.Protocol.MaxSlots != 0 {
		return fmt.Errorf("scenario: protocol.max_slots: not supported for experiment runs (experiments set their own budgets)")
	}
	if sc.Engine.Trace != "" {
		return fmt.Errorf("scenario: engine.trace: not supported for experiment runs")
	}
	if sc.Engine.Repeat > 1 {
		return fmt.Errorf("scenario: engine.repeat: experiment trials repeat via experiment.trials")
	}
	if sc.Recovery.OutageRate != 0 || sc.Recovery.MaxRetries != 0 {
		return fmt.Errorf("scenario: recovery: experiment runs only use recovery.enabled (the E26/E27 supervisor toggle)")
	}
	if sc.Adversary != (Adversary{}) {
		return fmt.Errorf("scenario: adversary: experiment runs schedule their own adversaries (E30 is the tournament); drop the adversary section")
	}
	return nil
}

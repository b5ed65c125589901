// Package scenario is the declarative run format of the repository: a
// YAML/JSON file that states *what* to simulate — topology, protocol, a
// timed event schedule (outages, blackouts, jammer switches, assignment
// flips), recovery settings, engine options — and *what must hold
// afterwards* (postcondition assertions), instead of a pile of CLI flags
// or a hard-coded experiment config.
//
// The package is the single execution path for cmd/cogsim: the flag parser
// builds a Scenario in memory and file mode loads one from disk, so a
// scenario run is byte-identical to the equivalent flag-driven run by
// construction — at any -parallel or -shards count, with or without
// tracing. Every field maps onto an existing surface (crn.Spec,
// crn.BroadcastOptions/AggregateOptions, exper.Config, the faults and
// jamming adversaries); the DSL adds no semantics of its own.
//
// Lifecycle: Parse (strict decode, unknown fields rejected) → Normalize
// (defaults filled in) → Validate (ranges, event overlap, assertions vs
// enabled features) → Execute (run, returning an Outcome) → Assertions
// (evaluate the Outcome). Load bundles the first three; Run the last two.
// Emit renders the canonical normalized form, and
// parse→normalize→emit is a fixed point (golden round-trip tests pin it).
//
// The committed library lives in scenarios/ and the full file-format
// reference in SCENARIOS.md.
package scenario

// Scenario declares one run: a network, a protocol over it, optional timed
// events and recovery settings, and the assertions its outcome must
// satisfy. The zero value is not runnable; fill at least Name, Topology
// and Protocol, then Normalize and Validate.
type Scenario struct {
	// Name identifies the scenario (reports, catalog, CI matrix).
	Name string `key:"name"`
	// Description is a one-line human summary.
	Description string `key:"description"`
	// Seed roots all randomness; identical scenarios reproduce identical
	// output. Defaults to 1 (the cogsim flag default).
	Seed int64 `key:"seed"`
	// Topology declares the network.
	Topology Topology `key:"topology"`
	// Protocol declares what runs over it.
	Protocol Protocol `key:"protocol"`
	// Engine carries execution options that never change results.
	Engine Engine `key:"engine"`
	// Limits bounds the run's wall-clock time and slot budget.
	Limits Limits `key:"limits"`
	// Recovery configures the crash-restart supervisor (cogcomp only).
	Recovery Recovery `key:"recovery"`
	// Adversary configures a reactive (adaptive) adversary over the run.
	Adversary Adversary `key:"adversary"`
	// Experiment configures an experiment-suite run; only valid (and
	// required) when Protocol.Name is "experiment".
	Experiment Experiment `key:"experiment"`
	// Events is the timed schedule of faults and adversary moves.
	Events []Event `key:"events"`
	// Assertions are the postconditions checked after the run.
	Assertions []Assertion `key:"assertions"`
}

// Topology declares the network a scenario builds.
type Topology struct {
	// Nodes is n, ChannelsPerNode c, MinOverlap k, TotalChannels C
	// (0 = 3c, matching the cogsim -C default).
	Nodes           int `key:"nodes"`
	ChannelsPerNode int `key:"channels_per_node"`
	MinOverlap      int `key:"min_overlap"`
	TotalChannels   int `key:"total_channels"`
	// Generator selects the assignment generator: "full", "partitioned",
	// "shared-core", "random-pool", "pairwise", or "jammed" (the
	// Theorem 18 jamming reduction).
	Generator string `key:"generator"`
	// Labels is the channel-label model: "local" (default) or "global".
	Labels string `key:"labels"`
	// Dynamic re-draws channel sets every slot (SharedCore semantics).
	Dynamic bool `key:"dynamic"`
	// JamStrategy and JamBudget configure the "jammed" generator: the
	// adversary strategy ("none", "random", "sweep", "block", "split") and
	// its per-node per-slot budget of jammed channels.
	JamStrategy string `key:"jam_strategy"`
	JamBudget   int    `key:"jam_budget"`
}

// Protocol declares what runs over the network.
type Protocol struct {
	// Name is one of "cogcast", "cogcomp", "session", "gossip",
	// "rendezvous", "rendezvous-agg", "hop", or "experiment".
	Name string `key:"name"`
	// Source is the initiating node (default 0).
	Source int `key:"source"`
	// Payload is the broadcast message (default "INIT").
	Payload string `key:"payload"`
	// Aggregate selects the cogcomp/session aggregate: "sum" (default),
	// "count", "min", "max", "stats", or "collect".
	Aggregate string `key:"aggregate"`
	// Rounds is the session protocol's reporting-round count (default 3).
	Rounds int `key:"rounds"`
	// Rumors is the gossip protocol's rumor count (default 4).
	Rumors int `key:"rumors"`
	// MaxSlots bounds the run; 0 means the automatic budget.
	MaxSlots int `key:"max_slots"`
	// Curve prints the informed-count sparkline for cogcast.
	Curve bool `key:"curve"`
}

// Engine carries execution options. None of them changes results: repeat
// and parallel fan runs out deterministically, shards splits the per-slot
// scan with byte-identical merging, check attaches the invariant oracle,
// trace records a JSONL stream without perturbing the run.
type Engine struct {
	// Shards splits each slot's protocol scan across goroutines
	// (default 1 = serial).
	Shards int `key:"shards"`
	// Sparse enables event-driven stepping: dormant nodes are skipped
	// instead of scanned every slot (sim.WithSparse). Results are
	// byte-identical either way, checked and traced runs included;
	// dynamic/jammed runs silently step densely.
	Sparse bool `key:"sparse"`
	// Parallel bounds workers for repeated runs (0 = GOMAXPROCS).
	Parallel int `key:"parallel"`
	// Repeat runs that many independent seeded repetitions (default 1).
	Repeat int `key:"repeat"`
	// Check attaches the invariant oracle to every run.
	Check bool `key:"check"`
	// Trace writes a JSONL event trace of a single run to this path.
	Trace string `key:"trace"`
}

// Limits bounds a run's real time and slot budget. Zero values disable a
// limit; unlike Engine options, an exceeded limit changes the outcome (the
// run is interrupted with a typed deadline error, or stops at the slot
// cap), so limits live in their own section.
type Limits struct {
	// Deadline is a wall-clock budget as a Go duration string ("30s",
	// "2m"). When exceeded, the run is interrupted at the next slot
	// boundary and Execute returns a deadline-exceeded error carrying the
	// slots completed so far.
	Deadline string `key:"deadline"`
	// MaxSlots caps the slot budget. It combines with protocol.max_slots
	// (and the automatic budget) by taking the smallest nonzero value.
	MaxSlots int `key:"max_slots"`
}

// Recovery configures the crash-restart supervisor for cogcomp runs.
type Recovery struct {
	// Enabled routes the aggregation through the recovery supervisor.
	Enabled bool `key:"enabled"`
	// OutageRate injects whole-run random churn: each unprotected node
	// starts an outage with this per-slot probability.
	OutageRate float64 `key:"outage_rate"`
	// OutageDuration is each injected outage's length in slots
	// (default 10).
	OutageDuration int `key:"outage_duration"`
	// MaxRetries bounds per-epoch re-executions before the run degrades
	// (0 = library default).
	MaxRetries int `key:"max_retries"`
}

// Adversary configures a reactive adversary (package adversary): a
// strategy that observes every slot's channel outcomes and spends a
// bounded energy budget on next-slot jamming (cogcast over a "jammed"
// topology) or crash-restarts (recovered cogcomp runs).
type Adversary struct {
	// Strategy names the reactive strategy. Jam-capable strategies
	// ("busiest", "follower", "hunter") drive cogcast's jammed reduction;
	// crash-capable ones ("hunter", "crasher", "oblivious") feed the
	// recovery supervisor; "none" is the inert control.
	Strategy string `key:"strategy"`
	// Energy is the total reserve: one unit per jammed channel per slot,
	// one unit per node held down per slot. Zero leaves the adversary
	// inert (the run is byte-identical to the control).
	Energy int `key:"energy"`
	// PerSlot caps actions scheduled per slot (default 2). On jammed
	// topologies it doubles as the reduction's kJam, so 2*per_slot must
	// stay below channels_per_node.
	PerSlot int `key:"per_slot"`
}

// Experiment configures a run of the E1–E28 experiment suite.
type Experiment struct {
	// ID names the experiment, e.g. "E26".
	ID string `key:"id"`
	// Trials is the repetition count per parameter point (0 = suite
	// default).
	Trials int `key:"trials"`
	// Quick shrinks sweeps to the CI-sized grids.
	Quick bool `key:"quick"`
}

// Event kinds.
const (
	// EvRandomOutages: independent per-node crash-restart churn within a
	// window (recovery runs only).
	EvRandomOutages = "random-outages"
	// EvCorrelatedOutages: blocks of adjacent nodes fail together within a
	// window (recovery runs only).
	EvCorrelatedOutages = "correlated-outages"
	// EvBlackout: a fixed node set is down for the whole window (recovery
	// runs only).
	EvBlackout = "blackout"
	// EvJamSwitch: the jamming adversary switches strategy at a slot
	// (jammed topologies only).
	EvJamSwitch = "jam-switch"
	// EvAssignmentFlip: every node re-draws its channel set at a slot
	// (shared-core cogcast runs only).
	EvAssignmentFlip = "assignment-flip"
)

// Event is one element of the timed schedule. Kind selects which fields
// apply; Validate rejects combinations the kind does not use.
type Event struct {
	// Kind is one of the Ev* constants.
	Kind string `key:"kind"`
	// At is the slot a point event fires (jam-switch, assignment-flip) or
	// a windowed event starts (outages, blackout).
	At int `key:"at"`
	// Until ends a windowed event's slot window [At, Until); 0 leaves it
	// open-ended (blackout requires an explicit Until).
	Until int `key:"until"`
	// Rate is the per-slot outage-start probability (outage kinds).
	Rate float64 `key:"rate"`
	// Duration is each outage's length in slots (outage kinds, default 10).
	Duration int `key:"duration"`
	// Group is the correlated-outage block size (default 8).
	Group int `key:"group"`
	// Nodes lists the blacked-out nodes (blackout).
	Nodes []int `key:"nodes"`
	// Strategy and Budget are the jammer strategy and per-node budget a
	// jam-switch switches to.
	Strategy string `key:"strategy"`
	Budget   int    `key:"budget"`
}

// Assertion kinds.
const (
	// AsCompletedBy: the run (every repetition, when repeated) finishes
	// within Slots slots.
	AsCompletedBy = "completed-by"
	// AsAllInformed: the dissemination completed (cogcast, gossip,
	// rendezvous, rendezvous-agg, hop).
	AsAllInformed = "all-informed"
	// AsExactCensus: the recovered aggregation is neither degraded nor
	// stalled and every node contributed.
	AsExactCensus = "exact-census"
	// AsDegradedCensus: the recovered aggregation did not stall and at
	// least MinContributors nodes contributed (degraded accepted).
	AsDegradedCensus = "degraded-census"
	// AsMaxRetries / AsMaxReelections / AsMaxRestarts: recovery effort
	// stayed within Value.
	AsMaxRetries     = "max-retries"
	AsMaxReelections = "max-reelections"
	AsMaxRestarts    = "max-restarts"
	// AsValueEquals: the aggregate equals Value (int64 aggregates).
	AsValueEquals = "value-equals"
	// AsOracleClean: the run passed under the invariant oracle (requires
	// engine.check; a violation fails the run itself).
	AsOracleClean = "oracle-clean"
)

// Assertion is one postcondition. Kind selects which fields apply.
type Assertion struct {
	// Kind is one of the As* constants.
	Kind string `key:"kind"`
	// Slots is the completed-by bound.
	Slots int `key:"slots"`
	// Value is the bound or expected value for max-* and value-equals.
	Value int64 `key:"value"`
	// MinContributors is the degraded-census floor.
	MinContributors int `key:"min_contributors"`
}

// Normalize fills defaults in place, so that Emit renders the canonical
// full form and Execute never needs fallback logic. It is idempotent.
func (sc *Scenario) Normalize() {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	t := &sc.Topology
	if t.Labels == "" {
		t.Labels = "local"
	}
	if t.Generator == "jammed" {
		// A reactive adversary owns the jammer; only the oblivious
		// generator defaults to the "random" strategy.
		if t.JamStrategy == "" && sc.Adversary.Strategy == "" {
			t.JamStrategy = "random"
		}
	} else if t.TotalChannels == 0 {
		// The cogsim -C default: 3c for every non-jammed generator (the
		// ones that derive C themselves ignore it).
		t.TotalChannels = 3 * t.ChannelsPerNode
	}
	p := &sc.Protocol
	if p.Payload == "" {
		p.Payload = "INIT"
	}
	if p.Aggregate == "" {
		p.Aggregate = "sum"
	}
	if p.Rounds == 0 {
		p.Rounds = 3
	}
	if p.Rumors == 0 {
		p.Rumors = 4
	}
	e := &sc.Engine
	if e.Shards == 0 {
		e.Shards = 1
	}
	if e.Repeat == 0 {
		e.Repeat = 1
	}
	r := &sc.Recovery
	if r.OutageDuration == 0 {
		r.OutageDuration = 10
	}
	a := &sc.Adversary
	if a.Strategy != "" && a.PerSlot == 0 {
		a.PerSlot = 2 // crn.DefaultAdversaryPerSlot
	}
	for i := range sc.Events {
		ev := &sc.Events[i]
		switch ev.Kind {
		case EvRandomOutages, EvCorrelatedOutages:
			if ev.Duration == 0 {
				ev.Duration = 10
			}
			if ev.Kind == EvCorrelatedOutages && ev.Group == 0 {
				ev.Group = 8
			}
		}
	}
}

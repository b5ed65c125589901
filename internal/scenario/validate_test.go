package scenario

import "testing"

// base returns a minimal valid scenario to mutate per case.
func base() *Scenario {
	sc := &Scenario{
		Name: "t",
		Topology: Topology{
			Nodes: 16, ChannelsPerNode: 8, MinOverlap: 2, Generator: "shared-core",
		},
		Protocol: Protocol{Name: "cogcast"},
	}
	sc.Normalize()
	return sc
}

// jammedBase returns a valid jammed-topology scenario.
func jammedBase() *Scenario {
	sc := &Scenario{
		Name: "t",
		Topology: Topology{
			Nodes: 16, ChannelsPerNode: 16, Generator: "jammed",
			JamStrategy: "random", JamBudget: 3,
		},
		Protocol: Protocol{Name: "cogcast"},
	}
	sc.Normalize()
	return sc
}

// recoveredBase returns a valid recovered-cogcomp scenario.
func recoveredBase() *Scenario {
	sc := base()
	sc.Protocol.Name = "cogcomp"
	sc.Recovery.Enabled = true
	return sc
}

// TestValidateRejects pins the exact message for each semantic rejection
// class: range violations, feature gating, event overlap, and assertions
// referencing features the scenario does not enable.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		sc   func() *Scenario
		want string
	}{
		{"missing name", func() *Scenario { sc := base(); sc.Name = ""; return sc },
			`scenario: name: required`},
		{"missing protocol", func() *Scenario { sc := base(); sc.Protocol.Name = ""; return sc },
			`scenario: protocol.name: required`},
		{"unknown protocol", func() *Scenario { sc := base(); sc.Protocol.Name = "flood"; return sc },
			`scenario: protocol.name: unknown protocol "flood"`},
		{"nodes out of range", func() *Scenario { sc := base(); sc.Topology.Nodes = 1; return sc },
			`scenario: topology.nodes: 1 out of range (want >= 2)`},
		{"unknown generator", func() *Scenario { sc := base(); sc.Topology.Generator = "mesh"; return sc },
			`scenario: topology.generator: unknown generator "mesh"`},
		{"overlap above c", func() *Scenario { sc := base(); sc.Topology.MinOverlap = 9; return sc },
			`scenario: topology.min_overlap: 9 out of range [1, 8 (channels_per_node)]`},
		{"total channels below c", func() *Scenario { sc := base(); sc.Topology.TotalChannels = 4; return sc },
			`scenario: topology.total_channels: 4 out of range (want >= channels_per_node = 8, or 0 for the 3c default)`},
		{"unknown labels", func() *Scenario { sc := base(); sc.Topology.Labels = "private"; return sc },
			`scenario: topology.labels: unknown label model "private" (want local or global)`},
		{"dynamic non-shared-core", func() *Scenario {
			sc := base()
			sc.Topology.Generator = "full"
			sc.Topology.MinOverlap = 8
			sc.Topology.TotalChannels = 8
			sc.Topology.Dynamic = true
			return sc
		}, `scenario: topology.dynamic: dynamic networks use shared-core semantics; set generator "shared-core"`},
		{"jam budget too large", func() *Scenario { sc := jammedBase(); sc.Topology.JamBudget = 8; return sc },
			`scenario: topology.jam_budget: 8 out of range (want 0 <= budget < channels_per_node/2 = 16/2)`},
		{"jam strategy without jammed", func() *Scenario { sc := base(); sc.Topology.JamStrategy = "random"; return sc },
			`scenario: topology.jam_strategy: only valid with generator "jammed", not "shared-core"`},
		{"unknown aggregate", func() *Scenario { sc := base(); sc.Protocol.Aggregate = "median"; return sc },
			`scenario: protocol.aggregate: unknown aggregate "median"`},
		{"source out of range", func() *Scenario { sc := base(); sc.Protocol.Source = 16; return sc },
			`scenario: protocol.source: node 16 out of range [0, 16)`},
		{"curve off-cogcast", func() *Scenario {
			sc := base()
			sc.Protocol.Name = "gossip"
			sc.Protocol.Curve = true
			return sc
		}, `scenario: protocol.curve: supports cogcast, not "gossip"`},
		{"repeat off-protocol", func() *Scenario {
			sc := base()
			sc.Protocol.Name = "gossip"
			sc.Engine.Repeat = 4
			return sc
		}, `scenario: engine.repeat: supports cogcast and cogcomp, not "gossip"`},
		{"trace with repeat", func() *Scenario {
			sc := base()
			sc.Engine.Repeat = 4
			sc.Engine.Trace = "run.jsonl"
			return sc
		}, `scenario: engine.trace: records a single run; drop engine.repeat`},
		{"check off-protocol", func() *Scenario {
			sc := base()
			sc.Protocol.Name = "gossip"
			sc.Engine.Check = true
			return sc
		}, `scenario: engine.check: supports cogcast, cogcomp and session, not "gossip"`},
		{"outage without recovery", func() *Scenario { sc := base(); sc.Recovery.OutageRate = 0.1; return sc },
			`scenario: recovery.outage_rate: needs recovery.enabled (the classic runner has no fault injection)`},
		{"recovery off-cogcomp", func() *Scenario { sc := base(); sc.Recovery.Enabled = true; return sc },
			`scenario: recovery.enabled: supports cogcomp, not "cogcast"`},
		{"outage rate out of range", func() *Scenario {
			sc := recoveredBase()
			sc.Recovery.OutageRate = 1.0
			return sc
		}, `scenario: recovery.outage_rate: 1 out of range [0, 1)`},
		{"fault event without recovery", func() *Scenario {
			sc := base()
			sc.Events = []Event{{Kind: EvRandomOutages, Rate: 0.1, Duration: 10}}
			return sc
		}, `scenario: events[0]: random-outages events need recovery.enabled`},
		{"overlapping fault windows", func() *Scenario {
			sc := recoveredBase()
			sc.Events = []Event{
				{Kind: EvRandomOutages, At: 0, Until: 200, Rate: 0.1, Duration: 10},
				{Kind: EvRandomOutages, At: 100, Until: 300, Rate: 0.2, Duration: 10},
			}
			return sc
		}, `scenario: events[1]: window overlaps events[0] (both random-outages); merge them or separate the windows`},
		{"blackout without until", func() *Scenario {
			sc := recoveredBase()
			sc.Events = []Event{{Kind: EvBlackout, At: 10, Nodes: []int{3}}}
			return sc
		}, `scenario: events[0]: blackout needs an explicit until`},
		{"blackout includes source", func() *Scenario {
			sc := recoveredBase()
			sc.Events = []Event{{Kind: EvBlackout, At: 0, Until: 100, Nodes: []int{0}}}
			return sc
		}, `scenario: events[0]: blackout must not include the source node 0`},
		{"jam-switch without jammed", func() *Scenario {
			sc := base()
			sc.Events = []Event{{Kind: EvJamSwitch, At: 3, Strategy: "block"}}
			return sc
		}, `scenario: events[0]: jam-switch needs topology.generator "jammed"`},
		{"duplicate jam-switch slot", func() *Scenario {
			sc := jammedBase()
			sc.Events = []Event{
				{Kind: EvJamSwitch, At: 3, Strategy: "block", Budget: 3},
				{Kind: EvJamSwitch, At: 3, Strategy: "split", Budget: 3},
			}
			return sc
		}, `scenario: events[1]: duplicate jam-switch at slot 3`},
		{"assignment-flip off-cogcast", func() *Scenario {
			sc := base()
			sc.Protocol.Name = "cogcomp"
			sc.Events = []Event{{Kind: EvAssignmentFlip, At: 3}}
			return sc
		}, `scenario: events[0]: assignment-flip supports cogcast, not "cogcomp"`},
		{"assignment-flip on dynamic", func() *Scenario {
			sc := base()
			sc.Topology.Dynamic = true
			sc.Events = []Event{{Kind: EvAssignmentFlip, At: 3}}
			return sc
		}, `scenario: events[0]: assignment-flip needs topology.generator "shared-core" with dynamic false`},
		{"unknown event kind", func() *Scenario {
			sc := base()
			sc.Events = []Event{{Kind: "meteor-strike"}}
			return sc
		}, `scenario: events[0].kind: unknown event kind "meteor-strike"`},
		{"oracle-clean without check", func() *Scenario {
			sc := base()
			sc.Assertions = []Assertion{{Kind: AsOracleClean}}
			return sc
		}, `scenario: assertions[0]: oracle-clean needs engine.check`},
		{"census without recovery", func() *Scenario {
			sc := base()
			sc.Protocol.Name = "cogcomp"
			sc.Assertions = []Assertion{{Kind: AsExactCensus}}
			return sc
		}, `scenario: assertions[0]: "exact-census" needs recovery.enabled`},
		{"all-informed off-dissemination", func() *Scenario {
			sc := base()
			sc.Protocol.Name = "cogcomp"
			sc.Assertions = []Assertion{{Kind: AsAllInformed}}
			return sc
		}, `scenario: assertions[0]: all-informed supports dissemination protocols, not "cogcomp"`},
		{"value-equals off-cogcomp", func() *Scenario {
			sc := base()
			sc.Assertions = []Assertion{{Kind: AsValueEquals, Value: 1}}
			return sc
		}, `scenario: assertions[0]: value-equals supports cogcomp, not "cogcast"`},
		{"value-equals on stats", func() *Scenario {
			sc := base()
			sc.Protocol.Name = "cogcomp"
			sc.Protocol.Aggregate = "stats"
			sc.Assertions = []Assertion{{Kind: AsValueEquals, Value: 1}}
			return sc
		}, `scenario: assertions[0]: value-equals supports int64 aggregates, not "stats"`},
		{"per-run assertion with repeat", func() *Scenario {
			sc := base()
			sc.Engine.Repeat = 4
			sc.Assertions = []Assertion{{Kind: AsAllInformed}}
			return sc
		}, `scenario: assertions[0]: "all-informed" applies to single runs; only completed-by and oracle-clean work with engine.repeat`},
		{"unknown assertion kind", func() *Scenario {
			sc := base()
			sc.Assertions = []Assertion{{Kind: "finishes-eventually"}}
			return sc
		}, `scenario: assertions[0].kind: unknown assertion kind "finishes-eventually"`},
		{"completed-by without slots", func() *Scenario {
			sc := base()
			sc.Assertions = []Assertion{{Kind: AsCompletedBy}}
			return sc
		}, `scenario: assertions[0].slots: 0 out of range (want >= 1)`},
		{"unknown experiment", func() *Scenario {
			return &Scenario{Name: "t", Protocol: Protocol{Name: "experiment"}, Experiment: Experiment{ID: "E99"}}
		}, `scenario: experiment.id: unknown experiment "E99"`},
		{"session slot budget", func() *Scenario {
			sc := base()
			sc.Protocol.Name, sc.Protocol.MaxSlots = "session", 5
			return sc
		}, `scenario: protocol.max_slots: not supported for session runs (sessions have no slot budget)`},
		{"session slot cap", func() *Scenario {
			sc := base()
			sc.Protocol.Name, sc.Limits.MaxSlots = "session", 7
			return sc
		}, `scenario: limits.max_slots: not supported for session runs (sessions have no slot budget)`},
		{"experiment slot cap", func() *Scenario {
			sc := &Scenario{Name: "t", Protocol: Protocol{Name: "experiment"}, Experiment: Experiment{ID: "E1"}}
			sc.Limits.MaxSlots = 3
			return sc
		}, `scenario: limits.max_slots: not supported for experiment runs (experiments set their own budgets)`},
		{"experiment slot budget", func() *Scenario {
			sc := &Scenario{Name: "t", Protocol: Protocol{Name: "experiment", MaxSlots: 3}, Experiment: Experiment{ID: "E1"}}
			return sc
		}, `scenario: protocol.max_slots: not supported for experiment runs (experiments set their own budgets)`},
		{"experiment section off-protocol", func() *Scenario {
			sc := base()
			sc.Experiment = Experiment{ID: "E1"}
			return sc
		}, `scenario: experiment: only valid with protocol.name "experiment", not "cogcast"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc().Validate()
			if err == nil {
				t.Fatal("Validate accepted the scenario")
			}
			if err.Error() != tc.want {
				t.Fatalf("error = %q, want %q", err, tc.want)
			}
		})
	}
}

// TestValidateAccepts exercises the feature-gated combinations that must
// pass: each base plus the events and assertions its features enable.
func TestValidateAccepts(t *testing.T) {
	cases := map[string]func() *Scenario{
		"base":     base,
		"jammed":   jammedBase,
		"recovery": recoveredBase,
		"jam switch schedule": func() *Scenario {
			sc := jammedBase()
			sc.Events = []Event{
				{Kind: EvJamSwitch, At: 2, Strategy: "block", Budget: 3},
				{Kind: EvJamSwitch, At: 5, Strategy: "none"},
			}
			return sc
		},
		"flip schedule": func() *Scenario {
			sc := base()
			sc.Events = []Event{{Kind: EvAssignmentFlip, At: 2}, {Kind: EvAssignmentFlip, At: 4}}
			return sc
		},
		"fault schedule with assertions": func() *Scenario {
			sc := recoveredBase()
			sc.Events = []Event{
				{Kind: EvRandomOutages, At: 0, Until: 100, Rate: 0.01, Duration: 10},
				{Kind: EvRandomOutages, At: 100, Until: 200, Rate: 0.02, Duration: 10},
				{Kind: EvBlackout, At: 50, Until: 90, Nodes: []int{3, 4}},
			}
			sc.Assertions = []Assertion{
				{Kind: AsExactCensus},
				{Kind: AsMaxRetries, Value: 5},
				{Kind: AsValueEquals, Value: 120},
			}
			return sc
		},
		"experiment": func() *Scenario {
			sc := &Scenario{Name: "t", Protocol: Protocol{Name: "experiment"}, Experiment: Experiment{ID: "E1", Quick: true}}
			sc.Normalize()
			return sc
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			if err := mk().Validate(); err != nil {
				t.Fatalf("Validate rejected a valid scenario: %v", err)
			}
		})
	}
}

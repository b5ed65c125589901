package crn_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	crn "github.com/cogradio/crn"
	"github.com/cogradio/crn/internal/scenario"
)

// The basic workflow: build a network, disseminate a message with COGCAST,
// aggregate data with COGCOMP, and compare against the naive rendezvous
// broadcast that never relays.
func Example() {
	// Each device's cognitive radio found 8 usable channels out of a band
	// of 24; the shared core guarantees any two devices share at least 2.
	net, err := crn.NewNetwork(crn.Spec{
		Nodes:           32,
		ChannelsPerNode: 8,
		MinOverlap:      2,
		TotalChannels:   24,
		Topology:        crn.SharedCore,
		Seed:            1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: n=%d, c=%d, overlap >= %d, C=%d\n",
		net.Nodes(), net.ChannelsPerNode(), net.MinOverlap(), net.TotalChannels())
	fmt.Println("theory: COGCAST slot bound (Theorem 4):", net.SlotBound(0))

	// Device 0 disseminates a message; everyone relays it epidemically on
	// uniformly random channels.
	b, err := net.Broadcast(crn.BroadcastOptions{
		Payload: "hello", Seed: 7, RunToCompletion: true,
		EngineOptions: crn.EngineOptions{MaxSlots: 10000},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("all informed:", b.AllInformed)
	fmt.Printf("broadcast: %d slots, tree height %d\n", b.Slots, b.TreeHeight)

	// Every device reports a datum; the source learns the sum without any
	// device shipping raw data further than its parent.
	inputs := make([]int64, net.Nodes())
	for i := range inputs {
		inputs[i] = int64(i)
	}
	a, err := net.Aggregate(inputs, crn.AggregateOptions{Func: "sum", Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sum:", a.Value)
	fmt.Printf("phases: tree build %d | census %d | rewind %d | convergecast %d\n",
		a.Phase1Slots, a.Phase2Slots, a.Phase3Slots, a.Phase4Slots)
	fmt.Println("largest message (words):", a.MaxMessageSize)

	slots, done, err := net.RendezvousBroadcast(0, "hello", 7, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendezvous baseline: %d slots (complete=%v), COGCAST speedup %.1fx\n",
		slots, done, float64(slots)/float64(b.Slots))
	// Output:
	// network: n=32, c=8, overlap >= 2, C=24
	// theory: COGCAST slot bound (Theorem 4): 80
	// all informed: true
	// broadcast: 7 slots, tree height 4
	// sum: 496
	// phases: tree build 80 | census 32 | rewind 80 | convergecast 28
	// largest message (words): 1
	// rendezvous baseline: 85 slots (complete=true), COGCAST speedup 12.1x
}

// One EngineOptions value configures how both protocols run: here the
// invariant oracle, sparse stepping and a wall-clock budget. A deadline is
// a context.WithTimeout context; a run that finishes within it is
// byte-identical to one without, and one that does not returns an
// *InterruptedError matching crn.ErrDeadlineExceeded.
func ExampleEngineOptions() {
	net, err := crn.NewNetwork(crn.Spec{
		Nodes: 64, ChannelsPerNode: 8, MinOverlap: 2,
		TotalChannels: 24, Topology: crn.SharedCore, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	eo := crn.EngineOptions{Check: true, Sparse: true, Context: ctx}

	b, err := net.Broadcast(crn.BroadcastOptions{Payload: "hi", Seed: 7, RunToCompletion: true, EngineOptions: eo})
	if err != nil {
		log.Fatal(err)
	}
	inputs := make([]int64, net.Nodes())
	for i := range inputs {
		inputs[i] = int64(i)
	}
	a, err := net.Aggregate(inputs, crn.AggregateOptions{Seed: 7, EngineOptions: eo})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broadcast: all informed %v after %d slots\n", b.AllInformed, b.Slots)
	fmt.Printf("aggregate: sum %v after %d slots\n", a.Value, a.Slots)
	// Output:
	// broadcast: all informed true after 5 slots
	// aggregate: sum 2016 after 296 slots
}

// Aggregation functions beyond sum: the stats aggregate carries
// count/sum/min/max (and mean) in one constant-size message, reported here
// over several rounds of sensor readings. Shipping every raw reading up the
// tree ("collect") costs the same slots but messages grow with n.
func ExampleNetwork_Aggregate() {
	net, err := crn.NewNetwork(crn.Spec{
		Nodes: 16, ChannelsPerNode: 4, MinOverlap: 2,
		TotalChannels: 12, Topology: crn.SharedCore, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	inputs := []int64{5, 9, 2, 8, 7, 1, 6, 4, 3, 9, 2, 8, 5, 7, 1, 6}
	res, err := net.Aggregate(inputs, crn.AggregateOptions{Func: "stats", Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	st := res.Value.(crn.Stats)
	fmt.Printf("count=%d min=%d max=%d\n", st.Count, st.Min, st.Max)

	// Temperature readings in tenths of a degree, one snapshot per round.
	r := rand.New(rand.NewSource(11))
	readings := make([]int64, net.Nodes())
	for round := 1; round <= 3; round++ {
		for i := range readings {
			readings[i] = 180 + r.Int63n(120)
		}
		res, err := net.Aggregate(readings, crn.AggregateOptions{Func: "stats", Seed: int64(1000 + round)})
		if err != nil {
			log.Fatal(err)
		}
		st := res.Value.(crn.Stats)
		fmt.Printf("round %d: mean %.1fC min %.1fC max %.1fC in %d slots (convergecast %d)\n",
			round, st.Mean/10, float64(st.Min)/10, float64(st.Max)/10, res.Slots, res.Phase4Slots)
	}

	assoc, err := net.Aggregate(readings, crn.AggregateOptions{Func: "stats", Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	collect, err := net.Aggregate(readings, crn.AggregateOptions{Func: "collect", Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("largest message: stats %d words, collect %d words (%d readings), slots %d vs %d\n",
		assoc.MaxMessageSize, collect.MaxMessageSize, len(collect.Value.([]crn.Reading)),
		assoc.Slots, collect.Slots)
	// Output:
	// count=16 min=1 max=9
	// round 1: mean 23.8C min 18.0C max 28.9C in 114 slots (convergecast 34)
	// round 2: mean 23.7C min 19.7C max 29.7C in 108 slots (convergecast 28)
	// round 3: mean 22.7C min 18.4C max 29.3C in 105 slots (convergecast 25)
	// largest message: stats 4 words, collect 12 words (16 readings), slots 111 vs 111
}

// Jamming resistance per Theorem 18: an n-uniform adversary jamming kJam
// channels per device per slot leaves pairwise overlap c−2·kJam, and
// COGCAST runs unmodified. The sweep pits it against every strategy at
// growing budgets; the cells are mean slots over three trials.
func ExampleNewJammedNetwork() {
	net, err := crn.NewJammedNetwork(24, 12, 3, "random", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("guaranteed overlap:", net.MinOverlap())
	res, err := net.Broadcast(crn.BroadcastOptions{
		Payload: "sos", Seed: 5, RunToCompletion: true,
		EngineOptions: crn.EngineOptions{MaxSlots: 100000},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("delivered despite jamming:", res.AllInformed)

	const devices, channels, trials = 24, 12, 3
	strategies := []string{"none", "sweep", "split", "random"}
	fmt.Println("budget overlap", strings.Join(strategies, " "))
	for _, budget := range []int{0, 2, 5} {
		row := fmt.Sprintf("%d %d", budget, channels-2*budget)
		for _, strategy := range strategies {
			b := budget
			if strategy == "none" {
				b = 0
			}
			total := 0
			for trial := 0; trial < trials; trial++ {
				net, err := crn.NewJammedNetwork(devices, channels, b, strategy, int64(trial))
				if err != nil {
					log.Fatal(err)
				}
				res, err := net.Broadcast(crn.BroadcastOptions{
					Payload: "sos", Seed: int64(1000 + trial), RunToCompletion: true,
					EngineOptions: crn.EngineOptions{MaxSlots: 100 * net.SlotBound(0)},
				})
				if err != nil {
					log.Fatal(err)
				}
				if !res.AllInformed {
					log.Fatalf("budget %d, %s: broadcast defeated", budget, strategy)
				}
				total += res.Slots
			}
			row += fmt.Sprintf(" %.1f", float64(total)/trials)
		}
		fmt.Println(row)
	}
	// Output:
	// guaranteed overlap: 6
	// delivered despite jamming: true
	// budget overlap none sweep split random
	// 0 12 5.0 5.0 5.0 5.0
	// 2 8 5.0 5.7 5.7 4.7
	// 5 2 5.0 4.0 5.7 5.0
}

// Multi-source gossip: several rumors ride the same epidemic.
func ExampleNetwork_Gossip() {
	net, err := crn.NewNetwork(crn.Spec{
		Nodes: 24, ChannelsPerNode: 6, MinOverlap: 2,
		TotalChannels: 18, Topology: crn.SharedCore, Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := net.Gossip([]crn.NodeID{0, 8, 16}, 6, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("everyone knows all rumors:", res.Complete)
	// Output:
	// everyone knows all rumors: true
}

// Consensus, the paper's motivation for aggregation: a coordinator learns
// the minimum proposal with COGCOMP and disseminates it with COGCAST, so
// every device decides the same value (agreement) and that value was
// proposed (validity).
func Example_consensus() {
	net, err := crn.NewNetwork(crn.Spec{
		Nodes: 24, ChannelsPerNode: 8, MinOverlap: 2,
		TotalChannels: 28, Topology: crn.SharedCore, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	proposals := make([]int64, net.Nodes())
	least := int64(10000)
	for i := range proposals {
		proposals[i] = 1000 + r.Int63n(9000)
		least = min(least, proposals[i])
	}

	agg, err := net.Aggregate(proposals, crn.AggregateOptions{Func: "min", Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	decision := agg.Value.(int64)
	bc, err := net.Broadcast(crn.BroadcastOptions{
		Payload: decision, Seed: 2, RunToCompletion: true,
		EngineOptions: crn.EngineOptions{MaxSlots: 20 * net.SlotBound(0)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decided %d in %d aggregation + %d broadcast slots\n", decision, agg.Slots, bc.Slots)
	fmt.Println("validity (decided the least proposal):", decision == least)
	fmt.Println("agreement (every device holds it):", bc.AllInformed)
	// Output:
	// decided 1411 in 212 aggregation + 9 broadcast slots
	// validity (decided the least proposal): true
	// agreement (every device holds it): true
}

// TV whitespace: primary users come and go, so every device's usable
// channel set is re-drawn each slot (the dynamic model). COGCAST's
// guarantee survives the churn, because its per-slot behaviour depends only
// on the current channel set; COGCOMP, which revisits phase-one channels,
// refuses a dynamic network.
func Example_whitespace() {
	spec := crn.Spec{
		Nodes: 40, ChannelsPerNode: 10, MinOverlap: 3,
		TotalChannels: 40, Topology: crn.SharedCore, Seed: 5,
	}
	static, err := crn.NewNetwork(spec)
	if err != nil {
		log.Fatal(err)
	}
	spec.Dynamic = true
	dynamic, err := crn.NewNetwork(spec)
	if err != nil {
		log.Fatal(err)
	}
	for epoch := 1; epoch <= 3; epoch++ {
		opts := crn.BroadcastOptions{
			Payload: "beacon", Seed: int64(100 + epoch), RunToCompletion: true,
			EngineOptions: crn.EngineOptions{MaxSlots: 20 * static.SlotBound(0)},
		}
		s, err := static.Broadcast(opts)
		if err != nil {
			log.Fatal(err)
		}
		d, err := dynamic.Broadcast(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: static %d slots (complete=%v), shifting %d slots (complete=%v)\n",
			epoch, s.Slots, s.AllInformed, d.Slots, d.AllInformed)
	}
	if _, err := dynamic.Aggregate(make([]int64, dynamic.Nodes()), crn.AggregateOptions{}); err != nil {
		fmt.Println("refused:", err)
	}

	// A physically motivated churn source: transmitters switching on and
	// off (a two-state Markov chain per channel), a reserved pilot band and
	// sensing errors.
	pu, err := crn.NewPrimaryUserNetwork(crn.PrimaryUserSpec{
		Nodes: 40, Channels: 40, Pilots: 3,
		PBusy: 0.08, PFree: 0.25, MissProb: 0.10, Seed: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := pu.Broadcast(crn.BroadcastOptions{
		Payload: "beacon", Seed: 300, RunToCompletion: true,
		CollectMetrics: true,
		EngineOptions:  crn.EngineOptions{MaxSlots: 100 * pu.SlotBound(0)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary users: %d slots (complete=%v), %.1f busy channels/slot, %.0f%% of listens delivered\n",
		res.Slots, res.AllInformed, res.Metrics.BusyChannelsPerSlot, 100*res.Metrics.DeliveryRate)
	// Output:
	// epoch 1: static 9 slots (complete=true), shifting 8 slots (complete=true)
	// epoch 2: static 7 slots (complete=true), shifting 6 slots (complete=true)
	// epoch 3: static 8 slots (complete=true), shifting 9 slots (complete=true)
	// refused: crn: Aggregate requires a static network (COGCOMP revisits phase-one channels)
	// primary users: 8 slots (complete=true), 10.0 busy channels/slot, 20% of listens delivered
}

// A run declared as data: the YAML document `cogsim run` takes is parsed,
// validated and executed in-process. This one is a recovered aggregation
// through a windowed outage storm, with postconditions demanding an exact
// census and the exact sum (SCENARIOS.md has the field reference).
func Example_scenario() {
	const doc = `
name: quickstart-outage
description: recovered COGCOMP through a windowed outage storm
seed: 1
topology:
  nodes: 48
  channels_per_node: 8
  min_overlap: 2
  generator: shared-core
protocol:
  name: cogcomp
  aggregate: sum
recovery:
  enabled: true
events:
  - kind: random-outages
    at: 100
    until: 300
    rate: 0.004
assertions:
  - kind: exact-census
  - kind: value-equals
    value: 1128
`
	sc, err := scenario.Parse([]byte(doc))
	if err != nil {
		log.Fatal(err)
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	// Run executes the protocol and then prints one verdict line per
	// assertion; a failed assertion returns an error.
	if err := sc.Run(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Emit renders the canonical form: every default materialized, fields
	// in schema order (cogsim validate -canonical prints the same).
	fmt.Print(string(sc.Emit()))
	// Output:
	// network: n=48 c=8 k=2 C=24 dynamic=false
	// theory:  COGCAST slot bound = 90
	// cogcomp: 381 slots (phases 90/48/188/55), sum = 1128, max message 1 words
	// recovery: contributors 48/48, retries 1, re-elections 0, restarts 36, degraded false, stalled false
	// assert exact-census: ok (contributors 48/48, degraded false, stalled false)
	// assert value-equals: ok (sum = 1128, want 1128)
	// name: quickstart-outage
	// description: recovered COGCOMP through a windowed outage storm
	// seed: 1
	// topology:
	//   nodes: 48
	//   channels_per_node: 8
	//   min_overlap: 2
	//   total_channels: 24
	//   generator: shared-core
	//   labels: local
	//   dynamic: false
	// protocol:
	//   name: cogcomp
	//   source: 0
	//   payload: INIT
	//   aggregate: sum
	//   rounds: 3
	//   rumors: 4
	//   max_slots: 0
	//   curve: false
	// engine:
	//   shards: 1
	//   sparse: false
	//   parallel: 0
	//   repeat: 1
	//   check: false
	// recovery:
	//   enabled: true
	//   outage_rate: 0.0
	//   outage_duration: 10
	//   max_retries: 0
	// events:
	//   - kind: random-outages
	//     at: 100
	//     until: 300
	//     rate: 0.004
	//     duration: 10
	// assertions:
	//   - kind: exact-census
	//   - kind: value-equals
	//     value: 1128
}

package crn_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	crn "github.com/cogradio/crn"
)

// TestNetworkDynamicEveryConstructor pins Dynamic() for every constructor:
// only a static Spec builds a network whose channel sets never change.
func TestNetworkDynamicEveryConstructor(t *testing.T) {
	spec := func(edit func(*crn.Spec)) func() (*crn.Network, error) {
		return func() (*crn.Network, error) {
			s := defaultSpec()
			edit(&s)
			return crn.NewNetwork(s)
		}
	}
	budget := crn.AdversaryBudget{PerSlot: 2, Total: 40}
	for _, tc := range []struct {
		name  string
		build func() (*crn.Network, error)
		want  bool
	}{
		{"NewNetwork static", spec(func(*crn.Spec) {}), false},
		{"Spec.Dynamic", spec(func(s *crn.Spec) { s.Dynamic = true }), true},
		{"Spec.FlipSlots", spec(func(s *crn.Spec) { s.FlipSlots = []int{5} }), true},
		{"NewJammedNetwork", func() (*crn.Network, error) { return crn.NewJammedNetwork(24, 12, 3, "sweep", 7) }, true},
		{"NewReactiveJammedNetwork control", func() (*crn.Network, error) {
			return crn.NewReactiveJammedNetwork(24, 12, "none", budget, 7)
		}, true},
		{"NewReactiveJammedNetwork active", func() (*crn.Network, error) {
			return crn.NewReactiveJammedNetwork(24, 12, "busiest", budget, 7)
		}, true},
		{"NewJammedNetworkPhases single", func() (*crn.Network, error) {
			return crn.NewJammedNetworkPhases(24, 12, []crn.JamPhase{{Strategy: "sweep", Budget: 3}}, 7)
		}, true},
		{"NewJammedNetworkPhases multi", func() (*crn.Network, error) {
			return crn.NewJammedNetworkPhases(24, 12, []crn.JamPhase{
				{Strategy: "sweep", Budget: 3}, {FromSlot: 10, Strategy: "random", Budget: 2},
			}, 7)
		}, true},
		{"NewPrimaryUserNetwork", func() (*crn.Network, error) {
			return crn.NewPrimaryUserNetwork(crn.PrimaryUserSpec{
				Nodes: 24, Channels: 20, Pilots: 2, PBusy: 0.1, PFree: 0.3, MissProb: 0.05, Seed: 9,
			})
		}, true},
	} {
		net, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := net.Dynamic(); got != tc.want {
			t.Errorf("%s: Dynamic() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStaticNetworkConcurrentRuns pins the Network contract's safe side:
// checked Broadcast and Aggregate runs sharing one fresh static network from
// several goroutines each return exactly what a later serial run returns.
func TestStaticNetworkConcurrentRuns(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	inputs := make([]int64, net.Nodes())
	for i := range inputs {
		inputs[i] = int64(i)
	}
	run := func(i int) (any, error) {
		seed := int64(i / 2)
		if i%2 == 0 {
			return net.Broadcast(crn.BroadcastOptions{Payload: "m", Seed: seed, RunToCompletion: true, EngineOptions: crn.EngineOptions{Check: true}})
		}
		return net.Aggregate(inputs, crn.AggregateOptions{Seed: seed, EngineOptions: crn.EngineOptions{Check: true}})
	}
	got := make([]any, 6)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := run(i)
			if err != nil {
				t.Error(err)
			}
			got[i] = res
		}(i)
	}
	wg.Wait()
	for i := range got {
		want, err := run(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("run %d: concurrent result differs from the serial one", i)
		}
	}
}

// FuzzNetworkSpec builds networks from small arbitrary Specs and runs them
// under the invariant oracle. Construction either fails or yields a network
// whose Dynamic() matches the Spec; every built network completes a checked
// Broadcast, and every static one a checked Aggregate or a w.h.p. miss
// (ErrIncomplete). The seed corpus lives in testdata/fuzz/FuzzNetworkSpec.
func FuzzNetworkSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, rawN, rawC, rawK, rawTotal, topology uint8, global, dynamic bool, flip int8, rawShards uint8, sparse bool, seed int64) {
		c := int(rawC) % 13
		spec := crn.Spec{
			Nodes:           int(rawN) % 49,
			ChannelsPerNode: c,
			MinOverlap:      int(rawK),
			TotalChannels:   int(rawTotal) % (4*c + 1),
			Topology:        crn.Topology(topology % 7),
			Dynamic:         dynamic,
			Seed:            seed,
		}
		if global {
			spec.Labels = crn.GlobalLabels
		}
		if flip != 0 {
			spec.FlipSlots = []int{int(flip)}
		}
		net, err := crn.NewNetwork(spec)
		if err != nil {
			return
		}
		if want := spec.Dynamic || len(spec.FlipSlots) > 0; net.Dynamic() != want {
			t.Fatalf("%+v: Dynamic() = %v, want %v", spec, net.Dynamic(), want)
		}
		shards := 1 + int(rawShards)%4
		if _, err := net.Broadcast(crn.BroadcastOptions{
			Payload: "m", Seed: seed,
			EngineOptions: crn.EngineOptions{MaxSlots: 500, Check: true, Shards: shards, Sparse: sparse},
		}); err != nil {
			t.Fatalf("%+v: Broadcast: %v", spec, err)
		}
		if net.Dynamic() {
			return
		}
		inputs := make([]int64, spec.Nodes)
		for i := range inputs {
			inputs[i] = int64(i)
		}
		_, err = net.Aggregate(inputs, crn.AggregateOptions{Seed: seed, EngineOptions: crn.EngineOptions{Check: true, Shards: shards, Sparse: sparse}})
		if err != nil && !errors.Is(err, crn.ErrIncomplete) {
			t.Fatalf("%+v: Aggregate: %v", spec, err)
		}
	})
}

// FuzzNetworkConstructors builds networks from bounded arbitrary parameters
// with every constructor FuzzNetworkSpec does not reach: jammed networks
// with one to three jammer phases, reactive jammed networks and
// primary-user networks, each running a checked Broadcast and a Gossip,
// plus a checked AggregateRounds session on a static Spec network. A
// constructor may reject its input, but nothing may panic and no built
// network may fail a run. A one-phase NewJammedNetworkPhases must also
// broadcast exactly like NewJammedNetwork with the same arguments. The seed
// corpus lives in testdata/fuzz/FuzzNetworkConstructors.
func FuzzNetworkConstructors(f *testing.F) {
	jammers := []string{"none", "random", "sweep", "block", "split", "bogus"}
	reactive := []string{"none", "busiest", "follower", "hunter", "crasher", "bogus"}
	funcs := []string{"sum", "count", "min", "max", "stats", "collect"}
	f.Fuzz(func(t *testing.T, kind, rawN, rawC, strategy, budget uint8, phases []byte, energy uint16, pilots, pBusy, pFree, miss, rawRounds uint8, sparse bool, seed int64) {
		n, c := int(rawN)%41, int(rawC)%17
		rounds := 1 + int(rawRounds)%3
		var (
			net *crn.Network
			err error
		)
		switch kind % 4 {
		case 0:
			jp := []crn.JamPhase{{Strategy: jammers[int(strategy)%len(jammers)], Budget: int(budget) % 9}}
			for i := 0; i+2 < len(phases) && len(jp) < 3; i += 3 {
				jp = append(jp, crn.JamPhase{
					FromSlot: jp[len(jp)-1].FromSlot + int(phases[i])%40,
					Strategy: jammers[int(phases[i+1])%len(jammers)],
					Budget:   int(phases[i+2]) % 9,
				})
			}
			net, err = crn.NewJammedNetworkPhases(n, c, jp, seed)
			if len(jp) == 1 {
				one, oneErr := crn.NewJammedNetwork(n, c, jp[0].Budget, jp[0].Strategy, seed)
				if (err == nil) != (oneErr == nil) {
					t.Fatalf("%+v: NewJammedNetworkPhases err %v, NewJammedNetwork err %v", jp, err, oneErr)
				}
				if err == nil {
					opts := crn.BroadcastOptions{Payload: "m", Seed: seed, EngineOptions: crn.EngineOptions{MaxSlots: 500}}
					a, aErr := net.Broadcast(opts)
					b, bErr := one.Broadcast(opts)
					if aErr != nil || bErr != nil || !reflect.DeepEqual(a, b) {
						t.Fatalf("%+v: one phase broadcasts %+v (%v), NewJammedNetwork %+v (%v)", jp, a, aErr, b, bErr)
					}
				}
			}
		case 1:
			net, err = crn.NewReactiveJammedNetwork(n, c, reactive[int(strategy)%len(reactive)],
				crn.AdversaryBudget{PerSlot: int(budget) % 5, Total: int(energy) % 500}, seed)
		case 2:
			net, err = crn.NewPrimaryUserNetwork(crn.PrimaryUserSpec{
				Nodes: n, Channels: c, Pilots: int(pilots) % 5,
				PBusy: float64(pBusy) / 250, PFree: float64(pFree) / 250, MissProb: float64(miss) / 250,
				Seed: seed,
			})
		default:
			net, err = crn.NewNetwork(crn.Spec{
				Nodes: n, ChannelsPerNode: c, MinOverlap: 1 + int(budget)%max(c, 1),
				Topology: crn.SharedCore, Seed: seed,
			})
			if err != nil {
				return
			}
			in := make([][]int64, rounds)
			for r := range in {
				in[r] = make([]int64, n)
				for i := range in[r] {
					in[r][i] = int64(r*100 + i)
				}
			}
			if _, err := net.AggregateRounds(in, crn.AggregateOptions{
				Func: funcs[int(strategy)%len(funcs)], Seed: seed,
				EngineOptions: crn.EngineOptions{Check: true, Sparse: sparse},
			}); err != nil {
				t.Fatalf("n=%d c=%d: AggregateRounds: %v", n, c, err)
			}
			return
		}
		if err != nil {
			return
		}
		if _, err := net.Broadcast(crn.BroadcastOptions{
			Payload: "m", Seed: seed,
			EngineOptions: crn.EngineOptions{MaxSlots: 500, Check: true, Sparse: sparse},
		}); err != nil {
			t.Fatalf("n=%d c=%d kind %d: Broadcast: %v", n, c, kind%4, err)
		}
		sources := make([]crn.NodeID, rounds)
		for i := range sources {
			sources[i] = crn.NodeID(i * n / rounds)
		}
		if _, err := net.Gossip(sources, seed, 500); err != nil {
			t.Fatalf("n=%d c=%d kind %d: Gossip: %v", n, c, kind%4, err)
		}
	})
}

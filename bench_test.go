// Benchmarks: one per reproduced experiment (E1-E29, matching DESIGN.md's
// index — run `go test -bench=. -benchmem`), plus micro-benchmarks of the
// substrates. Experiment benchmarks run the Quick configuration; use
// cmd/cogbench for the full sweeps and rendered tables.
package crn_test

import (
	"fmt"
	"testing"

	crn "github.com/cogradio/crn"
	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/backoff"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/exper"
	"github.com/cogradio/crn/internal/games"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/metrics"
	"github.com/cogradio/crn/internal/sim"
)

// benchExperiment runs one registered experiment in quick mode per
// iteration. The measured time is the full sweep including baselines.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exper.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(exper.Config{Seed: int64(i + 1), Trials: 3, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkE1CogcastScalingN(b *testing.B)         { benchExperiment(b, "E1") }
func BenchmarkE2CogcastScalingC(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3BroadcastVsRendezvous(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4CogcompScaling(b *testing.B)          { benchExperiment(b, "E4") }
func BenchmarkE5AggregationVsRendezvous(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6HittingGameLowerBound(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7ReductionPlayer(b *testing.B)         { benchExperiment(b, "E7") }
func BenchmarkE8GlobalLabelLB(b *testing.B)           { benchExperiment(b, "E8") }
func BenchmarkE9HoppingTogether(b *testing.B)         { benchExperiment(b, "E9") }
func BenchmarkE10DynamicChannels(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11JammingResistance(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12BackoffResolution(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13EpidemicStages(b *testing.B)         { benchExperiment(b, "E13") }
func BenchmarkE14MessageOverhead(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15AdversarialDynamic(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16CollisionModels(b *testing.B)        { benchExperiment(b, "E16") }
func BenchmarkE17KappaThreshold(b *testing.B)         { benchExperiment(b, "E17") }
func BenchmarkE18GossipExtension(b *testing.B)        { benchExperiment(b, "E18") }
func BenchmarkE19RendezvousBaseline(b *testing.B)     { benchExperiment(b, "E19") }
func BenchmarkE20FaultRobustness(b *testing.B)        { benchExperiment(b, "E20") }
func BenchmarkE21MediumUtilization(b *testing.B)      { benchExperiment(b, "E21") }
func BenchmarkE22PrimaryUserSpectrum(b *testing.B)    { benchExperiment(b, "E22") }
func BenchmarkE23AggregationLowerBound(b *testing.B)  { benchExperiment(b, "E23") }
func BenchmarkE24BackoffCost(b *testing.B)            { benchExperiment(b, "E24") }
func BenchmarkE25AggregationSessions(b *testing.B)    { benchExperiment(b, "E25") }
func BenchmarkE26CrashRestartRecovery(b *testing.B)   { benchExperiment(b, "E26") }
func BenchmarkE27RecoveryOverhead(b *testing.B)       { benchExperiment(b, "E27") }
func BenchmarkE28ScaleSweep(b *testing.B)             { benchExperiment(b, "E28") }
func BenchmarkE29EventDrivenScale(b *testing.B)       { benchExperiment(b, "E29") }
func BenchmarkE30AdversaryTournament(b *testing.B)    { benchExperiment(b, "E30") }

// --- Substrate micro-benchmarks ------------------------------------------------

// BenchmarkEngineSlot measures the cost of one simulated slot with 256
// COGCAST nodes in steady state (all informed, all broadcasting).
func BenchmarkEngineSlot(b *testing.B) {
	const n, c = 256, 16
	asn, err := assign.SharedCore(n, c, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	protos := informedNodes(asn)
	eng, err := sim.NewEngine(asn, protos, 1)
	if err != nil {
		b.Fatal(err)
	}
	timeInformedSlots(b, eng, asn, protos)
}

// BenchmarkEngineSlotLarge measures one steady-state slot at n=10⁵ — the
// scale regime E28 sweeps — serial and at several shard counts. On a
// multi-core machine the sharded variants should approach a per-core
// speedup of phase A (the protocol scan dominates at this size); on one
// core they pin that sharding costs nearly nothing.
func BenchmarkEngineSlotLarge(b *testing.B) {
	const n, c = 100_000, 16
	asn, err := assign.SharedCore(n, c, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchInformedSlots(b, asn, 1, 2, 4, 8)
}

// BenchmarkEngineSlotPartitioned measures one steady-state slot in the
// many-channel regime of broadcast-large and E28: the partitioned topology
// at n = 5·10⁴ (c = 16, k = 4, so C = 600004 and most channels are one
// node's own), serial and at two shards. Each slot's actions land on tens
// of thousands of distinct channels, so resolution cost per used channel,
// not per advertised one, is what this measures.
func BenchmarkEngineSlotPartitioned(b *testing.B) {
	const n, c, k = 50_000, 16, 4
	asn, err := assign.Partitioned(n, c, k, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchInformedSlots(b, asn, 1, 2)
}

// benchInformedSlots runs one sub-benchmark per shard count over one set
// of informed COGCAST nodes on asn (informedNodes), shared by every shard
// count and every -count run.
func benchInformedSlots(b *testing.B, asn *assign.Static, shardCounts ...int) {
	n := asn.Nodes()
	protos := informedNodes(asn)
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng, err := sim.NewEngine(asn, protos, 1, sim.WithShards(shards))
			if err != nil {
				b.Fatal(err)
			}
			timeInformedSlots(b, eng, asn, protos)
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodesteps/s")
		})
	}
}

// informedNodes builds one informed COGCAST node per node of asn.
func informedNodes(asn sim.Assignment) []sim.Protocol {
	protos := make([]sim.Protocol, asn.Nodes())
	for i := range protos {
		protos[i] = cogcast.New(sim.View(asn, sim.NodeID(i)), true, "m", 1)
	}
	return protos
}

// freshSlots is how many slots timeInformedSlots runs its nodes between
// reseeds. An informed COGCAST node on c = 16 channels draws exactly once
// per slot, and package rng's generator allocates its 4.9 KB state at
// draw 274 and reads it on every draw after; before that it holds 16 bytes
// and computes each value from the seed. broadcast-large's 96-slot runs
// and E28's COGCAST points (39–55 slots) stay below draw 274, so the
// engine benchmarks stay there too.
const freshSlots = 256

// timeInformedSlots times b.N slots of eng over protos (informedNodes on
// asn). It first warms eng's scratch, shard accumulators and goroutine
// bodies, and carries its tie-break generator past its seeding draws (one
// draw per contended channel; SharedCore's 48 channels pass draw 334 in 8
// slots). With the timer stopped, it reseeds the nodes before the first
// timed slot and every freshSlots slots after, so no timed window crosses
// a node's draw 274, and every shard count and -count run times the same
// draw path.
func timeInformedSlots(b *testing.B, eng *sim.Engine, asn sim.Assignment, protos []sim.Protocol) {
	for i := 0; i < 8; i++ {
		if err := eng.RunSlot(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%freshSlots == 0 {
			b.StopTimer()
			for id, p := range protos {
				p.(*cogcast.Node).Reinit(sim.View(asn, sim.NodeID(id)), true, "m", 1)
			}
			b.StartTimer()
		}
		if err := eng.RunSlot(); err != nil {
			b.Fatal(err)
		}
	}
}

// censusNode mimics COGCOMP's phase-2 access pattern, the workload whose
// dense scan is the Θ(n²) census wall: node i broadcasts in the slots where
// slot%n == i and sleeps through the other n−1, so exactly one node (plus
// the previous slot's broadcaster, stepping once more to re-park) is awake
// in any slot.
type censusNode struct {
	id, n int
}

func (cn *censusNode) Step(slot int) sim.Action {
	turn := slot % cn.n
	if turn == cn.id {
		return sim.Broadcast(0, cn.id)
	}
	return sim.Sleep((cn.id-turn+cn.n)%cn.n - 1)
}

func (cn *censusNode) Deliver(int, sim.Event) {}
func (cn *censusNode) Done() bool             { return false }

// censusListener is censusNode with listening waits: between its turns a
// node quiet-parks listening on its first channel (sim.ParkListenQuiet),
// as COGCOMP's census listeners do. Every broadcast reaches the nodes
// parked on the broadcaster's physical channel without re-waking them, and
// an observed slot reports them as ChannelOutcome.Parked.
type censusListener struct{ censusNode }

func (cl *censusListener) Step(slot int) sim.Action {
	turn := slot % cl.n
	if turn == cl.id {
		return sim.Broadcast(0, cl.id)
	}
	return sim.ParkListenQuiet(0, (cl.id-turn+cl.n)%cl.n-1)
}

// standPeriod is censusStander's period in slots.
const standPeriod = 16

// censusStander mimics COGCOMP's census contention: at the start of each
// standPeriod-slot period every node stands on its first local channel
// (sim.Stand), awaiting and carrying one wake key, until it wins, and
// quiet-parks after its win until the period ends. While a channel has
// standers one of them wins each slot, which arms the rest for the next,
// so the engine merges each channel's group into its broadcasters every
// slot without stepping it. The node implements sim.CatchUpper, so its
// stands and parks are served deaf.
type censusStander struct {
	msg    sim.Message // the node's id, boxed once
	won    int         // the last period the node won in
	caught int         // slots reported by CatchUp
}

func (cs *censusStander) Step(slot int) sim.Action {
	period := slot / standPeriod
	k := (period+1)*standPeriod - 1 - slot
	if cs.won == period {
		return sim.ParkListenQuiet(0, k)
	}
	return sim.Stand(0, cs.msg, 1, k).Keyed(1)
}

func (cs *censusStander) Deliver(slot int, ev sim.Event) {
	if ev.Kind == sim.EvSendSucceeded {
		cs.won = slot / standPeriod
	}
}

func (cs *censusStander) CatchUp(from, to int) { cs.caught += to - from }
func (cs *censusStander) Done() bool           { return false }

// BenchmarkEngineSlotSparse measures the event-driven engine on the
// dormancy-heavy workload it exists for: the census round-robin above, where
// dense stepping scans all n nodes every slot while sparse stepping pops a
// couple of wakes off the queue. The per-slot gap between the first two
// sub-benchmarks is the Θ(n) census factor itself. sparse-checked runs the
// listening round-robin (censusListener) under the invariant oracle, which
// checks each park once, when it starts. sparse-stand runs the contention
// workload (censusStander), whose standing broadcasters the engine merges
// into their channels instead of stepping them. All are warm, and the
// sparse variants must stay alloc-free (pinned by
// TestRunSlotSparseAllocFree).
func BenchmarkEngineSlotSparse(b *testing.B) {
	const n, c = 100_000, 16
	asn, err := assign.SharedCore(n, c, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"dense", "sparse", "sparse-checked", "sparse-stand"} {
		b.Run(mode, func(b *testing.B) {
			var opts []sim.Option
			if mode != "dense" {
				opts = append(opts, sim.WithSparse())
			}
			ck := new(invariant.Checker)
			if mode == "sparse-checked" {
				ck.Reset(asn, sim.UniformWinner)
				opts = append(opts, sim.WithObserver(ck))
			}
			protos := make([]sim.Protocol, n)
			for i := range protos {
				switch mode {
				case "sparse-checked":
					protos[i] = &censusListener{censusNode{id: i, n: n}}
				case "sparse-stand":
					protos[i] = &censusStander{msg: i, won: -1}
				default:
					protos[i] = &censusNode{id: i, n: n}
				}
			}
			eng, err := sim.NewEngine(asn, protos, 1, opts...)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4; i++ { // warm scratch and the wake-queue
				if err := eng.RunSlot(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.RunSlot(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "slots/s")
			if err := ck.Err(); err != nil {
				b.Fatalf("oracle violation: %v", err)
			}
		})
	}
}

// BenchmarkEngineSlotObserved is BenchmarkEngineSlot with a metrics
// collector attached: the observer path reuses the engine's outcome
// scratch, so the only extra cost should be the collector's own counters.
func BenchmarkEngineSlotObserved(b *testing.B) {
	const n, c = 256, 16
	asn, err := assign.SharedCore(n, c, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	protos := informedNodes(asn)
	eng, err := sim.NewEngine(asn, protos, 1, sim.WithObserver(&metrics.Collector{}))
	if err != nil {
		b.Fatal(err)
	}
	timeInformedSlots(b, eng, asn, protos)
}

// BenchmarkEngineSlotAllDelivered measures the same steady-state slot under
// the footnote-3 all-delivered collision model (every listener hears a
// uniformly chosen message instead of one winner per channel).
func BenchmarkEngineSlotAllDelivered(b *testing.B) {
	const n, c = 256, 16
	asn, err := assign.SharedCore(n, c, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	protos := informedNodes(asn)
	eng, err := sim.NewEngine(asn, protos, 1, sim.WithCollisionModel(sim.AllDelivered))
	if err != nil {
		b.Fatal(err)
	}
	timeInformedSlots(b, eng, asn, protos)
}

// BenchmarkCogcastComplete measures a full broadcast to completion at
// several network sizes.
func BenchmarkCogcastComplete(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			asn, err := assign.SharedCore(n, 16, 4, 48, assign.LocalLabels, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var slots int
			for i := 0; i < b.N; i++ {
				res, err := cogcast.Run(asn, 0, "m", int64(i), cogcast.RunConfig{
					UntilAllInformed: true,
					MaxSlots:         64 * cogcast.SlotBound(n, 16, 4, cogcast.DefaultKappa),
				})
				if err != nil {
					b.Fatal(err)
				}
				slots += res.Slots
			}
			b.ReportMetric(float64(slots)/float64(b.N), "slots/op")
		})
	}
}

// BenchmarkCogcompComplete measures a full aggregation to completion.
func BenchmarkCogcompComplete(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			asn, err := assign.SharedCore(n, 8, 2, 24, assign.LocalLabels, 1)
			if err != nil {
				b.Fatal(err)
			}
			inputs := make([]int64, n)
			for i := range inputs {
				inputs[i] = int64(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var slots int
			for i := 0; i < b.N; i++ {
				res, err := cogcomp.Run(asn, 0, inputs, int64(i), cogcomp.Config{Func: aggfunc.Sum{}})
				if err != nil {
					b.Fatal(err)
				}
				slots += res.TotalSlots
			}
			b.ReportMetric(float64(slots)/float64(b.N), "slots/op")
		})
	}
}

// BenchmarkBackoffResolve measures one abstracted collision resolution at
// the micro-slot level.
func BenchmarkBackoffResolve(b *testing.B) {
	for _, m := range []int{2, 64, 1024} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			var micro int
			for i := 0; i < b.N; i++ {
				res, err := backoff.Resolve(m, 1024, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				micro += res.MicroSlots
			}
			b.ReportMetric(float64(micro)/float64(b.N), "microslots/op")
		})
	}
}

// BenchmarkHittingGame measures reference-player games.
func BenchmarkHittingGame(b *testing.B) {
	const c, k = 32, 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := games.NewGame(c, k, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		g.Play(games.NewNonRepeatingPlayer(c, int64(i)), c*c)
	}
}

// BenchmarkPublicAPIBroadcast measures the facade end to end.
func BenchmarkPublicAPIBroadcast(b *testing.B) {
	net, err := crn.NewNetwork(crn.Spec{
		Nodes: 128, ChannelsPerNode: 8, MinOverlap: 2,
		TotalChannels: 24, Topology: crn.SharedCore, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := net.Broadcast(crn.BroadcastOptions{
			Payload: "m", Seed: int64(i), RunToCompletion: true,
			EngineOptions: crn.EngineOptions{MaxSlots: 10 * net.SlotBound(0)},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllInformed {
			b.Fatal("incomplete")
		}
	}
}

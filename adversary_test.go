package crn_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	crn "github.com/cogradio/crn"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/trace"
)

// reactiveNet builds the standard reactive-jammer fixture for these tests.
func reactiveNet(t *testing.T, strategy string, budget crn.AdversaryBudget) *crn.Network {
	t.Helper()
	net, err := crn.NewReactiveJammedNetwork(24, 12, strategy, budget, 7)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestReactiveJammedNetworkStrategies(t *testing.T) {
	for _, strategy := range []string{"busiest", "follower", "hunter"} {
		t.Run(strategy, func(t *testing.T) {
			budget := crn.AdversaryBudget{PerSlot: 3, Total: 90}
			net := reactiveNet(t, strategy, budget)
			if net.MinOverlap() != 12-2*3 {
				t.Errorf("overlap = %d, want c-2*PerSlot = 6", net.MinOverlap())
			}
			res, err := net.Broadcast(crn.BroadcastOptions{Payload: "m", Seed: 8, RunToCompletion: true, EngineOptions: crn.EngineOptions{MaxSlots: 50000, Check: true}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Error("broadcast incomplete under the energy-bounded jammer")
			}
			adv := res.Adversary
			if adv == nil {
				t.Fatal("active reactive run reported no adversary ledger")
			}
			if adv.Strategy != strategy || adv.PerSlot != 3 || adv.Total != 90 {
				t.Errorf("ledger echo = %+v", adv)
			}
			if adv.Spent < 0 || adv.Spent > adv.Total {
				t.Errorf("spent %d outside [0, %d]", adv.Spent, adv.Total)
			}
			// The hunter waits for a winner streak, which a short epidemic
			// may never produce; the unconditional jammers must spend.
			if strategy != "hunter" && adv.Spent == 0 {
				t.Errorf("%s spent no energy on a busy epidemic", strategy)
			}
			if adv.CrashSpent != 0 {
				t.Errorf("jam-only run charged %d crash energy", adv.CrashSpent)
			}
			if adv.Spent != adv.JamSpent+adv.CrashSpent {
				t.Errorf("spend split %d+%d != %d", adv.JamSpent, adv.CrashSpent, adv.Spent)
			}
		})
	}
	if _, err := crn.NewReactiveJammedNetwork(24, 12, "crasher", crn.AdversaryBudget{PerSlot: 3, Total: 90}, 7); err == nil {
		t.Error("crash-only strategy accepted as a jammer")
	}
	if _, err := crn.NewReactiveJammedNetwork(24, 12, "nuke", crn.AdversaryBudget{PerSlot: 3, Total: 90}, 7); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := crn.NewReactiveJammedNetwork(24, 12, "busiest", crn.AdversaryBudget{PerSlot: 6, Total: 90}, 7); err == nil {
		t.Error("PerSlot >= channels/2 accepted (overlap guarantee would vanish)")
	}
}

// TestReactiveZeroEnergyControl pins the ledger edge case at the facade:
// a zero reserve or the no-op strategy must build the plain no-jammer
// control network — byte-for-byte, traces included.
func TestReactiveZeroEnergyControl(t *testing.T) {
	control, err := crn.NewJammedNetwork(24, 12, 0, "none", 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(net *crn.Network) (*crn.BroadcastResult, string) {
		var buf bytes.Buffer
		res, err := net.Broadcast(crn.BroadcastOptions{Payload: "m", Seed: 8, RunToCompletion: true, EngineOptions: crn.EngineOptions{MaxSlots: 50000, Trace: &buf}})
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	wantRes, wantTrace := run(control)
	for name, net := range map[string]*crn.Network{
		"zero-energy": reactiveNet(t, "busiest", crn.AdversaryBudget{PerSlot: 3, Total: 0}),
		"noop":        reactiveNet(t, "none", crn.AdversaryBudget{PerSlot: 3, Total: 90}),
	} {
		res, tr := run(net)
		if res.Adversary != nil {
			t.Errorf("%s: inert adversary reported a ledger: %+v", name, res.Adversary)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("%s: result diverges from the no-jammer control:\n got %+v\nwant %+v", name, res, wantRes)
		}
		if tr != wantTrace {
			t.Errorf("%s: trace bytes diverge from the no-jammer control", name)
		}
	}
}

// TestReactiveBroadcastShardSparseIdentity pins byte-identity across the
// engine configuration matrix: a reactive jammed run produces identical
// results and identical JSONL traces (adversary ledger events included) at
// every Shards setting, and Sparse silently steps densely (the jammed
// assignment is slot-varying, which gates event-driven stepping off).
func TestReactiveBroadcastShardSparseIdentity(t *testing.T) {
	budget := crn.AdversaryBudget{PerSlot: 3, Total: 120}
	run := func(shards int, sparse bool) (*crn.BroadcastResult, string) {
		net := reactiveNet(t, "busiest", budget)
		var buf bytes.Buffer
		res, err := net.Broadcast(crn.BroadcastOptions{
			Payload: "m", Seed: 8, RunToCompletion: true,
			EngineOptions: crn.EngineOptions{MaxSlots: 50000, Shards: shards, Sparse: sparse, Trace: &buf},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	wantRes, wantTrace := run(1, false)
	if !strings.Contains(wantTrace, `"k":"adv"`) {
		t.Fatalf("trace carries no adversary ledger events:\n%s", wantTrace)
	}
	for _, v := range []struct {
		shards int
		sparse bool
	}{{2, false}, {4, false}, {1, true}, {4, true}} {
		res, tr := run(v.shards, v.sparse)
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("shards=%d sparse=%v: result diverges", v.shards, v.sparse)
		}
		if tr != wantTrace {
			t.Errorf("shards=%d sparse=%v: trace bytes diverge", v.shards, v.sparse)
		}
	}
}

// TestReactiveExhaustionLedger drives the budget to exhaustion through the
// public API: a small reserve is spent down, the exhaustion slot is
// reported, and a per-slot cap above the whole reserve burns out in slot 0.
func TestReactiveExhaustionLedger(t *testing.T) {
	net := reactiveNet(t, "busiest", crn.AdversaryBudget{PerSlot: 3, Total: 7})
	res, err := net.Broadcast(crn.BroadcastOptions{Payload: "m", Seed: 8, RunToCompletion: true, EngineOptions: crn.EngineOptions{MaxSlots: 50000}})
	if err != nil {
		t.Fatal(err)
	}
	adv := res.Adversary
	if adv == nil {
		t.Fatal("no ledger")
	}
	if adv.ExhaustedAt < 0 {
		t.Errorf("reserve of 7 under a 3/slot burn never exhausted: %+v", adv)
	}
	if adv.Spent > adv.Total {
		t.Errorf("overspent: %+v", adv)
	}

	// Per-slot cap above the total reserve: the cap never binds, the
	// reserve does — the whole budget burns as soon as the strategy sees
	// enough traffic to spend it, and the ledger never overshoots.
	net = reactiveNet(t, "busiest", crn.AdversaryBudget{PerSlot: 5, Total: 3})
	res, err = net.Broadcast(crn.BroadcastOptions{Payload: "m", Seed: 8, RunToCompletion: true, EngineOptions: crn.EngineOptions{MaxSlots: 50000}})
	if err != nil {
		t.Fatal(err)
	}
	adv = res.Adversary
	if adv == nil {
		t.Fatal("no ledger")
	}
	if adv.Spent != 3 || adv.ExhaustedAt < 0 {
		t.Errorf("cap-above-reserve run: spent %d exhausted at %d, want the full reserve of 3 spent", adv.Spent, adv.ExhaustedAt)
	}
}

// TestAdversaryTraceLedgerInvariant replays real traced runs — a reactive
// jammed broadcast and a recovered aggregate under the phase-boundary
// crasher — through the invariant oracle, which re-derives the energy
// ledger from the adv event chain and cross-checks every other stream
// invariant along the way.
func TestAdversaryTraceLedgerInvariant(t *testing.T) {
	var traces []bytes.Buffer
	traces = make([]bytes.Buffer, 2)

	net := reactiveNet(t, "follower", crn.AdversaryBudget{PerSlot: 3, Total: 80})
	if _, err := net.Broadcast(crn.BroadcastOptions{Payload: "m", Seed: 8, RunToCompletion: true, EngineOptions: crn.EngineOptions{MaxSlots: 50000, Trace: &traces[0]}}); err != nil {
		t.Fatal(err)
	}

	static := mustNetwork(t, defaultSpec())
	inputs := make([]int64, static.Nodes())
	for i := range inputs {
		inputs[i] = int64(i + 1)
	}
	if _, err := static.Aggregate(inputs, crn.AggregateOptions{
		Seed: 5, Recover: true, Adversary: "crasher", AdversaryEnergy: 60,
		EngineOptions: crn.EngineOptions{Trace: &traces[1]},
	}); err != nil {
		t.Fatal(err)
	}

	for i := range traces {
		_, events, err := trace.ReadAll(&traces[i])
		if err != nil {
			t.Fatal(err)
		}
		oracle := invariant.NewStream(nil)
		advEvents := 0
		for _, ev := range events {
			if ev.Kind == trace.KindAdv {
				advEvents++
			}
			oracle.Emit(ev)
		}
		if advEvents == 0 {
			t.Errorf("trace %d: no adversary ledger events", i)
		}
		if err := oracle.Err(); err != nil || oracle.Violations() != 0 {
			t.Errorf("trace %d: oracle found %d violations: %v", i, oracle.Violations(), err)
		}
	}
}

// TestAdversaryAggregateRecovered runs the crash-capable strategies through
// the public recovered-aggregate path and pins shard-identity for the
// whole result, ledger included.
func TestAdversaryAggregateRecovered(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	inputs := make([]int64, net.Nodes())
	var want int64
	for i := range inputs {
		inputs[i] = int64(i + 1)
		want += inputs[i]
	}
	for _, strategy := range []string{"hunter", "crasher", "oblivious"} {
		t.Run(strategy, func(t *testing.T) {
			run := func(shards int) *crn.AggregateResult {
				res, err := net.Aggregate(inputs, crn.AggregateOptions{
					Seed: 5, Recover: true,
					Adversary: strategy, AdversaryEnergy: 60, AdversaryPerSlot: 2,
					EngineOptions: crn.EngineOptions{Check: true, Shards: shards},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(1)
			adv := ref.Adversary
			if adv == nil {
				t.Fatal("no ledger")
			}
			if adv.Strategy != strategy || adv.PerSlot != 2 || adv.Total != 60 {
				t.Errorf("ledger echo = %+v", adv)
			}
			if adv.Spent > adv.Total || adv.JamSpent != 0 {
				t.Errorf("crash-only run ledger: %+v", adv)
			}
			if !ref.Degraded {
				if v, ok := ref.Value.(int64); !ok || v != want {
					t.Errorf("undegraded run computed %v, want %d", ref.Value, want)
				}
			}
			for _, shards := range []int{2, 4} {
				if got := run(shards); !reflect.DeepEqual(got, ref) {
					t.Errorf("shards=%d: result diverges:\n got %+v\nwant %+v", shards, got, ref)
				}
			}
		})
	}
}

// TestAdversaryAggregateZeroEnergy pins the ledger edge case on the
// aggregate path: a zero reserve leaves the driver unwired, so the run is
// the recovered control run exactly — only the (all-zero) ledger differs.
func TestAdversaryAggregateZeroEnergy(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	inputs := make([]int64, net.Nodes())
	for i := range inputs {
		inputs[i] = int64(i + 1)
	}
	run := func(opts crn.AggregateOptions) (*crn.AggregateResult, string) {
		var buf bytes.Buffer
		opts.Trace = &buf
		res, err := net.Aggregate(inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	wantRes, wantTrace := run(crn.AggregateOptions{Seed: 5, Recover: true})
	res, tr := run(crn.AggregateOptions{Seed: 5, Recover: true, Adversary: "crasher", AdversaryEnergy: 0})
	if tr != wantTrace {
		t.Error("zero-energy trace bytes diverge from the recovered control")
	}
	adv := res.Adversary
	if adv == nil || adv.Spent != 0 || adv.ExhaustedAt != -1 {
		t.Errorf("zero-energy ledger = %+v, want all-zero spend", adv)
	}
	res.Adversary = nil
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("zero-energy result diverges from the recovered control:\n got %+v\nwant %+v", res, wantRes)
	}
}

func TestAdversaryAggregateValidation(t *testing.T) {
	net := mustNetwork(t, defaultSpec())
	inputs := make([]int64, net.Nodes())
	cases := map[string]crn.AggregateOptions{
		"needs-recover":  {Seed: 1, Adversary: "crasher", AdversaryEnergy: 10},
		"jam-only":       {Seed: 1, Recover: true, Adversary: "busiest", AdversaryEnergy: 10},
		"unknown":        {Seed: 1, Recover: true, Adversary: "nuke", AdversaryEnergy: 10},
		"negative-slots": {Seed: 1, Recover: true, Adversary: "crasher", AdversaryEnergy: 10, AdversaryPerSlot: -1},
	}
	for name, opts := range cases {
		if _, err := net.Aggregate(inputs, opts); err == nil {
			t.Errorf("%s: accepted %+v", name, opts)
		}
	}
}

// The resilience property suite: infrastructure faults injected into real
// protocol runs, with four standing assertions — no goroutine leaks, no
// torn trace output, byte-identical results for runs that complete, and
// deterministic cancellation errors.
package chaos_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	crn "github.com/cogradio/crn"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/chaos"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/parallel"
	"github.com/cogradio/crn/internal/scenario"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// TestMain gates the whole package on goroutine hygiene: any test that
// abandons a worker fails the run even if its own assertions passed.
func TestMain(m *testing.M) {
	os.Exit(chaos.VerifyNoLeaks(m))
}

func newNet(t *testing.T, seed int64) *crn.Network {
	t.Helper()
	net, err := crn.NewNetwork(crn.Spec{
		Nodes: 64, ChannelsPerNode: 8, MinOverlap: 2,
		TotalChannels: 24, Topology: crn.SharedCore, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestEngineCancelDeterministic pins the cancellation error as a pure
// function of the cancellation slot: the same slot-exact fake context
// yields the identical error string on every repetition and at every
// shard count.
func TestEngineCancelDeterministic(t *testing.T) {
	defer chaos.LeakCheck(t)()
	b := assign.Builder{}
	asn, err := b.Partitioned(48, 6, 2, assign.LocalLabels, 7)
	if err != nil {
		t.Fatal(err)
	}
	const want = "sim: run canceled after 5 slots"
	for _, shards := range []int{1, 4} {
		for rep := 0; rep < 3; rep++ {
			_, err := cogcast.Run(asn, 0, "m", 7, cogcast.RunConfig{
				UntilAllInformed: true, MaxSlots: 1 << 20,
				Shards: shards, Context: chaos.CancelAfterChecks(5),
			})
			if err == nil || err.Error() != want {
				t.Fatalf("shards=%d rep=%d: error %v, want %q", shards, rep, err, want)
			}
			var it *sim.Interrupted
			if !errors.As(err, &it) || it.Slots != 5 {
				t.Fatalf("shards=%d: not an Interrupted with Slots=5: %#v", shards, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("shards=%d: errors.Is(err, context.Canceled) = false", shards)
			}
		}
	}
}

// TestBroadcastByteIdenticalWithContext asserts the acceptance criterion
// head-on: attaching a context (that never fires) changes nothing about a
// completing run — results and trace bytes are identical to the
// context-free run at every shards/sparse setting.
func TestBroadcastByteIdenticalWithContext(t *testing.T) {
	defer chaos.LeakCheck(t)()
	run := func(ctx context.Context, shards int, sparse bool) (*crn.BroadcastResult, []byte) {
		var buf bytes.Buffer
		res, err := newNet(t, 3).Broadcast(crn.BroadcastOptions{
			Payload: "hello", Seed: 3, RunToCompletion: true,
			EngineOptions: crn.EngineOptions{MaxSlots: 1 << 20, Shards: shards, Sparse: sparse, Trace: &buf, Context: ctx},
		})
		if err != nil {
			t.Fatalf("shards=%d sparse=%v ctx=%v: %v", shards, sparse, ctx, err)
		}
		return res, buf.Bytes()
	}
	for _, shards := range []int{1, 3} {
		for _, sparse := range []bool{false, true} {
			base, baseTrace := run(nil, shards, sparse)
			for name, ctx := range map[string]context.Context{
				"background":  context.Background(),
				"never-fires": chaos.CancelAfterChecks(1 << 30),
			} {
				res, tr := run(ctx, shards, sparse)
				if !reflect.DeepEqual(res, base) {
					t.Errorf("shards=%d sparse=%v ctx=%s: result differs from context-free run", shards, sparse, name)
				}
				if !bytes.Equal(tr, baseTrace) {
					t.Errorf("shards=%d sparse=%v ctx=%s: trace bytes differ from context-free run", shards, sparse, name)
				}
			}
		}
	}
}

// TestScenarioRepeatByteIdentical drives the same property through the
// scenario layer's repeated-run path: rendered output is identical with
// and without a context at every parallel/shards/sparse combination.
func TestScenarioRepeatByteIdentical(t *testing.T) {
	defer chaos.LeakCheck(t)()
	render := func(ctx context.Context, workers, shards int, sparse bool) string {
		sc := &scenario.Scenario{
			Name: "chaos", Seed: 11,
			Topology: scenario.Topology{Nodes: 32, ChannelsPerNode: 6, MinOverlap: 2,
				TotalChannels: 18, Generator: "shared-core", Labels: "local"},
			Protocol: scenario.Protocol{Name: "cogcast", Payload: "INIT", Aggregate: "sum",
				Rounds: 3, Rumors: 4},
			Engine: scenario.Engine{Shards: shards, Sparse: sparse, Parallel: workers, Repeat: 5},
		}
		var buf bytes.Buffer
		var err error
		if ctx == nil {
			_, err = sc.Execute(&buf)
		} else {
			_, err = sc.ExecuteContext(ctx, &buf)
		}
		if err != nil {
			t.Fatalf("workers=%d shards=%d sparse=%v: %v", workers, shards, sparse, err)
		}
		return buf.String()
	}
	base := render(nil, 1, 1, false)
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2} {
			for _, sparse := range []bool{false, true} {
				for name, ctx := range map[string]context.Context{
					"none":        nil,
					"background":  context.Background(),
					"never-fires": chaos.CancelAfterChecks(1 << 30),
				} {
					if got := render(ctx, workers, shards, sparse); got != base {
						t.Errorf("workers=%d shards=%d sparse=%v ctx=%s: output differs\n--- base\n%s--- got\n%s",
							workers, shards, sparse, name, base, got)
					}
				}
			}
		}
	}
}

// TestCancelTraceGraceful cancels a traced run mid-flight on every run
// path (Broadcast, classic Aggregate, recovered Aggregate) and asserts the
// whole graceful-interrupt contract: the typed error with slot-exact
// partial progress, both sentinel matches, and a trace file that is
// complete (end-of-stream marker present) and self-describes the
// interrupt with a cancel event. Both aggregation runners wrap the
// engine's interrupt with their own slot accounting, so each row states
// its text.
func TestCancelTraceGraceful(t *testing.T) {
	defer chaos.LeakCheck(t)()
	inputs := make([]int64, 64)
	for _, tc := range []struct {
		name    string
		run     func(crn.EngineOptions) error
		wantErr string
	}{
		{"broadcast", func(eo crn.EngineOptions) error {
			eo.MaxSlots = 1 << 20
			_, err := newNet(t, 5).Broadcast(crn.BroadcastOptions{Payload: "x", Seed: 5, RunToCompletion: true, EngineOptions: eo})
			return err
		}, "sim: run canceled after 4 slots"},
		{"aggregate", func(eo crn.EngineOptions) error {
			_, err := newNet(t, 5).Aggregate(inputs, crn.AggregateOptions{Seed: 5, EngineOptions: eo})
			return err
		}, "cogcomp: sim: run canceled after 4 slots (l=96 n=64)"},
		{"aggregate-recovered", func(eo crn.EngineOptions) error {
			_, err := newNet(t, 5).Aggregate(inputs, crn.AggregateOptions{Seed: 5, Recover: true, EngineOptions: eo})
			return err
		}, "recover: sim: run canceled after 4 slots (l=96 n=64)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := tc.run(crn.EngineOptions{Trace: &buf, Context: chaos.CancelAfterChecks(4)})
			var ie *crn.InterruptedError
			if !errors.As(err, &ie) {
				t.Fatalf("error %v (%T), want *crn.InterruptedError", err, err)
			}
			if ie.Slots != 4 || ie.Deadline {
				t.Fatalf("InterruptedError = %+v, want Slots=4 Deadline=false", ie)
			}
			if !errors.Is(err, crn.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("sentinel mismatch: %v", err)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("error text %q, want %q", err.Error(), tc.wantErr)
			}
			s, serr := trace.Summarize(bytes.NewReader(buf.Bytes()))
			if serr != nil {
				t.Fatal(serr)
			}
			if !s.Complete {
				t.Fatal("interrupted trace is missing its end-of-stream marker")
			}
			if s.Cancel == nil || s.Cancel.Slot != 4 || s.Cancel.A != 0 {
				t.Fatalf("cancel event = %+v, want slot 4, deadline 0", s.Cancel)
			}
		})
	}
}

// TestDeadlineErrors exercises both deadline paths: an already-expired
// context deadline trips deterministically before slot zero (for a
// broadcast and for an aggregation session), and a context.WithTimeout
// budget produces the deadline sentinel.
func TestDeadlineErrors(t *testing.T) {
	defer chaos.LeakCheck(t)()
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := newNet(t, 9).Broadcast(crn.BroadcastOptions{
		Payload: "x", Seed: 9, RunToCompletion: true,
		EngineOptions: crn.EngineOptions{MaxSlots: 1 << 20, Context: expired},
	})
	if want := "sim: deadline exceeded after 0 slots"; err == nil || err.Error() != want {
		t.Fatalf("expired-context error %v, want %q", err, want)
	}
	if !errors.Is(err, crn.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sentinel mismatch: %v", err)
	}
	var ie *crn.InterruptedError
	if !errors.As(err, &ie) || !ie.Deadline || ie.Slots != 0 {
		t.Fatalf("InterruptedError = %+v, want Deadline=true Slots=0", ie)
	}

	// A session run honours the same context before its first slot.
	_, err = newNet(t, 9).AggregateRounds([][]int64{make([]int64, 64)}, crn.AggregateOptions{Seed: 9, EngineOptions: crn.EngineOptions{Context: expired}})
	if want := "sim: deadline exceeded after 0 slots"; err == nil || err.Error() != want {
		t.Fatalf("expired-context AggregateRounds error %v, want %q", err, want)
	}
	if !errors.Is(err, crn.ErrDeadlineExceeded) {
		t.Fatalf("AggregateRounds sentinel mismatch: %v", err)
	}

	// A timeout: a 1ns budget cannot survive a 4096-node aggregation; the
	// exact interrupt slot is wall-clock dependent, but the typed error is
	// not.
	inputs := make([]int64, 4096)
	big, err := crn.NewNetwork(crn.Spec{
		Nodes: 4096, ChannelsPerNode: 8, MinOverlap: 2,
		TotalChannels: 24, Topology: crn.SharedCore, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	timeout, cancelTimeout := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelTimeout()
	_, err = big.Aggregate(inputs, crn.AggregateOptions{Seed: 1, EngineOptions: crn.EngineOptions{Context: timeout}})
	if !errors.Is(err, crn.ErrDeadlineExceeded) {
		t.Fatalf("timeout error %v, want ErrDeadlineExceeded", err)
	}
}

// TestPanicQuarantineDeterministic injects panicking trial closures and
// asserts the pool's report is identical at every worker count: lowest
// panicking index wins, its stack is attached, and every healthy trial
// still delivered its result.
func TestPanicQuarantineDeterministic(t *testing.T) {
	defer chaos.LeakCheck(t)()
	for _, workers := range []int{1, 2, 8} {
		out, err := parallel.Map(context.Background(), 40, workers, func(i int) (int, error) {
			if i == 17 || i == 5 {
				panic(fmt.Sprintf("injected chaos at trial %d", i))
			}
			return i * 3, nil
		})
		var pe *parallel.TrialPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v (%T), want *TrialPanicError", workers, err, err)
		}
		if pe.Trial != 5 || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: Trial=%d stack=%dB, want lowest index 5 with a stack", workers, pe.Trial, len(pe.Stack))
		}
		if !strings.Contains(err.Error(), "trial 5 panicked") || !strings.Contains(err.Error(), "injected chaos at trial 5") {
			t.Fatalf("workers=%d: error text %q lacks index and payload", workers, err.Error())
		}
		for _, i := range []int{0, 4, 6, 16, 18, 39} {
			if out[i] != i*3 {
				t.Fatalf("workers=%d: healthy trial %d lost its result (%d)", workers, i, out[i])
			}
		}
		if out[5] != 0 || out[17] != 0 {
			t.Fatalf("workers=%d: panicked trials hold non-zero results", workers)
		}
	}
}

// TestMidRunCancelDrains cancels a pool mid-run and asserts the workers
// drain without leaking and the error accounts for the finished trials.
func TestMidRunCancelDrains(t *testing.T) {
	defer chaos.LeakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var startOnce sync.Once
	go func() { <-started; cancel() }()
	out, err := parallel.Map(ctx, 64, 8, func(i int) (int, error) {
		startOnce.Do(func() { close(started) })
		time.Sleep(time.Millisecond)
		return i + 1, nil
	})
	if err != nil {
		var ce *parallel.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v (%T), want *CanceledError", err, err)
		}
		if ce.Total != 64 || ce.Finished < 0 || ce.Finished >= 64 {
			t.Fatalf("CanceledError = %+v, want Total=64, 0<=Finished<64", ce)
		}
		finished := 0
		for _, v := range out {
			if v != 0 {
				finished++
			}
		}
		if finished < ce.Finished {
			t.Fatalf("only %d results present for %d reported finished trials", finished, ce.Finished)
		}
	}
}

// TestSlowShardsByteIdentical runs the engine over an assignment with
// deliberately dragging shards and asserts results match the serial,
// undragged run byte for byte.
func TestSlowShardsByteIdentical(t *testing.T) {
	defer chaos.LeakCheck(t)()
	b := assign.Builder{}
	asn, err := b.Partitioned(64, 8, 2, assign.LocalLabels, 13)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cogcast.Run(asn, 0, "m", 13, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	slow := &chaos.SlowAssignment{Assignment: asn, Stride: 7, Yields: 3}
	for _, cfg := range []cogcast.RunConfig{
		{UntilAllInformed: true, MaxSlots: 1 << 20, Shards: 2},
		{UntilAllInformed: true, MaxSlots: 1 << 20, Shards: 4},
		{UntilAllInformed: true, MaxSlots: 1 << 20, Sparse: true},
	} {
		res, err := cogcast.Run(slow, 0, "m", 13, cfg)
		if err != nil {
			t.Fatalf("shards=%d sparse=%v: %v", cfg.Shards, cfg.Sparse, err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("shards=%d sparse=%v: dragged run differs from serial baseline", cfg.Shards, cfg.Sparse)
		}
	}
}

// TestSlowAssignmentKeepsMode pins the effective engine mode through the
// drag wrapper: a wrapped static assignment keeps its shards and sparse
// stepping, and a wrapped dynamic one still falls back to dense serial
// stepping. Results alone cannot tell, as every mode is byte-identical.
func TestSlowAssignmentKeepsMode(t *testing.T) {
	static, err := assign.Partitioned(16, 4, 2, assign.LocalLabels, 5)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := assign.NewDynamic(16, 4, 2, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		asn        sim.Assignment
		opt        sim.Option
		wantShards int
		wantSparse bool
	}{
		{"static sharded", static, sim.WithShards(4), 4, false},
		{"static sparse", static, sim.WithSparse(), 1, true},
		{"dynamic sharded", dynamic, sim.WithShards(4), 1, false},
		{"dynamic sparse", dynamic, sim.WithSparse(), 1, false},
	} {
		slow := &chaos.SlowAssignment{Assignment: tc.asn, Stride: 7, Yields: 3}
		nodes := make([]sim.Protocol, slow.Nodes())
		for i := range nodes {
			nodes[i] = idleNode{}
		}
		e, err := sim.NewEngine(slow, nodes, 1, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if e.Shards() != tc.wantShards || e.Sparse() != tc.wantSparse {
			t.Errorf("%s: Shards(), Sparse() = %d, %v, want %d, %v", tc.name, e.Shards(), e.Sparse(), tc.wantShards, tc.wantSparse)
		}
	}
}

// idleNode listens on its first channel forever.
type idleNode struct{}

func (idleNode) Step(int) sim.Action    { return sim.Listen(0) }
func (idleNode) Deliver(int, sim.Event) {}
func (idleNode) Done() bool             { return false }

// TestTornTraceDetection verifies the three completeness verdicts a trace
// reader can reach: intact (marker present and counts match), truncated
// (marker missing — a crash or kill -9 cut the stream), and corrupted
// (content after the marker, or a count mismatch).
func TestTornTraceDetection(t *testing.T) {
	defer chaos.LeakCheck(t)()
	var buf bytes.Buffer
	if _, err := newNet(t, 21).Broadcast(crn.BroadcastOptions{
		Payload: "x", Seed: 21, RunToCompletion: true,
		EngineOptions: crn.EngineOptions{MaxSlots: 1 << 20, Trace: &buf},
	}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	s, err := trace.Summarize(bytes.NewReader(whole))
	if err != nil || !s.Complete {
		t.Fatalf("intact trace: err=%v complete=%v, want clean and complete", err, s.Complete)
	}

	// Strip the end-of-stream marker: the events before it still parse,
	// but the stream must self-report as truncated.
	lines := bytes.Split(bytes.TrimSuffix(whole, []byte("\n")), []byte("\n"))
	if !bytes.Contains(lines[len(lines)-1], []byte("crn-trace-eof")) {
		t.Fatalf("last line is not the end-of-stream marker: %s", lines[len(lines)-1])
	}
	headless := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	s, err = trace.Summarize(bytes.NewReader(headless))
	if err != nil {
		t.Fatalf("marker-stripped trace: %v", err)
	}
	if s.Complete {
		t.Fatal("marker-stripped trace claims to be complete")
	}

	// Tear the file mid-line, as a crashed writer would: the reader must
	// fail loudly, not fold the partial line into the metrics.
	torn := whole[:len(whole)-10]
	if _, err := trace.Summarize(bytes.NewReader(torn)); err == nil {
		t.Fatal("mid-line torn trace parsed cleanly")
	}

	// Content after the marker is corruption, not extra data.
	tail := append(append([]byte{}, whole...), []byte(`{"k":"slot","t":9}`+"\n")...)
	if _, err := trace.Summarize(bytes.NewReader(tail)); err == nil {
		t.Fatal("content after the end-of-stream marker parsed cleanly")
	}
}

// TestScenarioLimits covers the limits section end to end: max_slots caps
// the budget, a bad deadline fails fast, and an expired ambient context
// interrupts the scenario with the typed error.
func TestScenarioLimits(t *testing.T) {
	defer chaos.LeakCheck(t)()
	base := scenario.Scenario{
		Name: "limits", Seed: 2,
		Topology: scenario.Topology{Nodes: 32, ChannelsPerNode: 6, MinOverlap: 2,
			TotalChannels: 18, Generator: "shared-core", Labels: "local"},
		Protocol: scenario.Protocol{Name: "cogcast", Payload: "INIT", Aggregate: "sum",
			Rounds: 3, Rumors: 4},
		Engine: scenario.Engine{Shards: 1, Repeat: 1},
	}

	capped := base
	capped.Limits = scenario.Limits{MaxSlots: 3}
	var buf bytes.Buffer
	oc, err := capped.Execute(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Slots != 3 || oc.AllInformed {
		t.Fatalf("max_slots=3: got %d slots, informed=%v; want the capped budget", oc.Slots, oc.AllInformed)
	}

	bad := base
	bad.Limits = scenario.Limits{Deadline: "soon"}
	if _, err := bad.Execute(&buf); err == nil || !strings.Contains(err.Error(), "limits.deadline") {
		t.Fatalf("bad deadline error %v, want a limits.deadline complaint", err)
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "limits.deadline") {
		t.Fatalf("Validate error %v, want a limits.deadline complaint", err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if _, err := base.ExecuteContext(expired, &buf); !errors.Is(err, crn.ErrDeadlineExceeded) {
		t.Fatalf("expired ambient context error %v, want ErrDeadlineExceeded", err)
	}
}

// TestScenarioLimitsRoundTrip pins the DSL wiring: a limits section
// parses, survives the canonical emit fixed point, and rejects unknown
// keys.
func TestScenarioLimitsRoundTrip(t *testing.T) {
	src := []byte(`name: lims
seed: 4
topology:
  nodes: 16
  channels_per_node: 4
  min_overlap: 2
  generator: shared-core
protocol:
  name: cogcast
limits:
  deadline: 30s
  max_slots: 500
`)
	sc, err := scenario.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Limits.Deadline != "30s" || sc.Limits.MaxSlots != 500 {
		t.Fatalf("decoded limits %+v", sc.Limits)
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	once := sc.Emit()
	re, err := scenario.Parse(once)
	if err != nil {
		t.Fatal(err)
	}
	re.Normalize()
	if again := re.Emit(); !bytes.Equal(once, again) {
		t.Fatalf("emit is not a fixed point:\n--- once\n%s--- again\n%s", once, again)
	}
	if !bytes.Contains(once, []byte("limits:\n  deadline: 30s\n  max_slots: 500\n")) {
		t.Fatalf("canonical form lacks the limits block:\n%s", once)
	}
	if _, err := scenario.Parse([]byte("name: x\nlimits:\n  wall_clock: 3\n")); err == nil ||
		!strings.Contains(err.Error(), `unknown field "wall_clock"`) {
		t.Fatalf("unknown limits key error %v", err)
	}
}

// Command cogsim runs a single protocol over a generated cognitive radio
// network and prints what happened. It exercises the public crn API — the
// same entry points a library user would call.
//
// Flags describe a run inline; scenario files (SCENARIOS.md) declare the
// same runs as data. Both build the same internal/scenario value and share
// one execution path, so `cogsim run file.yaml` is byte-identical to the
// equivalent flag invocation.
//
// Examples:
//
//	cogsim -protocol cogcast -n 128 -c 16 -k 4 -C 48
//	cogsim -protocol cogcomp -n 64 -c 8 -k 2 -C 24 -agg stats
//	cogsim -protocol hop -n 8 -c 64 -k 63 -topology partitioned -labels global
//	cogsim -protocol cogcast -jam random -jamk 3 -n 32 -c 16
//	cogsim -protocol cogcast -adversary busiest -energy 120 -n 32 -c 12
//	cogsim -protocol cogcomp -recover -adversary crasher -energy 60
//	cogsim -protocol cogcast -repeat 32 -parallel 8   # seeded repetitions
//	cogsim -protocol cogcast -trace run.jsonl         # record a JSONL trace
//	cogsim -trace-summary run.jsonl                   # fold it back into numbers
//	cogsim run scenarios/broadcast_baseline.yaml      # run a scenario file
//	cogsim validate scenarios/*.yaml                  # schema-check only
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/cogradio/crn/internal/prof"
	"github.com/cogradio/crn/internal/scenario"
	"github.com/cogradio/crn/internal/trace"
)

func main() {
	// SIGINT/SIGTERM cancel the run's context: the engine stops at the
	// next slot boundary, trace files get their cancel event and
	// end-of-stream marker, and the typed error reports the partial
	// progress. A canceled run exits 130 (the shell convention for
	// SIGINT); every other failure exits 1.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cogsim:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// run is runCtx without an interrupt context (tests call it directly).
func run(args []string, out io.Writer) error {
	return runCtx(context.Background(), args, out)
}

func runCtx(ctx context.Context, args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runScenarios(ctx, args[1:], out)
		case "validate":
			return validateScenarios(args[1:], out)
		}
	}
	fs := flag.NewFlagSet("cogsim", flag.ContinueOnError)
	var (
		protocol = fs.String("protocol", "cogcast", "protocol: cogcast, cogcomp, session, gossip, rendezvous, rendezvous-agg, hop")
		n        = fs.Int("n", 64, "number of nodes")
		c        = fs.Int("c", 8, "channels per node")
		k        = fs.Int("k", 2, "guaranteed pairwise overlap")
		total    = fs.Int("C", 0, "total channels (0 = 3c for shared-core)")
		topology = fs.String("topology", "shared-core", "topology: full, partitioned, shared-core, random-pool, pairwise")
		labels   = fs.String("labels", "local", "label model: local or global")
		dynamic  = fs.Bool("dynamic", false, "re-draw channel sets every slot")
		jam      = fs.String("jam", "", "jammer strategy (none, random, sweep, block, split); overrides topology")
		jamK     = fs.Int("jamk", 0, "channels jammed per node per slot")
		adv      = fs.String("adversary", "", "reactive adversary strategy: busiest/follower/hunter jam cogcast (forces the jammed topology), hunter/crasher/oblivious crash cogcomp (needs -recover), none = control")
		advE     = fs.Int("energy", 0, "reactive adversary's total energy reserve (one unit per jammed channel or held-down node per slot; 0 = inert)")
		advSlot  = fs.Int("energy-slot", 2, "reactive adversary's per-slot action cap; on cogcast it is also the reduction's jam budget")
		seed     = fs.Int64("seed", 1, "root seed")
		source   = fs.Int("source", 0, "source node")
		agg      = fs.String("agg", "sum", "aggregate for cogcomp: sum, count, min, max, stats, collect")
		rounds   = fs.Int("rounds", 3, "reporting rounds for the session protocol")
		rumors   = fs.Int("rumors", 4, "rumor count for the gossip protocol")
		maxSlots = fs.Int("max-slots", 0, "slot budget every protocol stops at (0 = automatic; session rejects it)")
		check    = fs.Bool("check", false, "run under the invariant oracle: re-verify every slot, the distribution tree, census and aggregate (cogcast, cogcomp, session)")
		recov    = fs.Bool("recover", false, "run cogcomp under the crash-restart recovery supervisor (epoch checkpoints, bounded retries, mediator re-election; DESIGN.md §7)")
		outage   = fs.Float64("outage", 0, "with -recover: per-slot crash probability per node (source protected), 10-slot outages")
		curve    = fs.Bool("curve", false, "print the informed-count curve for cogcast")
		repeat   = fs.Int("repeat", 1, "independent seeded repetitions (cogcast and cogcomp only); prints per-repetition lines and a slot-count summary")
		workers  = fs.Int("parallel", 0, "workers for -repeat (0 = GOMAXPROCS, 1 = serial); output is identical for every value")
		shards   = fs.Int("shards", 1, "goroutines sharding each slot's protocol scan inside the engine (1 = serial); output is identical for every value; dynamic/jammed networks run serially")
		sparse   = fs.Bool("sparse", false, "event-driven stepping: skip dormant nodes instead of scanning all n each slot; output is identical either way, traced and checked runs included; dynamic/jammed runs step densely")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the run (0 = none); an exceeded budget stops the run at the next slot boundary with a deadline error")
		traceTo  = fs.String("trace", "", "record a JSONL event trace of the run to this file (cogcast and cogcomp, single run; schema in TRACE.md)")
		traceSum = fs.String("trace-summary", "", "read a trace file and fold it back into summary numbers instead of running anything")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *traceSum != "" {
		return summarizeTrace(out, *traceSum)
	}

	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	// The flag set becomes a Scenario verbatim, without Normalize, so
	// explicit flag zeros (-seed 0) keep their meaning. Execute is the
	// shared run path; it validates a normalized copy exactly as file
	// mode's Load does, so a rejected flag run names the scenario key its
	// flag sets.
	sc := &scenario.Scenario{
		Name: "cli",
		Seed: *seed,
		Topology: scenario.Topology{
			Nodes:           *n,
			ChannelsPerNode: *c,
			MinOverlap:      *k,
			TotalChannels:   *total,
			Generator:       *topology,
			Labels:          *labels,
			Dynamic:         *dynamic,
		},
		Protocol: scenario.Protocol{
			Name:      *protocol,
			Source:    *source,
			Payload:   "INIT",
			Aggregate: *agg,
			Rounds:    *rounds,
			Rumors:    *rumors,
			MaxSlots:  *maxSlots,
			Curve:     *curve,
		},
		Engine: scenario.Engine{
			Shards:   *shards,
			Sparse:   *sparse,
			Parallel: *workers,
			Repeat:   *repeat,
			Check:    *check,
			Trace:    *traceTo,
		},
		Recovery: scenario.Recovery{Enabled: *recov, OutageRate: *outage},
	}
	if *timeout > 0 {
		sc.Limits.Deadline = timeout.String()
	}
	if *jam != "" {
		sc.Topology = scenario.Topology{
			Nodes:           *n,
			ChannelsPerNode: *c,
			Generator:       "jammed",
			Labels:          "local",
			JamStrategy:     *jam,
			JamBudget:       *jamK,
		}
	}
	if *adv != "" {
		if *jam != "" {
			return fmt.Errorf("-jam and -adversary are mutually exclusive (oblivious vs reactive jammer)")
		}
		sc.Adversary = scenario.Adversary{Strategy: *adv, Energy: *advE, PerSlot: *advSlot}
		if *protocol == "cogcast" {
			// Reactive jamming rides the Theorem 18 reduction, so the
			// topology is the jammed one (as -jam would force).
			sc.Topology = scenario.Topology{
				Nodes:           *n,
				ChannelsPerNode: *c,
				Generator:       "jammed",
				Labels:          "local",
			}
		}
	}
	_, err = sc.ExecuteContext(ctx, out)
	if serr := stop(); err == nil {
		err = serr
	}
	return err
}

// runScenarios implements `cogsim run [-timeout d] file.yaml...`: load each
// scenario, execute it, and evaluate its assertions; any failure exits
// non-zero. -timeout overrides each file's limits.deadline.
func runScenarios(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cogsim run", flag.ContinueOnError)
	timeout := fs.Duration("timeout", 0, "wall-clock budget per scenario (0 = the file's limits.deadline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("run: need at least one scenario file")
	}
	for _, path := range files {
		if len(files) > 1 {
			fmt.Fprintf(out, "--- %s\n", path)
		}
		sc, err := scenario.Load(path)
		if err != nil {
			return err
		}
		if *timeout > 0 {
			sc.Limits.Deadline = timeout.String()
		}
		if err := sc.RunContext(ctx, out); err != nil {
			return err
		}
	}
	return nil
}

// validateScenarios implements `cogsim validate [-canonical] file.yaml...`:
// parse, normalize and validate each file without running anything.
// -canonical prints the normalized canonical YAML instead of "ok" lines.
func validateScenarios(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cogsim validate", flag.ContinueOnError)
	canonical := fs.Bool("canonical", false, "print each scenario's canonical normalized YAML")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("validate: need at least one scenario file")
	}
	for _, path := range files {
		sc, err := scenario.Load(path)
		if err != nil {
			return err
		}
		if *canonical {
			if _, err := out.Write(sc.Emit()); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(out, "ok: %s (%s)\n", path, sc.Name)
		}
	}
	return nil
}

// summarizeTrace implements -trace-summary: read a JSONL trace and fold it
// back into the numbers a live run would have printed — the header, event
// counts per kind, the replayed medium metrics, and the protocol's
// progress/phase milestones.
func summarizeTrace(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := trace.Summarize(bufio.NewReader(f))
	if err != nil {
		return err
	}
	m := s.Meta
	fmt.Fprintf(out, "trace: %s protocol=%s n=%d c=%d k=%d C=%d seed=%d collisions=%s\n",
		path, m.Protocol, m.Nodes, m.PerNode, m.MinOverlap, m.Channels, m.Seed, m.Collisions)
	totalEvents := 0
	for _, count := range s.Events {
		totalEvents += count
	}
	fmt.Fprintf(out, "events: %d", totalEvents)
	for _, kind := range []trace.Kind{
		trace.KindSlot, trace.KindChannel, trace.KindProgress, trace.KindInformed,
		trace.KindPhase, trace.KindCensus, trace.KindFault, trace.KindJam, trace.KindTrial,
		trace.KindEpoch, trace.KindCheckpoint, trace.KindRetry, trace.KindReelect,
		trace.KindRestart, trace.KindAdv, trace.KindCancel,
	} {
		if count := s.Events[kind]; count > 0 {
			fmt.Fprintf(out, " %s=%d", kind, count)
		}
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "medium: %s\n", s.Metrics)
	if s.TotalNodes >= 0 {
		fmt.Fprintf(out, "informed: %d/%d\n", s.FinalInformed, s.TotalNodes)
	}
	for _, p := range s.Phases {
		fmt.Fprintf(out, "phase %d: starts slot %d (nominal length %d)\n", p.A, p.Slot, p.B)
	}
	if c := s.Cancel; c != nil {
		why := "canceled"
		if c.A == 1 {
			why = "deadline exceeded"
		}
		fmt.Fprintf(out, "cancel: %s after %d slots (the run was interrupted gracefully; metrics cover the slots that completed)\n", why, c.Slot)
	}
	// A trace without the end-of-stream marker was cut mid-write (a crash
	// or a hard kill, not a graceful cancel). The numbers above only cover
	// what reached the file, so say so loudly instead of passing them off
	// as a finished run's metrics.
	if !s.Complete {
		fmt.Fprintf(out, "truncated: no end-of-stream marker\n")
		return fmt.Errorf("trace %s is truncated: the writer stopped mid-stream, so the summary above covers only the %d events that reached the file", path, totalEvents)
	}
	return nil
}

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"runtime"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/metrics"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// castSpec is the shape of one COGCAST trial from source node 0.
type castSpec struct {
	partitioned bool // Theorem 16's partitioned topology; else shared core
	n, c, k     int
	total       int // C for the shared core; partitioned derives it
	horizon     int // fixed slot count; 0 runs until every node is informed
	shards      int
}

// compSpec is the shape of one COGCOMP Sum trial on a shared core, from
// source node 0.
type compSpec struct {
	n, c, k, total int
	sparse         bool
	// checked attaches the whole observer chain: the invariant oracle, a
	// JSONL trace into a counting writer and a metrics.Collector.
	checked bool
}

// workload is a closed batch of trials per round. A round runs its trials
// on a parallel.MapArena pool with one arena per worker; rounds repeat for
// the run's duration. Trial i of a run has seed rng.Derive(seed, id, i).
// With both specs set, even trials run COGCAST and odd ones COGCOMP.
type workload struct {
	name    string
	id      int64
	trials  int // per round
	workers int
	cast    *castSpec
	comp    *compSpec
}

// workloads returns the benchmark's workloads. reduced shrinks every size
// so the test suite can run each workload through the same code quickly.
func workloads(reduced bool) []*workload {
	p := runtime.GOMAXPROCS(0)
	ws := []*workload{
		{
			name:    "trials-small",
			id:      1,
			trials:  200,
			workers: p,
			cast:    &castSpec{n: 256, c: 16, k: 4, total: 48},
			comp:    &compSpec{n: 128, c: 8, k: 2, total: 24},
		},
		{
			name:    "broadcast-large",
			id:      2,
			trials:  1,
			workers: 1,
			cast:    &castSpec{partitioned: true, n: 50_000, c: 16, k: 4, horizon: 96, shards: p},
		},
		{
			name:    "census-sparse",
			id:      3,
			trials:  1,
			workers: 1,
			comp:    &compSpec{n: 10_000, c: 16, k: 4, total: 48, sparse: true},
		},
		{
			name:    "census-checked",
			id:      4,
			trials:  1,
			workers: 1,
			comp:    &compSpec{n: 5_000, c: 16, k: 4, total: 48, sparse: true, checked: true},
		},
	}
	if reduced {
		ws[0].trials = 6
		ws[1].cast.n = 2_000
		ws[2].comp.n = 300
		ws[3].comp.n = 200
	}
	return ws
}

func workloadByName(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pass selects how a round runs its trials.
type pass int

const (
	plain  pass = iota // as configured, with no instrumentation
	traced             // as configured, with spans, slot marks and timing wrappers
	dense              // COGCOMP without observers, dense stepping
	sparse             // COGCOMP without observers, sparse stepping
)

// arena is one pool worker's reusable state. The simulator's own arenas are
// fresh for every round, as every cogbench sweep point and cogsim run pays
// for them; within a round they are reused across the worker's trials.
type arena struct {
	worker int
	pass   pass
	probe  probe

	builder assign.Builder
	cast    cogcast.Arena
	comp    cogcomp.Arena

	// COGCAST's traced runner drives the engine directly.
	nodes  []*cogcast.Node
	protos []sim.Protocol
	eng    *sim.Engine
	timed  []timedProto

	inRand *rand.Rand
	inputs []int64

	spans     spanBuf
	intervals []int64 // traced slot intervals, ns
}

// trialOut is one trial's measurements and the results the gate checks.
type trialOut struct {
	index    int
	seed     int64
	worker   int
	n, slots int
	// start, setupEnd and end are the trial's entry, its first slot
	// boundary and the runner's return.
	start, setupEnd, end int64
	indexBytes           int64
	err                  error
	cast                 *cogcast.Result
	comp                 *cogcomp.Result

	// Traced pass only.
	step, deliver, emit sampled
	obsNs               int64
	traceBytes          int64
	sparse              bool
	shards              int
}

const payload = "m"

// trial runs trial i: assignment generation, the CSR index and one
// runner call, timed from entry to the runner's return. COGCOMP inputs are
// drawn before the clock starts.
func (w *workload) trial(a *arena, i int, seed int64) trialOut {
	out := trialOut{index: i, seed: rng.Derive(seed, w.id, int64(i)), worker: a.worker}
	cast := w.comp == nil || (w.cast != nil && i%2 == 0)
	var inputs []int64
	if !cast {
		inputs = a.compInputs(w.comp.n, out.seed)
	}
	a.probe.reset(a.pass == traced)
	out.start = now()
	var asn *assign.Static
	var err error
	switch {
	case !cast:
		out.n = w.comp.n
		asn, err = a.builder.SharedCore(w.comp.n, w.comp.c, w.comp.k, w.comp.total, assign.LocalLabels, out.seed)
	case w.cast.partitioned:
		out.n = w.cast.n
		asn, err = a.builder.Partitioned(w.cast.n, w.cast.c, w.cast.k, assign.LocalLabels, out.seed)
	default:
		out.n = w.cast.n
		asn, err = a.builder.SharedCore(w.cast.n, w.cast.c, w.cast.k, w.cast.total, assign.LocalLabels, out.seed)
	}
	if err != nil {
		out.err = err
		a.runnerDone(&out)
		return out
	}
	t1 := now()
	out.indexBytes = asn.Index().MemoryBytes()
	t2 := now()
	if cast {
		a.runCast(asn, w.cast, &out)
	} else {
		a.runComp(asn, w.comp, inputs, &out)
	}
	if a.pass == traced {
		a.recordSpans(&out, t1, t2)
	}
	return out
}

// runnerDone stamps the runner's return and closes the set-up interval at
// the probe's first slot boundary, or at the return when no slot ran.
func (a *arena) runnerDone(out *trialOut) {
	out.end = now()
	out.setupEnd = out.end
	if a.probe.calls > 0 {
		out.setupEnd = a.probe.first
	}
}

// recordSpans files the trial's layer spans; t1 and t2 end assignment
// generation and the index.
func (a *arena) recordSpans(out *trialOut, t1, t2 int64) {
	root := a.spans.add("trial", out.index, -1, out.start, out.end)
	a.spans.add("assign.gen", out.index, root, out.start, t1)
	a.spans.add("assign.index", out.index, root, t1, t2)
	runner := a.spans.add("runner", out.index, root, t2, out.end)
	a.spans.add("runner.build", out.index, runner, t2, out.setupEnd)
	if m := a.probe.marks; len(m) > 0 {
		a.spans.add("sim.slots", out.index, runner, m[0], m[len(m)-1])
		a.spans.add("runner.finish", out.index, runner, m[len(m)-1], out.end)
		for j := 1; j < len(m); j++ {
			a.intervals = append(a.intervals, m[j]-m[j-1])
		}
	}
}

func (a *arena) runCast(asn *assign.Static, s *castSpec, out *trialOut) {
	if a.pass == traced {
		out.cast, out.err = a.castTraced(asn, s, out)
	} else {
		out.cast, out.err = a.cast.Run(asn, 0, payload, out.seed, cogcast.RunConfig{
			MaxSlots:         s.horizon,
			UntilAllInformed: s.horizon == 0,
			Shards:           s.shards,
			Context:          &a.probe,
		})
	}
	a.runnerDone(out)
	if out.cast != nil {
		out.slots = out.cast.Slots
	}
}

// castTraced is cogcast.Arena.Run rebuilt from the public node and engine
// API, so every node can be wrapped in a timedProto. The gate checks that it
// reproduces the untraced run's results exactly.
func (a *arena) castTraced(asn *assign.Static, s *castSpec, out *trialOut) (*cogcast.Result, error) {
	n := asn.Nodes()
	if len(a.nodes) < n {
		a.nodes = append(a.nodes, make([]*cogcast.Node, n-len(a.nodes))...)
		a.protos = make([]sim.Protocol, n)
		a.timed = make([]timedProto, n)
	}
	nodes, protos, timed := a.nodes[:n], a.protos[:n], a.timed[:n]
	for i := range nodes {
		view := sim.View(asn, sim.NodeID(i))
		if nodes[i] == nil {
			nodes[i] = cogcast.New(view, i == 0, payload, out.seed)
		} else {
			nodes[i].Reinit(view, i == 0, payload, out.seed)
		}
		timed[i] = timedProto{p: nodes[i], phase: uint32(i)}
		protos[i] = &timed[i]
	}
	opts := []sim.Option{sim.WithContext(&a.probe), sim.WithShards(s.shards)}
	if a.eng == nil {
		eng, err := sim.NewEngine(asn, protos, out.seed, opts...)
		if err != nil {
			return nil, err
		}
		a.eng = eng
	} else if err := a.eng.Reset(asn, protos, out.seed, opts...); err != nil {
		return nil, err
	}
	eng := a.eng
	out.sparse, out.shards = eng.Sparse(), eng.Shards()
	maxSlots := s.horizon
	if maxSlots == 0 {
		maxSlots = cogcast.SlotBound(n, asn.PerNode(), asn.MinOverlap(), cogcast.DefaultKappa)
	}
	informed := func() int {
		count := 0
		for _, nd := range nodes {
			if nd.Informed() {
				count++
			}
		}
		return count
	}
	for eng.Slot() < maxSlots {
		if s.horizon == 0 && informed() == n {
			break
		}
		if err := eng.RunSlot(); err != nil {
			return nil, err
		}
	}
	res := &cogcast.Result{
		Slots:         eng.Slot(),
		AllInformed:   informed() == n,
		Parents:       make([]sim.NodeID, n),
		InformedSlots: make([]int, n),
	}
	for i, nd := range nodes {
		res.Parents[i] = nd.Parent()
		res.InformedSlots[i] = nd.InformedSlot()
	}
	sumTimed(timed, out)
	return res, nil
}

func sumTimed(timed []timedProto, out *trialOut) {
	for i := range timed {
		t := &timed[i]
		out.step.add(sampled{int64(t.steps), int64(t.stepSamples), t.stepNs})
		out.deliver.add(sampled{int64(t.delivers), int64(t.delivSamples), t.delivNs})
	}
}

// compInputs returns the node inputs of a COGCOMP trial, drawn from the
// trial seed as the experiment harness draws them, in the arena's buffer.
func (a *arena) compInputs(n int, seed int64) []int64 {
	if a.inRand == nil {
		a.inRand = rng.New(seed, 0x1277)
	} else {
		rng.Reseed(a.inRand, seed, 0x1277)
	}
	if cap(a.inputs) < n {
		a.inputs = make([]int64, n)
	}
	a.inputs = a.inputs[:n]
	fillInputs(a.inRand, a.inputs)
	return a.inputs
}

func fillInputs(r *rand.Rand, dst []int64) {
	for i := range dst {
		dst[i] = r.Int63n(2001) - 1000
	}
}

func (a *arena) runComp(asn *assign.Static, s *compSpec, inputs []int64, out *trialOut) {
	tr := a.pass == traced
	cfg := cogcomp.Config{Sparse: s.sparse, Context: &a.probe}
	var jsonl *trace.JSONL
	var sink *timedSink
	var written countingWriter
	switch a.pass {
	case dense:
		cfg.Sparse = false
	case sparse:
		cfg.Sparse = true
	default:
		if s.checked {
			cfg.Check = true
			jsonl = trace.NewJSONL(&written)
			jsonl.SetMeta(trace.Meta{Protocol: "cogcomp", Nodes: s.n, PerNode: s.c, MinOverlap: s.k,
				Channels: asn.Channels(), Seed: out.seed, Collisions: sim.UniformWinner.String()})
			cfg.Trace = jsonl
			cfg.Observer = new(metrics.Collector)
			if tr {
				sink = &timedSink{next: jsonl}
				cfg.Trace = sink
				cfg.Observer = &stampObserver{p: &a.probe, next: cfg.Observer}
			}
		}
	}
	var wrap func(sim.NodeID, *cogcomp.Node) sim.Protocol
	if tr {
		if len(a.timed) < s.n {
			a.timed = make([]timedProto, s.n)
		}
		wrap = func(id sim.NodeID, nd *cogcomp.Node) sim.Protocol {
			t := &a.timed[id]
			*t = timedProto{p: nd, phase: uint32(id)}
			return t
		}
	}
	out.comp, out.err = a.comp.RunWith(asn, 0, inputs, out.seed, cfg, wrap)
	a.runnerDone(out)
	if out.comp != nil {
		out.slots = out.comp.TotalSlots
	}
	if jsonl != nil {
		jsonl.Finish()
		if err := jsonl.Err(); err != nil && out.err == nil {
			out.err = err
		}
		out.traceBytes = written.n
	}
	if !tr {
		return
	}
	sumTimed(a.timed[:s.n], out)
	out.obsNs = a.probe.obsNs
	if sink != nil {
		out.emit = sampled{sink.events, sink.samples, sink.ns}
	}
	// Read the engine's effective mode for this configuration. Prepare
	// rebuilds the nodes but runs no slot, so nothing reaches the sink or
	// the probe; it runs after the trial's spans have closed.
	if _, eng, _, err := a.comp.Prepare(asn, 0, inputs, out.seed, cfg, nil); err == nil {
		out.sparse, out.shards = eng.Sparse(), eng.Shards()
	} else if out.err == nil {
		out.err = err
	}
}

// verify is the correctness gate: it checks every trial's result against
// the protocol's contract and folds the results, in trial order, into h.
// It returns the number of failed trials and the first failure.
func verify(outs []trialOut, h hash.Hash64) (failed int, first error) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for i := range outs {
		o := &outs[i]
		err := check(o)
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("trial %d: %w", o.index, err)
			}
			put(-1)
			continue
		}
		put(int64(o.n))
		put(int64(o.slots))
		if r := o.cast; r != nil {
			for v := range r.Parents {
				put(int64(r.Parents[v]))
				put(int64(r.InformedSlots[v]))
			}
			continue
		}
		r := o.comp
		put(r.Value.(int64))
		put(int64(r.Mediators))
		put(int64(r.Phase4Slots))
		for _, p := range r.Parents {
			put(int64(p))
		}
	}
	return failed, first
}

func check(o *trialOut) error {
	if o.err != nil {
		return o.err
	}
	if r := o.cast; r != nil {
		if !r.AllInformed {
			return errors.New("cogcast: not every node informed")
		}
		return invariant.CheckBroadcastTree(o.n, 0, r.Parents, r.InformedSlots, r.AllInformed)
	}
	r := o.comp
	if r == nil {
		return errors.New("no result")
	}
	if !r.Complete {
		return cogcomp.ErrIncomplete
	}
	inputs := make([]int64, o.n)
	fillInputs(rng.New(o.seed, 0x1277), inputs)
	if want := aggfunc.Fold(aggfunc.Sum{}, inputs); r.Value != want {
		return fmt.Errorf("cogcomp: aggregate %v, want %v", r.Value, want)
	}
	return nil
}

package main

import (
	"context"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/cogradio/crn/internal/parallel"
	"github.com/cogradio/crn/internal/stats"
)

// metricDef names a reported metric and its unit. BENCHMARK.json lists the
// same names with their bounds; the test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"slots_per_s", "1/s"},
	{"node_slots_per_s", "1/s"},
	{"trial_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"allocs", "count"},
}

var perLayer = []metricDef{
	{"assign.gen_s", "s"},
	{"assign.index_s", "s"},
	{"assign.index_bytes_per_node", "B/node"},
	{"runner.build_s", "s"},
	{"runner.finish_s", "s"},
	{"sim.slot_s", "s"},
	{"sim.slot_us_p50", "us"},
	{"sim.slot_us_p99", "us"},
	{"sim.self_s", "s"},
	{"sim.node_steps", "count"},
	{"sim.deliveries", "count"},
	{"sim.awake_ratio", "ratio"},
	{"sim.effective_sparse", "flag"},
	{"sim.effective_shards", "count"},
	{"proto.step_ns", "ns"},
	{"proto.deliver_ns", "ns"},
	{"proto.step_s", "s"},
	{"proto.deliver_s", "s"},
	{"observer.wall_share", "ratio"},
	{"observer.dense_fallback_share", "ratio"},
	{"trace.events", "count"},
	{"trace.bytes", "B"},
	{"trace.emit_share", "ratio"},
	{"pool.busy_s", "s"},
	{"pool.utilization", "ratio"},
	{"pool.imbalance", "ratio"},
	{"pool.trial_ms_p99", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"traced.overhead_ratio", "ratio"},
	{"host.ref_ratio", "ratio"},
}

// The reference kernel is refIters dependent xorshift steps: pure integer
// latency, independent of the simulator, so it tracks how fast the host runs
// this process's cores right now and nothing a change to the simulator can
// touch. Other tenants of a shared host move that speed by tens of percent
// over minutes, in step for every workload; end-to-end times are scaled by
// refNominal over the run's median kernel time to take that drift out.
const (
	refIters   = 5_000_000
	refNominal = 0.011 // s, the kernel's typical time on the reference box
)

var refSink uint64

// refKernel times one run of the reference kernel, in seconds.
func refKernel() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return time.Since(t0).Seconds()
}

// roundOut is one round of one pass: its trials, what the workers traced,
// and what the runtime reports across the round.
type roundOut struct {
	wall      int64
	ref       float64 // reference kernel time before the round, s
	trials    []trialOut
	workers   int
	spans     []spanBuf
	intervals []int64 // traced slot intervals, ns
	allocB    uint64
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	digest    uint64
	failed    int
	firstErr  error
}

// runRound runs trials [round·w.trials, (round+1)·w.trials) on a fresh pool
// and passes them through the correctness gate. Only the pool call is
// timed; the heap is collected first so rounds start alike.
func (w *workload) runRound(seed int64, round int, p pass) (*roundOut, error) {
	var mu sync.Mutex
	var arenas []*arena
	newArena := func() *arena {
		mu.Lock()
		defer mu.Unlock()
		a := &arena{worker: len(arenas), pass: p}
		arenas = append(arenas, a)
		return a
	}
	base := round * w.trials
	runtime.GC()
	refs := []float64{refKernel(), refKernel(), refKernel()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := now()
	outs, err := parallel.MapArena(context.Background(), w.trials, w.workers, newArena, func(j int, a *arena) (trialOut, error) {
		return w.trial(a, base+j, seed), nil
	})
	wall := now() - t0
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	r := &roundOut{
		wall:      wall,
		ref:       median(refs),
		trials:    outs,
		workers:   len(arenas),
		allocB:    after.TotalAlloc - before.TotalAlloc,
		mallocs:   after.Mallocs - before.Mallocs,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseNs: after.PauseTotalNs - before.PauseTotalNs,
	}
	h := fnv.New64a()
	r.failed, r.firstErr = verify(outs, h)
	r.digest = h.Sum64()
	// Keep only what the metrics need, so earlier rounds' nodes and result
	// arrays do not stay live through later ones.
	for i := range outs {
		outs[i].cast, outs[i].comp = nil, nil
	}
	for _, a := range arenas {
		r.spans = append(r.spans, a.spans)
		r.intervals = append(r.intervals, a.intervals...)
	}
	return r, nil
}

// trialSeconds sums the trials' durations from entry to the runner's return.
func (r *roundOut) trialSeconds() float64 {
	var s float64
	for _, t := range r.trials {
		s += float64(t.end-t.start) / 1e9
	}
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return stats.Quantile(s, q)
}

// perRound maps every round to one value and returns their median.
func perRound[R any](rounds []R, f func(R) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	return median(vs)
}

// trialMillis lists every trial's duration across rounds, in milliseconds.
func trialMillis(rounds []*roundOut) []float64 {
	var ms []float64
	for _, r := range rounds {
		for _, t := range r.trials {
			ms = append(ms, float64(t.end-t.start)/1e6)
		}
	}
	return ms
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// hostScale is refNominal over the rounds' median reference kernel time:
// below 1 when the host runs slower than nominal.
func hostScale(rounds []*roundOut) float64 {
	return refNominal / perRound(rounds, func(r *roundOut) float64 { return r.ref })
}

// endToEndMetrics computes the end-to-end metrics from untraced rounds:
// each is the median over rounds, except trial_ms_p50, the median over all
// trials, and peak_rss_mb, the process's peak. Times and rates are scaled
// to the nominal host speed by hostScale.
func endToEndMetrics(rounds []*roundOut) map[string]float64 {
	scale := hostScale(rounds)
	return map[string]float64{
		"wall_s": scale * perRound(rounds, func(r *roundOut) float64 { return float64(r.wall) / 1e9 }),
		"setup_s": scale * perRound(rounds, func(r *roundOut) float64 {
			var s float64
			for _, t := range r.trials {
				s += float64(t.setupEnd-t.start) / 1e9
			}
			return s
		}),
		"slots_per_s": perRound(rounds, func(r *roundOut) float64 {
			var slots float64
			for _, t := range r.trials {
				slots += float64(t.slots)
			}
			return slots / (float64(r.wall) / 1e9)
		}) / scale,
		"node_slots_per_s": perRound(rounds, func(r *roundOut) float64 {
			var ns float64
			for _, t := range r.trials {
				ns += float64(t.n) * float64(t.slots)
			}
			return ns / (float64(r.wall) / 1e9)
		}) / scale,
		"trial_ms_p50": scale * median(trialMillis(rounds)),
		"peak_rss_mb":  peakRSSMB(),
		"alloc_mb":     perRound(rounds, func(r *roundOut) float64 { return float64(r.allocB) / 1e6 }),
		"allocs":       perRound(rounds, func(r *roundOut) float64 { return float64(r.mallocs) }),
	}
}

// tracedRound is one round of a traced run: the same trials untraced and
// traced, plus, for a workload with observers, the same trials without
// observers in dense and in sparse stepping.
type tracedRound struct {
	plain, traced, dense, sparse *roundOut
}

// layerMetrics computes the per-layer metrics of a traced run. Span,
// sampling and slot-mark metrics come from the traced passes; pool and
// runtime metrics, which need no instrumentation, from the untraced ones.
// timerNs is the calibrated cost of one time.Now pair.
func layerMetrics(rounds []tracedRound, timerNs float64) map[string]float64 {
	type roundLayers map[string]float64
	per := make([]roundLayers, len(rounds))
	var intervals []float64
	var plains []*roundOut
	for i, tr := range rounds {
		plains = append(plains, tr.plain)
		spans := make(map[string]float64)
		for _, b := range tr.traced.spans {
			for k, v := range b.totals() {
				spans[k] += v
			}
		}
		for _, d := range tr.traced.intervals {
			intervals = append(intervals, float64(d)/1e3)
		}
		var step, deliver, emit sampled
		var nodes, nodeSlots, indexB, obsNs, traceB, sparseTrials float64
		shards := 0
		for _, t := range tr.traced.trials {
			step.add(t.step)
			deliver.add(t.deliver)
			emit.add(t.emit)
			nodes += float64(t.n)
			nodeSlots += float64(t.n) * float64(t.slots)
			indexB += float64(t.indexBytes)
			obsNs += float64(t.obsNs)
			traceB += float64(t.traceBytes)
			if t.sparse {
				sparseTrials++
			}
			shards = max(shards, t.shards)
		}
		plainS, tracedS := tr.plain.trialSeconds(), tr.traced.trialSeconds()
		l := roundLayers{
			"assign.gen_s":                spans["assign.gen"],
			"assign.index_s":              spans["assign.index"],
			"assign.index_bytes_per_node": indexB / nodes,
			"runner.build_s":              spans["runner.build"],
			"runner.finish_s":             spans["runner.finish"],
			"sim.slot_s":                  spans["sim.slots"],
			"sim.self_s": spans["sim.slots"] - step.total(timerNs)/float64(max(shards, 1)) -
				deliver.total(timerNs) - obsNs/1e9,
			"sim.node_steps":        float64(step.calls),
			"sim.deliveries":        float64(deliver.calls),
			"sim.awake_ratio":       float64(step.calls) / nodeSlots,
			"sim.effective_sparse":  sparseTrials / float64(len(tr.traced.trials)),
			"sim.effective_shards":  float64(shards),
			"proto.step_ns":         step.perCall(timerNs),
			"proto.deliver_ns":      deliver.perCall(timerNs),
			"proto.step_s":          step.total(timerNs),
			"proto.deliver_s":       deliver.total(timerNs),
			"trace.events":          float64(emit.calls),
			"trace.bytes":           traceB,
			"trace.emit_share":      emit.total(timerNs) / tracedS,
			"runtime.gc_cycles":     float64(tr.plain.gcCycles),
			"runtime.gc_pause_s":    float64(tr.plain.gcPauseNs) / 1e9,
			"traced.overhead_ratio": tracedS / plainS,
		}
		l["observer.wall_share"], l["observer.dense_fallback_share"] = 0, 0
		if tr.dense != nil {
			denseS, sparseS := tr.dense.trialSeconds(), tr.sparse.trialSeconds()
			l["observer.wall_share"] = (plainS - denseS) / plainS
			l["observer.dense_fallback_share"] = (denseS - sparseS) / plainS
		}
		busy := make([]float64, tr.plain.workers)
		for _, t := range tr.plain.trials {
			busy[t.worker] += float64(t.end-t.start) / 1e9
		}
		var total, most float64
		for _, b := range busy {
			total += b
			most = max(most, b)
		}
		l["pool.busy_s"] = total
		l["pool.utilization"] = total / (float64(len(busy)) * float64(tr.plain.wall) / 1e9)
		l["pool.imbalance"] = most / (total / float64(len(busy)))
		per[i] = l
	}
	out := make(map[string]float64)
	for k := range per[0] {
		out[k] = perRound(per, func(l roundLayers) float64 { return l[k] })
	}
	out["sim.slot_us_p50"] = quantile(intervals, 0.5)
	out["sim.slot_us_p99"] = quantile(intervals, 0.99)
	out["pool.trial_ms_p99"] = quantile(trialMillis(plains), 0.99)
	out["host.ref_ratio"] = 1 / hostScale(plains)
	return out
}

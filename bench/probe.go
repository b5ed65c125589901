package main

import (
	"context"
	"slices"
	"time"

	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// epoch anchors every timestamp the driver records, so spans and slot
// boundaries are plain int64 nanoseconds on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// probe is the context the driver hands to the runners through
// RunConfig.Context and Config.Context. The engine calls Err exactly once
// per slot, before the slot runs, and the call draws no randomness, so the
// calls mark slot boundaries without changing a single simulated bit.
// Untraced it timestamps only the first boundary (the end of set-up);
// traced it keeps every boundary.
type probe struct {
	context.Context
	all   bool
	calls int
	first int64
	marks []int64

	// obsAt is when the observer chain started on the current slot (set by
	// stampObserver); the next boundary closes the interval into obsNs.
	obsAt int64
	obsNs int64
}

func (p *probe) reset(all bool) {
	p.Context = context.Background()
	p.all = all
	p.calls, p.first = 0, 0
	p.marks = p.marks[:0]
	p.obsAt, p.obsNs = 0, 0
}

// Err implements context.Context; it never reports cancellation.
func (p *probe) Err() error {
	if p.calls == 0 || p.all {
		t := now()
		if p.calls == 0 {
			p.first = t
		}
		if p.all {
			p.marks = append(p.marks, t)
			if p.obsAt != 0 {
				p.obsNs += t - p.obsAt
				p.obsAt = 0
			}
		}
	}
	p.calls++
	return nil
}

// stampObserver runs first in the observer chain and notes when the chain
// starts, so the probe can charge the rest of the slot to observers.
type stampObserver struct {
	p    *probe
	next sim.Observer
}

func (s *stampObserver) OnSlot(slot int, outcomes []sim.ChannelOutcome) {
	s.p.obsAt = now()
	s.next.OnSlot(slot, outcomes)
}

// sampleMask selects one call in sampleMask+1 for timing. Timing every call
// would cost more than the calls themselves: a COGCAST Step is tens of
// nanoseconds, about one time.Now pair.
const sampleMask = 15

// timedProto wraps one node and times a sample of its Step and Deliver
// calls. Each wrapper is touched only by the goroutine stepping its node, so
// sharded engines need no synchronization; totals are summed per trial.
type timedProto struct {
	p                         sim.Protocol
	phase                     uint32 // spreads the sampled slots across nodes
	steps, delivers           uint32
	stepSamples, delivSamples uint32
	stepNs, delivNs           int64
}

func (t *timedProto) Step(slot int) sim.Action {
	t.steps++
	if (t.steps+t.phase)&sampleMask != 0 {
		return t.p.Step(slot)
	}
	t0 := time.Now()
	act := t.p.Step(slot)
	t.stepNs += int64(time.Since(t0))
	t.stepSamples++
	return act
}

func (t *timedProto) Deliver(slot int, ev sim.Event) {
	t.delivers++
	if (t.delivers+t.phase)&sampleMask != 0 {
		t.p.Deliver(slot, ev)
		return
	}
	t0 := time.Now()
	t.p.Deliver(slot, ev)
	t.delivNs += int64(time.Since(t0))
	t.delivSamples++
}

func (t *timedProto) Done() bool { return t.p.Done() }

// timedSink counts trace events and times a sample of Emit calls.
type timedSink struct {
	next            trace.Sink
	events, samples int64
	ns              int64
}

func (s *timedSink) Emit(ev trace.Event) {
	s.events++
	if s.events&sampleMask != 0 {
		s.next.Emit(ev)
		return
	}
	t0 := time.Now()
	s.next.Emit(ev)
	s.ns += int64(time.Since(t0))
	s.samples++
}

// countingWriter discards trace bytes and counts them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// sampled accumulates sampled call timings: calls made, calls timed, and
// the raw nanoseconds the timed calls took.
type sampled struct {
	calls, samples, ns int64
}

func (s *sampled) add(o sampled) {
	s.calls += o.calls
	s.samples += o.samples
	s.ns += o.ns
}

// perCall estimates one call's cost in nanoseconds: the sampled mean minus
// the cost of the time.Now pair that measured it.
func (s sampled) perCall(timerNs float64) float64 {
	if s.samples == 0 {
		return 0
	}
	return max(0, float64(s.ns)/float64(s.samples)-timerNs)
}

// total estimates the seconds all calls took.
func (s sampled) total(timerNs float64) float64 {
	return s.perCall(timerNs) * float64(s.calls) / 1e9
}

// calibrateTimer measures what one time.Now/time.Since pair costs, as the
// median over batches so one descheduling does not skew it.
func calibrateTimer() float64 {
	const batches, batch = 41, 2000
	costs := make([]float64, batches)
	for b := range costs {
		var sum int64
		for i := 0; i < batch; i++ {
			t0 := time.Now()
			sum += int64(time.Since(t0))
		}
		costs[b] = float64(sum) / batch
	}
	slices.Sort(costs)
	return costs[batches/2]
}

package trace

import "github.com/cogradio/crn/internal/sim"

// Recorder adapts the engine's sim.Observer hook to a Sink: per slot it
// emits one KindChannel event for every active channel followed by one
// KindSlot marker, which together are exactly the inputs
// metrics.Collector folds — Summarize reconstructs the collector's
// aggregates from them.
//
// Recorder copies only counts and identities out of the engine-owned
// outcome scratch, so it allocates nothing per slot; with a Ring sink the
// whole observed path stays at 0 allocs/op.
type Recorder struct {
	sink Sink
}

var _ sim.Observer = (*Recorder)(nil)

// NewRecorder returns a Recorder emitting into sink.
func NewRecorder(sink Sink) *Recorder { return &Recorder{sink: sink} }

// OnSlot implements sim.Observer.
func (r *Recorder) OnSlot(slot int, outcomes []sim.ChannelOutcome) {
	for _, oc := range outcomes {
		r.sink.Emit(ChannelEvent(slot, oc.Channel, int(oc.Winner), len(oc.Broadcasters), len(oc.Listeners)+len(oc.Parked)))
	}
	r.sink.Emit(SlotEvent(slot, len(outcomes)))
}

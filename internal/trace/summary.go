package trace

import (
	"fmt"
	"io"

	"github.com/cogradio/crn/internal/metrics"
)

// Summary is the fold of one trace file back into aggregate numbers.
type Summary struct {
	// Meta is the trace header.
	Meta Meta
	// Metrics is the medium summary replayed from the trace's channel and
	// slot events through a real metrics.Collector — byte-identical to
	// what a live collector on the same run reports, which is the
	// consistency check cogsim -trace-summary performs.
	Metrics metrics.Metrics
	// Events counts every event by kind.
	Events map[Kind]int
	// FinalInformed and TotalNodes carry the last KindProgress event
	// (-1/-1 when the trace has none).
	FinalInformed, TotalNodes int
	// Phases lists the KindPhase events in order.
	Phases []Event
	// Complete reports that the stream ended with the end-of-stream
	// marker. False means the file lost its tail — the metrics above cover
	// only the recorded prefix, and callers should say so rather than
	// present them as a whole run.
	Complete bool
	// Cancel points at the KindCancel event when the run was interrupted
	// gracefully (nil otherwise): the run stopped at that slot boundary,
	// by deadline when Cancel.A is 1.
	Cancel *Event
}

// Summarize reads a JSONL trace and folds it into a Summary. The medium
// metrics are recomputed by replaying the per-channel outcomes into a
// metrics.Collector: each KindChannel event folds in its broadcaster and
// listener counts (negative counts are rejected) and each KindSlot marker
// closes the slot, mirroring the live observer cadence.
func Summarize(r io.Reader) (*Summary, error) {
	meta, events, trailer, err := ReadAllTrailer(r)
	if err != nil {
		return nil, err
	}
	s := &Summary{
		Meta:          meta,
		Events:        make(map[Kind]int),
		FinalInformed: -1,
		TotalNodes:    -1,
		Complete:      trailer.Complete,
	}
	var col metrics.Collector
	var pending int64 // channel events since the last slot marker
	for _, ev := range events {
		s.Events[ev.Kind]++
		switch ev.Kind {
		case KindChannel:
			if ev.A < 0 || ev.B < 0 {
				return nil, fmt.Errorf("trace: slot %d channel %d claims %d broadcasters and %d listeners",
					ev.Slot, ev.Channel, ev.A, ev.B)
			}
			col.AddChannel(int(ev.A), int(ev.B))
			pending++
		case KindSlot:
			if pending != ev.A {
				return nil, fmt.Errorf("trace: slot %d marker claims %d active channels, stream carries %d",
					ev.Slot, ev.A, pending)
			}
			col.AddSlot()
			pending = 0
		case KindProgress:
			s.FinalInformed = int(ev.A)
			s.TotalNodes = int(ev.B)
		case KindPhase:
			s.Phases = append(s.Phases, ev)
		case KindCancel:
			ev := ev
			s.Cancel = &ev
		}
	}
	if pending != 0 {
		return nil, fmt.Errorf("trace: %d channel events after the last slot marker (truncated trace?)", pending)
	}
	s.Metrics = col.Snapshot()
	return s, nil
}

package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Version is the trace schema version written into every JSONL header.
// The rule (documented in TRACE.md): adding event kinds or fields keeps
// the version; renaming or re-typing anything bumps it, and readers must
// reject traces whose version they do not know.
const Version = 1

// JSONL is a Sink that streams events as JSON Lines in the format
// documented in TRACE.md: one header object first, then one object per
// event. Write errors are sticky — the first one is retained, subsequent
// emissions become no-ops, and Err reports it; callers check Err (after
// flushing any buffering they wrapped around w) when the run ends.
//
// JSONL reuses one line buffer across events, so steady-state emission
// does not allocate per event; the encoding work itself still makes
// tracing-to-disk slower than the Ring sink.
type JSONL struct {
	w          io.Writer
	line       []byte
	meta       Meta
	headerDone bool
	finished   bool
	events     int64
	err        error
}

var _ Sink = (*JSONL)(nil)

// NewJSONL returns a JSONL sink writing to w. Call SetMeta before the
// first event to populate the header; otherwise an all-zero header is
// written. Wrap files in a bufio.Writer and flush before checking Err.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, line: make([]byte, 0, 256)}
}

// SetMeta records the run description and writes the header line. It
// must be called at most once, before any event is emitted.
func (j *JSONL) SetMeta(m Meta) {
	j.meta = m
	j.header()
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error { return j.err }

func (j *JSONL) header() {
	if j.headerDone || j.err != nil {
		return
	}
	j.headerDone = true
	b := j.line[:0]
	b = append(b, `{"schema":"crn-trace","version":`...)
	b = strconv.AppendInt(b, Version, 10)
	b = append(b, `,"protocol":`...)
	b = strconv.AppendQuote(b, j.meta.Protocol)
	b = appendField(b, "nodes", int64(j.meta.Nodes))
	b = appendField(b, "per_node", int64(j.meta.PerNode))
	b = appendField(b, "min_overlap", int64(j.meta.MinOverlap))
	b = appendField(b, "channels", int64(j.meta.Channels))
	b = appendField(b, "seed", j.meta.Seed)
	b = append(b, `,"collisions":`...)
	b = strconv.AppendQuote(b, j.meta.Collisions)
	b = append(b, '}', '\n')
	j.write(b)
}

// Emit implements Sink.
func (j *JSONL) Emit(ev Event) {
	if j.err != nil {
		return
	}
	if j.finished {
		j.err = fmt.Errorf("trace: event emitted after Finish")
		return
	}
	j.header()
	b := j.line[:0]
	b = append(b, `{"k":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	switch ev.Kind {
	case KindSlot:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "act", ev.A)
	case KindChannel:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "ch", int64(ev.Channel))
		b = appendField(b, "b", ev.A)
		b = appendField(b, "l", ev.B)
		b = appendField(b, "w", int64(ev.Peer))
	case KindProgress:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "inf", ev.A)
		b = appendField(b, "total", ev.B)
	case KindInformed:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "node", int64(ev.Node))
		b = appendField(b, "parent", int64(ev.Peer))
		b = appendField(b, "ch", int64(ev.Channel))
	case KindPhase:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "phase", ev.A)
		b = appendField(b, "len", ev.B)
	case KindCensus:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "inf", ev.A)
		b = appendField(b, "med", ev.B)
	case KindFault:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "node", int64(ev.Node))
		b = appendField(b, "down", ev.A)
	case KindJam:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "jammed", ev.A)
		b = appendField(b, "budget", ev.B)
	case KindTrial:
		b = appendField(b, "trial", ev.A)
		b = appendField(b, "seed", ev.B)
	case KindEpoch:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "epoch", ev.A)
		b = appendField(b, "len", ev.B)
	case KindCheckpoint:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "node", int64(ev.Node))
		b = appendField(b, "epoch", ev.A)
		b = appendField(b, "gen", ev.B)
	case KindRetry:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "epoch", ev.A)
		b = appendField(b, "attempt", ev.B)
	case KindReelect:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "ch", int64(ev.Channel))
		b = appendField(b, "node", int64(ev.Node))
		b = appendField(b, "old", int64(ev.Peer))
	case KindRestart:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "node", int64(ev.Node))
	case KindAdv:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "jam", int64(ev.Channel))
		b = appendField(b, "crash", int64(ev.Node))
		b = appendField(b, "spent", ev.A)
		b = appendField(b, "rem", ev.B)
	case KindCancel:
		b = appendField(b, "t", int64(ev.Slot))
		b = appendField(b, "deadline", ev.A)
	default:
		j.err = fmt.Errorf("trace: cannot encode invalid event kind %d", ev.Kind)
		return
	}
	b = append(b, '}', '\n')
	j.events++
	j.write(b)
}

// Finish writes the end-of-stream marker — a trailer line carrying the
// event count — and seals the sink: further Emit calls become sticky
// errors. Writers call Finish whenever the stream ends deliberately,
// including after a graceful cancel, so a trace file without the marker is
// evidence of a torn write (process kill, disk full) and readers
// (ReadAllTrailer, Summarize) surface that instead of silently folding the
// partial stream. Finish is idempotent.
func (j *JSONL) Finish() {
	if j.finished || j.err != nil {
		return
	}
	j.header() // an event-less stream still gets header + trailer
	j.finished = true
	b := j.line[:0]
	b = append(b, `{"schema":"crn-trace-eof","events":`...)
	b = strconv.AppendInt(b, j.events, 10)
	b = append(b, '}', '\n')
	j.write(b)
}

func (j *JSONL) write(b []byte) {
	j.line = b[:0] // keep the (possibly grown) buffer
	if _, err := j.w.Write(b); err != nil {
		j.err = fmt.Errorf("trace: write: %w", err)
	}
}

func appendField(b []byte, name string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

// rawLine is the union of all JSONL fields, for decoding. Reference
// fields default to -1 so kinds that omit them round-trip to the
// constructor defaults.
type rawLine struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`

	K      string `json:"k"`
	T      *int   `json:"t"`
	Ch     int    `json:"ch"`
	B      int64  `json:"b"`
	L      int64  `json:"l"`
	W      int    `json:"w"`
	Act    int64  `json:"act"`
	Inf    int64  `json:"inf"`
	Total  int64  `json:"total"`
	Node   int    `json:"node"`
	Parent int    `json:"parent"`
	Phase  int64  `json:"phase"`
	Len    int64  `json:"len"`
	Med    int64  `json:"med"`
	Down   int64  `json:"down"`
	Jammed int64  `json:"jammed"`
	Budget int64  `json:"budget"`
	Trial  int64  `json:"trial"`
	Seed   int64  `json:"seed"`

	Epoch   int64 `json:"epoch"`
	Gen     int64 `json:"gen"`
	Attempt int64 `json:"attempt"`
	Old     int   `json:"old"`

	Jam   int64 `json:"jam"`
	Crash int64 `json:"crash"`
	Spent int64 `json:"spent"`
	Rem   int64 `json:"rem"`

	Deadline int64 `json:"deadline"`
	Events   int64 `json:"events"`

	Protocol   string `json:"protocol"`
	Nodes      int    `json:"nodes"`
	PerNode    int    `json:"per_node"`
	MinOverlap int    `json:"min_overlap"`
	Channels   int    `json:"channels"`
	Collisions string `json:"collisions"`
}

// Trailer reports how a JSONL stream ended.
type Trailer struct {
	// Complete is true when the stream closed with the end-of-stream
	// marker Finish writes. A missing marker means the writer never got to
	// seal the file — a torn write from an interrupted or crashed run.
	Complete bool
	// Events is the event count the marker claimed (equal to the parsed
	// event count; a mismatch is a read error). Zero when Complete is
	// false.
	Events int64
}

// ReadAll parses a JSONL trace: the header line, then every event, in
// order. It rejects missing or foreign headers and unknown schema
// versions (the versioning rule of TRACE.md), and fails on any malformed
// line so validation errors carry the line number. ReadAll tolerates a
// missing end-of-stream marker; use ReadAllTrailer to detect truncation.
func ReadAll(r io.Reader) (Meta, []Event, error) {
	meta, events, _, err := ReadAllTrailer(r)
	return meta, events, err
}

// ReadAllTrailer is ReadAll plus the stream's Trailer, so callers can
// distinguish a sealed trace (possibly ending in a cancel event) from a
// torn one that lost its tail.
func ReadAllTrailer(r io.Reader) (Meta, []Event, Trailer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	header := false
	var meta Meta
	var events []Event
	var trailer Trailer
	for sc.Scan() {
		lineNo++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		raw := rawLine{T: nil, Ch: -1, W: -1, Node: -1, Parent: -1, Old: -1}
		if err := json.Unmarshal(text, &raw); err != nil {
			return meta, nil, trailer, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if !header {
			if raw.Schema != "crn-trace" {
				return meta, nil, trailer, fmt.Errorf("trace: line %d: not a crn-trace header (schema %q)", lineNo, raw.Schema)
			}
			header = true
			if raw.Version != Version {
				return meta, nil, trailer, fmt.Errorf("trace: unsupported schema version %d (reader supports %d)", raw.Version, Version)
			}
			meta = Meta{
				Protocol:   raw.Protocol,
				Nodes:      raw.Nodes,
				PerNode:    raw.PerNode,
				MinOverlap: raw.MinOverlap,
				Channels:   raw.Channels,
				Seed:       raw.Seed,
				Collisions: raw.Collisions,
			}
			continue
		}
		if trailer.Complete {
			return meta, nil, trailer, fmt.Errorf("trace: line %d: content after the end-of-stream marker", lineNo)
		}
		if raw.Schema == "crn-trace-eof" {
			if raw.Events != int64(len(events)) {
				return meta, nil, trailer, fmt.Errorf("trace: end-of-stream marker claims %d events, stream carries %d", raw.Events, len(events))
			}
			trailer = Trailer{Complete: true, Events: raw.Events}
			continue
		}
		ev, err := raw.event()
		if err != nil {
			return meta, nil, trailer, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return meta, nil, trailer, fmt.Errorf("trace: read: %w", err)
	}
	if !header {
		return meta, nil, trailer, fmt.Errorf("trace: empty input (missing header)")
	}
	return meta, events, trailer, nil
}

func (raw *rawLine) event() (Event, error) {
	slot := -1
	if raw.T != nil {
		slot = *raw.T
	}
	switch raw.K {
	case "slot":
		return SlotEvent(slot, int(raw.Act)), nil
	case "chan":
		return ChannelEvent(slot, raw.Ch, raw.W, int(raw.B), int(raw.L)), nil
	case "progress":
		return ProgressEvent(slot, int(raw.Inf), int(raw.Total)), nil
	case "informed":
		return InformedEvent(slot, raw.Node, raw.Parent, raw.Ch), nil
	case "phase":
		return PhaseEvent(slot, int(raw.Phase), int(raw.Len)), nil
	case "census":
		return CensusEvent(slot, int(raw.Inf), int(raw.Med)), nil
	case "fault":
		return FaultEvent(slot, raw.Node, raw.Down != 0), nil
	case "jam":
		return JamEvent(slot, int(raw.Jammed), int(raw.Budget)), nil
	case "trial":
		return TrialEvent(int(raw.Trial), raw.Seed), nil
	case "epoch":
		return EpochEvent(slot, int(raw.Epoch), int(raw.Len)), nil
	case "ckpt":
		return CheckpointEvent(slot, raw.Node, int(raw.Epoch), int(raw.Gen)), nil
	case "retry":
		return RetryEvent(slot, int(raw.Epoch), int(raw.Attempt)), nil
	case "reelect":
		return ReelectEvent(slot, raw.Ch, raw.Node, raw.Old), nil
	case "restart":
		return RestartEvent(slot, raw.Node), nil
	case "adv":
		return AdvEvent(slot, int(raw.Jam), int(raw.Crash), int(raw.Spent), int(raw.Rem)), nil
	case "cancel":
		return CancelEvent(slot, raw.Deadline != 0), nil
	default:
		return Event{}, fmt.Errorf("unknown event kind %q", raw.K)
	}
}

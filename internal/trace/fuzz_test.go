package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"github.com/cogradio/crn/internal/trace"
)

// sealedGolden returns the committed golden trace re-written through the
// JSONL sink and sealed with its end-of-stream marker.
func sealedGolden(tb testing.TB) []byte {
	raw, err := os.ReadFile("testdata/cogcast_small.jsonl")
	if err != nil {
		tb.Fatal(err)
	}
	meta, events, err := trace.ReadAll(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	sink.SetMeta(meta)
	for _, ev := range events {
		sink.Emit(ev)
	}
	sink.Finish()
	if err := sink.Err(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// lines splits a stream the way the reader does: on '\n', with a trailing
// '\r' dropped and empty lines skipped.
func lines(data []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(data, []byte("\n")) {
		if l = bytes.TrimSuffix(l, []byte("\r")); len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// schemaOf decodes a line's schema field ("" when it has none or does not
// decode).
func schemaOf(line []byte) (string, int64) {
	var m struct {
		Schema string
		Events int64
	}
	if json.Unmarshal(line, &m) != nil {
		return "", 0
	}
	return m.Schema, m.Events
}

// sealed is the model of Trailer.Complete for a stream the reader
// accepted: the last line is the end-of-stream marker, and its count
// matches the event lines between the header and it.
func sealed(ls [][]byte) bool {
	if len(ls) < 2 {
		return false
	}
	schema, events := schemaOf(ls[len(ls)-1])
	return schema == "crn-trace-eof" && events == int64(len(ls)-2)
}

// checkStream runs the reader and the summary over one stream and holds
// them to the model: whatever the bytes, neither panics; an accepted stream
// starts with a crn-trace header; Complete holds exactly when the stream
// ends in a marker with a matching count; and Summarize accepts only what
// the reader accepts, agreeing with it on completeness and event count.
func checkStream(t *testing.T, data []byte) {
	_, events, trailer, rerr := trace.ReadAllTrailer(bytes.NewReader(data))
	sum, serr := trace.Summarize(bytes.NewReader(data))
	if rerr != nil {
		if serr == nil {
			t.Fatalf("Summarize accepted a stream the reader rejects (%v): %q", rerr, data)
		}
		return
	}
	ls := lines(data)
	if len(ls) == 0 {
		t.Fatalf("reader accepted a stream without lines: %q", data)
	}
	if schema, _ := schemaOf(ls[0]); schema != "crn-trace" {
		t.Fatalf("reader accepted a stream without a leading header: %q", data)
	}
	if want := sealed(ls); trailer.Complete != want {
		t.Fatalf("Complete = %v, want %v for %q", trailer.Complete, want, data)
	}
	if trailer.Complete && trailer.Events != int64(len(events)) {
		t.Fatalf("marker count %d, %d events read", trailer.Events, len(events))
	}
	if !trailer.Complete && trailer.Events != 0 {
		t.Fatalf("unsealed stream reports a marker count of %d", trailer.Events)
	}
	if serr != nil {
		return // the reader's contract holds; the summary adds its own checks
	}
	if sum.Complete != trailer.Complete {
		t.Fatalf("Summary.Complete = %v, reader says %v", sum.Complete, trailer.Complete)
	}
	total := 0
	for _, n := range sum.Events {
		total += n
	}
	if total != len(events) {
		t.Fatalf("summary counts %d events, reader read %d", total, len(events))
	}
}

// FuzzTraceReader feeds ReadAllTrailer and Summarize arbitrary bytes and
// every truncation of the sealed golden trace (cut selects the prefix
// length). See checkStream for the properties held. The committed corpus
// (testdata/fuzz/FuzzTraceReader) adds CRLF, torn, mis-sealed, headerless
// and negative-count streams.
func FuzzTraceReader(f *testing.F) {
	golden := sealedGolden(f)
	// The golden stream is reached through cut, so seeds keep data short
	// and the engine's input minimization stays fast.
	for _, cut := range []int{0, 1, len(golden) / 2, len(golden) - 1, len(golden)} {
		f.Add([]byte(nil), uint16(cut))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		checkStream(t, data)
		checkStream(t, golden[:int(cut)%(len(golden)+1)])
	})
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// span is one traced interval at a layer boundary. Spans live in memory in
// the buffer of the worker that recorded them and are written out when the
// run ends.
type span struct {
	name       string
	trial      int
	parent     int // index in the same buffer, -1 for a trial's root
	start, end int64
}

type spanBuf []span

func (b *spanBuf) add(name string, trial, parent int, start, end int64) int {
	*b = append(*b, span{name: name, trial: trial, parent: parent, start: start, end: end})
	return len(*b) - 1
}

// totals sums span durations by name, in seconds.
func (b spanBuf) totals() map[string]float64 {
	t := make(map[string]float64)
	for _, s := range b {
		t[s.name] += float64(s.end-s.start) / 1e9
	}
	return t
}

// writeSpans writes every buffer as JSON lines, one span per line, with
// parents renumbered to line indexes of the file.
func writeSpans(path string, bufs []spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := 0
	for _, b := range bufs {
		for _, s := range b {
			parent := -1
			if s.parent >= 0 {
				parent = base + s.parent
			}
			fmt.Fprintf(w, "{\"name\":%q,\"trial\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
				s.name, s.trial, parent, s.start, s.end)
		}
		base += len(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

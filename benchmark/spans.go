package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one host-clock interval recorded by the benchmark around a call
// into the program: run › setup | rep › timed › request, and ladder › layer
// › rung.  Spans of one request share its number.  They are recorded from
// the benchmark's own files only; spans inside the program are a later
// change.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 at the root
	Name    string `json:"name"`
	Request int    `json:"request,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out when the benchmark
// ends, and only if -spans names a file.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: hostNow()} }

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(parent int, name string, request int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Request: request, StartNS: hostSince(l.t0)})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) { l.spans[id].EndNS = hostSince(l.t0) }

// write stores the spans as one JSON array.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

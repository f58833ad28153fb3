package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"raidii/internal/sim"
)

// WriteChrome emits one or more recorders as a Chrome trace_event JSON
// document (the "JSON Object Format": {"traceEvents": [...]}).  Each
// recorder appears as one trace process, its simulated processes as
// threads, its spans as complete ("X") events, and its resource occupancy
// as counter ("C") events.
//
// Timestamps are simulated microseconds rendered with fixed millinanosecond
// precision, so the output is byte-identical across identical runs.  Load
// the file in https://ui.perfetto.dev or chrome://tracing.
func WriteChrome(w io.Writer, recs ...*Recorder) error {
	bw := bufio.NewWriter(w)
	// bufio errors are sticky: every WriteString after a failure is a
	// no-op and the final Flush reports the first error.
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	for _, rec := range recs {
		pid := rec.cfg.Pid
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			pid, jstr(rec.cfg.Label)))
		rec.procs.forEach(func(p *procRec) {
			emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				pid, p.id, jstr(p.name)))
		})
		now := rec.eng.Now()
		rec.procs.forEach(func(p *procRec) {
			// Processes still running at export time close at now.
			emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"cat":"proc","name":%s,"ts":%s,"dur":%s}`,
				pid, p.id, jstr(p.name), tsUS(p.start), durUS(p.end, p.start, now)))
		})
		rec.spans.forEach(func(s *spanRec) {
			emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"cat":%s,"name":%s,"ts":%s,"dur":%s}`,
				pid, s.tid, jstr(s.cat), jstr(s.name), tsUS(s.start), durUS(s.end, s.start, now)))
		})
		rec.counters.forEach(func(c *counterRec) {
			emit(fmt.Sprintf(`{"ph":"C","pid":%d,"name":%s,"ts":%s,"args":{"busy":%d,"queued":%d}}`,
				pid, jstr(rec.resources[c.res].Name), tsUS(c.at), c.busy, c.waiting))
		})
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// tsUS renders a simulated time as trace_event microseconds with three
// fractional digits (nanosecond resolution, fixed width — no float
// formatting in the output path).
func tsUS(t sim.Time) string {
	ns := int64(t)
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// durUS renders end-start as microseconds, substituting now for open ends.
func durUS(end, start, now sim.Time) string {
	if end < 0 {
		end = now
	}
	return tsUS(end - start)
}

// jstr JSON-encodes a string.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshal of a string cannot fail; keep the exporter total anyway.
		return `"?"`
	}
	return string(b)
}

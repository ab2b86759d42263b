package sim

import "bytes"

// EventStreamWriter adapts a per-line sink into the io.Writer
// Config.EventLog expects, so the JSONL event log can be tailed live
// (e.g. streamed over HTTP as NDJSON) instead of only post-processed
// from a file. Written bytes are split on '\n'; each complete line is
// handed to the sink without the newline, and a trailing partial line
// is buffered until the next Write or Close. The sink must not retain
// the slice past the call.
//
// The simulator writes one line per Write, so under normal wiring the
// sink fires exactly once per event with no buffering; the splitting
// makes the adapter correct for any writer that coalesces or splits
// lines (bufio wrappers, tees).
type EventStreamWriter struct {
	sink func(line []byte)
	buf  []byte
}

// NewEventStreamWriter returns a streaming event-log writer delivering
// complete JSONL lines to sink.
func NewEventStreamWriter(sink func(line []byte)) *EventStreamWriter {
	return &EventStreamWriter{sink: sink}
}

// Write implements io.Writer; it never fails.
func (w *EventStreamWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := w.buf[:i]
		if len(line) > 0 {
			w.sink(line)
		}
		w.buf = w.buf[i+1:]
	}
}

// Close flushes a trailing partial line, if any. The writer remains
// usable; Close exists so torn final lines (crash artefacts) still
// reach the sink.
func (w *EventStreamWriter) Close() error {
	if len(w.buf) > 0 {
		w.sink(w.buf)
		w.buf = nil
	}
	return nil
}

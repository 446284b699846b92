package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// ChromeTraceWriter is a SpanSink emitting Chrome trace_event JSON (the
// format chrome://tracing and Perfetto load directly): one "X" complete
// event per span, with span lanes rendered as threads so each runner worker
// gets its own track. The output is a single JSON
// array; Close terminates it.
//
// Like TraceWriter, a write failure never fails the observed run — the
// first error is latched and surfaced by Flush/Close.
type ChromeTraceWriter struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	c     io.Closer
	err   error
	wrote bool         // the opening "[" has been emitted
	named map[int]bool // lanes that already got a thread_name metadata event
}

// chromeEvent is one trace_event entry. Field order is fixed by the struct,
// which keeps the output deterministic for golden tests.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewChromeTraceWriter wraps w. When w is also an io.Closer, Close closes it
// after terminating the JSON array.
func NewChromeTraceWriter(w io.Writer) *ChromeTraceWriter {
	t := &ChromeTraceWriter{bw: bufio.NewWriter(w), named: map[int]bool{}}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Record implements SpanSink.
func (t *ChromeTraceWriter) Record(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.named[rec.Lane] {
		t.named[rec.Lane] = true
		name := "control"
		if rec.Lane > 0 {
			name = "worker " + strconv.Itoa(rec.Lane)
		}
		t.emit(chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  1,
			Tid:  rec.Lane,
			Args: map[string]any{"name": name},
		})
	}
	ev := chromeEvent{
		Name: rec.Name,
		Cat:  "span",
		Ph:   "X",
		Ts:   float64(rec.StartUnixNs) / 1e3, // trace_event timestamps are microseconds
		Dur:  float64(rec.DurationNs) / 1e3,
		Pid:  1,
		Tid:  rec.Lane,
	}
	if rec.Technique != "" {
		ev.Name = rec.Name + " " + rec.Technique
	}
	args := map[string]any{}
	if rec.TraceID != "" {
		args["trace_id"] = rec.TraceID
		args["span_id"] = rec.SpanID
	}
	if rec.ParentID != "" {
		args["parent_id"] = rec.ParentID
	}
	if rec.Technique != "" {
		args["technique"] = rec.Technique
	}
	if rec.Spec != "" {
		args["spec"] = rec.Spec
	}
	if rec.Outcome != "" {
		args["outcome"] = rec.Outcome
	}
	for k, v := range rec.Attrs {
		args[k] = v
	}
	for k, v := range rec.Metrics {
		args[k] = v
	}
	if len(args) > 0 {
		ev.Args = args
	}
	t.emit(ev)
}

// emit writes one event with array punctuation; the caller holds t.mu.
func (t *ChromeTraceWriter) emit(ev chromeEvent) {
	b, err := json.Marshal(ev)
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		return
	}
	var werr error
	if !t.wrote {
		t.wrote = true
		_, werr = t.bw.WriteString("[\n")
	} else {
		_, werr = t.bw.WriteString(",\n")
	}
	if werr == nil {
		_, werr = t.bw.Write(b)
	}
	if werr != nil && t.err == nil {
		t.err = werr
	}
}

// Flush drains the buffer without terminating the array; the file is not
// valid JSON until Close. Returns the first latched error.
func (t *ChromeTraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ferr := t.bw.Flush()
	if t.err != nil {
		return t.err
	}
	return ferr
}

// Close terminates the JSON array, flushes, and closes the underlying
// writer when it is closable.
func (t *ChromeTraceWriter) Close() error {
	t.mu.Lock()
	if !t.wrote {
		_, _ = t.bw.WriteString("[")
	}
	_, werr := t.bw.WriteString("\n]\n")
	if werr != nil && t.err == nil {
		t.err = werr
	}
	ferr := t.bw.Flush()
	err := t.err
	if err == nil {
		err = ferr
	}
	t.mu.Unlock()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

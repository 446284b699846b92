package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

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

// WritePerfetto renders a span trace as Chrome trace_event JSON (the format
// Perfetto and chrome://tracing load directly): one JSON array holding one
// "X" complete event per record, in record order. Span lanes render as
// threads so each runner worker gets its own track; a lane's thread_name
// metadata event precedes its first record.
func WritePerfetto(w io.Writer, recs []SpanRecord) error {
	bw := bufio.NewWriter(w)
	sep := "[\n"
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		bw.WriteString(sep)
		sep = ",\n"
		bw.Write(b) // a write error latches in bw and surfaces from Flush
		return nil
	}
	named := map[int]bool{}
	for _, rec := range recs {
		if !named[rec.Lane] {
			named[rec.Lane] = true
			name := "control"
			if rec.Lane > 0 {
				name = "worker " + strconv.Itoa(rec.Lane)
			}
			if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: rec.Lane,
				Args: map[string]any{"name": name}}); err != nil {
				return err
			}
		}
		if err := emit(chromeEventOf(rec)); err != nil {
			return err
		}
	}
	if sep == "[\n" {
		bw.WriteString("[")
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// chromeEventOf maps one span record to its "X" complete event.
func chromeEventOf(rec SpanRecord) chromeEvent {
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
	return ev
}

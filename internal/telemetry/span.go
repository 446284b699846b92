package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// SpanRecord is the JSONL wire form of one finished span. Every line of a
// trace file is one SpanRecord encoded with encoding/json. Records carry
// hierarchy fields (trace/span/parent IDs) when produced by the Span tracer;
// legacy flat traces omit them, and old readers ignore them.
type SpanRecord struct {
	Name      string `json:"name"`
	Technique string `json:"technique,omitempty"`
	Spec      string `json:"spec,omitempty"`
	// Hierarchy: TraceID groups one run's tree, SpanID identifies this span,
	// ParentID is empty on roots. Lane is the display track (worker index).
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	Lane     int    `json:"lane,omitempty"`
	// StartUnixNs is the span's wall-clock start (Unix nanoseconds).
	StartUnixNs int64  `json:"start_unix_ns"`
	DurationNs  int64  `json:"duration_ns"`
	Outcome     string `json:"outcome,omitempty"`
	REP         int    `json:"rep"`

	Candidates    int `json:"candidates,omitempty"`
	AnalyzerCalls int `json:"analyzer_calls,omitempty"`
	TestRuns      int `json:"test_runs,omitempty"`
	Iterations    int `json:"iterations,omitempty"`

	Solves          int64 `json:"solves,omitempty"`
	Conflicts       int64 `json:"conflicts,omitempty"`
	Decisions       int64 `json:"decisions,omitempty"`
	Propagations    int64 `json:"propagations,omitempty"`
	BudgetExhausted int64 `json:"budget_exhausted,omitempty"`
	SolveNs         int64 `json:"solve_ns,omitempty"`
	CacheHits       int64 `json:"cache_hits,omitempty"`
	CacheMisses     int64 `json:"cache_misses,omitempty"`

	IncQueries        int64 `json:"inc_queries,omitempty"`
	IncFallbacks      int64 `json:"inc_fallbacks,omitempty"`
	IncCarriedLearnts int64 `json:"inc_carried_learnts,omitempty"`

	// Attrs and Metrics are the tracer's typed span payload (empty on job
	// records, whose well-known fields live above).
	Attrs   map[string]string `json:"attrs,omitempty"`
	Metrics map[string]int64  `json:"metrics,omitempty"`
}

// span converts a JobRecord into its wire form, stamping the hierarchy IDs
// when the job ran under a trace span.
func (jr JobRecord) span() SpanRecord {
	sp := jr.Span
	return SpanRecord{
		Name:              "job",
		Technique:         jr.Technique,
		Spec:              jr.Spec,
		TraceID:           sp.TraceID(),
		SpanID:            sp.ID(),
		ParentID:          sp.ParentID(),
		Lane:              sp.Lane(),
		StartUnixNs:       jr.Start.UnixNano(),
		DurationNs:        jr.Duration.Nanoseconds(),
		Outcome:           jr.Outcome,
		REP:               jr.REP,
		Candidates:        jr.Candidates,
		AnalyzerCalls:     jr.AnalyzerCalls,
		TestRuns:          jr.TestRuns,
		Iterations:        jr.Iterations,
		Solves:            jr.Effort.Solves,
		Conflicts:         jr.Effort.Conflicts,
		Decisions:         jr.Effort.Decisions,
		Propagations:      jr.Effort.Propagations,
		BudgetExhausted:   jr.Effort.BudgetExhausted,
		SolveNs:           jr.Effort.SolveNs,
		CacheHits:         jr.Effort.CacheHits,
		CacheMisses:       jr.Effort.CacheMisses,
		IncQueries:        jr.Effort.IncQueries,
		IncFallbacks:      jr.Effort.IncFallbacks,
		IncCarriedLearnts: jr.Effort.IncCarriedLearnts,
	}
}

// SpanSink receives finished spans. Implementations must be safe for
// concurrent use — the runner's workers record from many goroutines.
type SpanSink interface {
	Record(SpanRecord)
}

// TraceWriter is a SpanSink writing one JSON object per line (JSONL). It
// buffers; call Close (or Flush) before reading the output.
type TraceWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error // first Record failure, surfaced by Flush/Close
}

// NewTraceWriter wraps w. When w is also an io.Closer, Close closes it
// after flushing.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	t := &TraceWriter{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Record implements SpanSink. A failing encode never fails the run it
// observes, but the first error is latched and surfaced by Flush/Close so a
// truncated trace is detected instead of silently half-written.
func (t *TraceWriter) Record(rec SpanRecord) {
	t.mu.Lock()
	if err := t.enc.Encode(rec); err != nil && t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// Flush drains the buffer to the underlying writer. It returns the first
// error seen by any Record (or the flush error itself).
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ferr := t.bw.Flush()
	if t.err != nil {
		return t.err
	}
	return ferr
}

// Close flushes and closes the underlying writer when it is closable.
func (t *TraceWriter) Close() error {
	err := t.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

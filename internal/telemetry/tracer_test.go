package telemetry

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// captureSink records spans in memory for assertions.
type captureSink struct {
	mu   sync.Mutex
	recs []SpanRecord
}

func (c *captureSink) Record(rec SpanRecord) {
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
}

func (c *captureSink) byKind(kind string) []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []SpanRecord
	for _, r := range c.recs {
		if r.Name == kind {
			out = append(out, r)
		}
	}
	return out
}

// TestSpanNilSafety drives the whole span API on nils: nil registry, no
// sink, nil spans, and nil-span contexts must all be free no-ops.
func TestSpanNilSafety(t *testing.T) {
	var nilReg *Registry
	if sp := nilReg.StartSpan("study"); sp != nil {
		t.Fatal("nil registry produced a span")
	}
	reg := New() // no sink installed
	if reg.Tracing() {
		t.Fatal("registry without sink reports tracing")
	}
	if sp := reg.StartSpan("study"); sp != nil {
		t.Fatal("sinkless registry produced a span")
	}
	var sp *Span
	sp.SetAttr("k", "v")
	sp.SetMetric("m", 1)
	sp.SetLane(3)
	sp.End()
	sp.closeQuiet(time.Second)
	if c := sp.Child("x"); c != nil {
		t.Fatal("nil span produced a child")
	}
	if sp.ID() != "" || sp.ParentID() != "" || sp.TraceID() != "" || sp.Kind() != "" {
		t.Fatal("nil span has identity")
	}
	ctx := context.Background()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Fatal("ContextWithSpan(nil) wrapped the context")
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Fatal("empty context produced a span")
	}
	cctx, child := StartChild(ctx, "x")
	if cctx != ctx || child != nil {
		t.Fatal("StartChild without parent span was not a no-op")
	}
}

// TestSpanTree builds a small tree and checks IDs, parents, and emission
// order (children end before parents).
func TestSpanTree(t *testing.T) {
	sink := &captureSink{}
	reg := New()
	reg.SetSink(sink)

	root := reg.StartSpan("study")
	if root == nil {
		t.Fatal("no root span with a sink installed")
	}
	if root.TraceID() != root.ID() {
		t.Fatalf("root trace %q != id %q", root.TraceID(), root.ID())
	}
	job := root.Child("job")
	job.SetLane(2)
	job.SetAttr("technique", "ATR")
	solve := job.Child("sat.solve")
	solve.SetMetric("conflicts", 7)
	if solve.Lane() != 2 {
		t.Fatalf("child lane %d, want inherited 2", solve.Lane())
	}
	solve.End()
	solve.End() // double End is a no-op
	job.End()
	root.End()

	if n := len(sink.recs); n != 3 {
		t.Fatalf("got %d records, want 3", n)
	}
	s, j, r := sink.recs[0], sink.recs[1], sink.recs[2]
	if s.Name != "sat.solve" || j.Name != "job" || r.Name != "study" {
		t.Fatalf("emission order %s,%s,%s", s.Name, j.Name, r.Name)
	}
	if s.ParentID != j.SpanID || j.ParentID != r.SpanID || r.ParentID != "" {
		t.Fatal("parent links broken")
	}
	if s.TraceID != r.SpanID || j.TraceID != r.SpanID {
		t.Fatal("trace IDs do not match the root")
	}
	if s.Metrics["conflicts"] != 7 || j.Attrs["technique"] != "ATR" {
		t.Fatal("attrs/metrics lost")
	}
	if j.Lane != 2 || s.Lane != 2 {
		t.Fatal("lanes lost")
	}
}

// TestSpanConcurrentChildren fans out child spans from many goroutines on
// one parent (the runner's shape: each pool worker opens its job spans under
// the shared study span); run with -race.
func TestSpanConcurrentChildren(t *testing.T) {
	sink := &captureSink{}
	reg := New()
	reg.SetSink(sink)
	root := reg.StartSpan("study")

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.Child("job")
			c.SetMetric("idx", int64(i))
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()

	workers := sink.byKind("job")
	if len(workers) != n {
		t.Fatalf("got %d worker spans, want %d", len(workers), n)
	}
	ids := map[string]bool{}
	for _, w := range workers {
		if ids[w.SpanID] {
			t.Fatalf("duplicate span ID %s", w.SpanID)
		}
		ids[w.SpanID] = true
		if w.ParentID != root.ID() {
			t.Fatalf("worker parent %s, want %s", w.ParentID, root.ID())
		}
	}
}

// TestJobRecordSingleEmission checks that a job with a Span produces exactly
// one record — the JobRecord line, stamped with the span's IDs.
func TestJobRecordSingleEmission(t *testing.T) {
	sink := &captureSink{}
	reg := New()
	reg.SetSink(sink)
	root := reg.StartSpan("study")
	job := root.Child("job")
	job.SetLane(4)

	start := time.Now()
	reg.RecordJob(JobRecord{
		Span: job, Technique: "ATR", Spec: "s", Start: start,
		Duration: 10 * time.Millisecond, Outcome: OutcomeRepaired, REP: 1,
	})
	root.End()

	jobs := sink.byKind("job")
	if len(jobs) != 1 {
		t.Fatalf("got %d job records, want exactly 1", len(jobs))
	}
	jr := jobs[0]
	if jr.SpanID != job.ID() || jr.ParentID != root.ID() || jr.TraceID != root.ID() || jr.Lane != 4 {
		t.Fatalf("job record not stamped with span identity: %+v", jr)
	}
	if jr.Technique != "ATR" || jr.Outcome != OutcomeRepaired {
		t.Fatal("job payload lost")
	}
	// The quiet close still fed the parent's child-time accumulator.
	studies := sink.byKind("study")
	if len(studies) != 1 {
		t.Fatalf("got %d study records, want 1", len(studies))
	}
}

// TestActiveTracking exercises the dashboard's data source: in-flight spans
// and per-kind self time.
func TestActiveTracking(t *testing.T) {
	reg := New()
	reg.SetSink(Discard)
	reg.TrackActive(true)

	root := reg.StartSpan("study")
	job := root.Child("job")
	inner := job.Child("sat.solve")

	active := reg.ActiveSpans()
	if len(active) != 3 {
		t.Fatalf("got %d active spans, want 3", len(active))
	}
	if inner.ActiveParent() != job || job.ActiveParent() != root || root.ActiveParent() != nil {
		t.Fatal("ActiveParent chain broken")
	}

	inner.End()
	job.End()
	root.End()
	if n := len(reg.ActiveSpans()); n != 0 {
		t.Fatalf("%d spans still active after End", n)
	}
	self := reg.KindSelfTimes()
	for _, kind := range []string{"study", "job", "sat.solve"} {
		if _, ok := self[kind]; !ok {
			t.Fatalf("no self time recorded for %s (got %v)", kind, self)
		}
	}
}

// TestTraceWriterSurfacesEncodeError checks the first-error latch: a record
// that fails to encode must surface via Flush/Close rather than vanish.
func TestTraceWriterSurfacesEncodeError(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	// NaN is not representable in JSON; json.Encoder fails on it.
	tw.Record(SpanRecord{Name: "bad", Attrs: map[string]string{"k": "v"}, Metrics: nil,
		StartUnixNs: 1, DurationNs: 1})
	if err := tw.Flush(); err != nil {
		t.Fatalf("well-formed record errored: %v", err)
	}
	ew := &errWriter{}
	tw2 := NewTraceWriter(ew)
	big := SpanRecord{Name: strings.Repeat("x", 8192)}
	for i := 0; i < 16; i++ { // overflow the 4KiB bufio buffer to force writes
		tw2.Record(big)
	}
	if err := tw2.Flush(); err == nil {
		t.Fatal("write failure did not surface via Flush")
	}
	if err := tw2.Close(); err == nil {
		t.Fatal("write failure did not surface via Close")
	}
}

type errWriter struct{}

func (*errWriter) Write(p []byte) (int, error) {
	return 0, errors.New("disk full")
}

package sat

import (
	"sync"
	"testing"

	"specrepair/internal/telemetry"
)

// traceSink records spans in memory for assertions.
type traceSink struct {
	mu   sync.Mutex
	recs []telemetry.SpanRecord
}

func (c *traceSink) Record(rec telemetry.SpanRecord) {
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
}

func (c *traceSink) byKind(kind string) []telemetry.SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []telemetry.SpanRecord
	for _, r := range c.recs {
		if r.Name == kind {
			out = append(out, r)
		}
	}
	return out
}

// TestSolverSpan checks that a solver with a span emits one sat.solve child
// per Solve call, with status and effort metrics.
func TestSolverSpan(t *testing.T) {
	sink := &traceSink{}
	reg := telemetry.New()
	reg.SetSink(sink)
	parent := reg.StartSpan("test")

	s := NewSolver(Options{})
	s.SetSpan(parent)
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a))
	if st := s.Solve(); st != StatusSat {
		t.Fatalf("status %v", st)
	}
	parent.End()

	solves := sink.byKind("sat.solve")
	if len(solves) != 1 {
		t.Fatalf("got %d sat.solve spans, want 1", len(solves))
	}
	sr := solves[0]
	if sr.ParentID != parent.ID() {
		t.Fatalf("solve parent %s, want %s", sr.ParentID, parent.ID())
	}
	if sr.Attrs["status"] != "SAT" {
		t.Fatalf("status attr %q", sr.Attrs["status"])
	}
	if _, ok := sr.Metrics["decisions"]; !ok {
		t.Fatalf("no decisions metric: %v", sr.Metrics)
	}
}

// TestSolverSpanUntracedFree: with no sink the solver span path must stay
// nil and Solve must work unchanged.
func TestSolverSpanUntracedFree(t *testing.T) {
	reg := telemetry.New() // no sink
	if sp := reg.StartSpan("x"); sp != nil {
		t.Fatal("span without sink")
	}
	s := NewSolver(Options{})
	s.SetSpan(nil)
	v := s.NewVar()
	s.AddClause(PosLit(v))
	if st := s.Solve(); st != StatusSat {
		t.Fatalf("status %v", st)
	}
}

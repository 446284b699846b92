package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

// tracedRegistry returns a registry whose spans land in a recording sink,
// and a context bound to a root span of it.
func tracedRegistry() (*telemetry.Registry, *recordingSink, context.Context) {
	reg := telemetry.New()
	sink := &recordingSink{}
	reg.SetSink(sink)
	return reg, sink, telemetry.ContextWithSpan(context.Background(), reg.StartSpan("study"))
}

// panicWork scores a field, then panics the way a buggy technique would.
func panicWork(_ context.Context, res *Result) {
	res.TM = 0.5
	panic("boom")
}

// wedgedWork parks until its context ends, like a pathological search.
func wedgedWork(ctx context.Context, res *Result) {
	<-ctx.Done()
	res.Err = ctx.Err()
}

func TestRunJobRecoversPanic(t *testing.T) {
	reg, sink, ctx := tracedRegistry()
	res := &Result{Technique: "panicky"}
	RunJob(ctx, telemetry.NewCollector(reg), Job{Technique: "panicky", Spec: "suite/a", Lane: 3}, res, panicWork)

	var pe *PanicError
	if !errors.As(res.Err, &pe) || pe.Value != "boom" || pe.Stack == "" {
		t.Fatalf("err = %v, want a *PanicError for boom with a stack", res.Err)
	}
	if res.TM != 0.5 {
		t.Errorf("TM = %v, want the 0.5 scored before the panic", res.TM)
	}
	for name, want := range map[string]int64{
		telemetry.CtrJobPanics:    1,
		telemetry.CtrJobs:         1,
		telemetry.CtrJobsErrored:  1,
		telemetry.CtrJobTimeouts:  0,
		telemetry.CtrJobCancelled: 0,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if len(sink.spans) != 1 {
		t.Fatalf("sink got %d spans, want the one job record", len(sink.spans))
	}
	sr := sink.spans[0]
	if sr.Name != "job" || sr.Technique != "panicky" || sr.Spec != "suite/a" || sr.Lane != 3 ||
		sr.Outcome != telemetry.OutcomeError || sr.ParentID == "" {
		t.Errorf("job record = %+v", sr)
	}
}

func TestRunJobTimeout(t *testing.T) {
	reg, _, ctx := tracedRegistry()
	res := &Result{Technique: "wedged"}
	var seen *telemetry.Span
	RunJob(ctx, telemetry.NewCollector(reg), Job{Technique: "wedged", Spec: "suite/a", Timeout: 20 * time.Millisecond}, res,
		func(ctx context.Context, res *Result) {
			seen = telemetry.SpanFromContext(ctx)
			wedgedWork(ctx, res)
		})
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", res.Err)
	}
	if seen == nil || seen.Kind() != "job" {
		t.Errorf("work saw span %v, want the job span", seen)
	}
	if got := reg.CounterValue(telemetry.CtrJobTimeouts); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	if got := reg.CounterValue(telemetry.CtrJobCancelled); got != 0 {
		t.Errorf("cancelled = %d, want 0 (a deadline is not a cancellation)", got)
	}
}

// TestRunJobNilRegistry runs the same jobs with no collector, under a traced
// context: the results match the instrumented runs, and no job span is
// opened or recorded.
func TestRunJobNilRegistry(t *testing.T) {
	cases := []struct {
		name string
		job  Job
		work func(context.Context, *Result)
	}{
		{"panic", Job{Technique: "panicky"}, panicWork},
		{"timeout", Job{Technique: "wedged", Timeout: 20 * time.Millisecond}, wedgedWork},
		{"repaired", Job{Technique: "fine"}, func(_ context.Context, res *Result) {
			res.Outcome = repair.Outcome{Repaired: true, Stats: repair.Stats{CandidatesTried: 4}}
			res.REP = 1
		}},
	}
	for _, c := range cases {
		reg, sink, ctx := tracedRegistry()
		traced := &Result{Technique: c.job.Technique}
		RunJob(ctx, telemetry.NewCollector(reg), c.job, traced, c.work)

		plain := &Result{Technique: c.job.Technique}
		var seen *telemetry.Span
		RunJob(ctx, nil, c.job, plain, func(ctx context.Context, res *Result) {
			seen = telemetry.SpanFromContext(ctx)
			c.work(ctx, res)
		})
		if seen.Kind() != "study" {
			t.Errorf("%s: untraced work saw a %q span, want the caller's", c.name, seen.Kind())
		}
		if len(sink.spans) != 1 {
			t.Errorf("%s: sink got %d records, want only the traced run's", c.name, len(sink.spans))
		}
		if errString(plain.Err) != errString(traced.Err) || plain.Outcome.Repaired != traced.Outcome.Repaired ||
			plain.Outcome.Stats != traced.Outcome.Stats || plain.REP != traced.REP || plain.TM != traced.TM {
			t.Errorf("%s: untraced %+v, traced %+v", c.name, plain, traced)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"specrepair/internal/telemetry"
)

// Job describes one technique run on one spec, the unit RunJob executes.
type Job struct {
	Technique string
	// Spec labels the job's span and record: "suite/spec" in a study, the
	// job ID in repaird, the input path in specrepair.
	Spec string
	// Lane is the trace lane, the executing worker's index plus one.
	Lane int
	// Timeout, when positive, bounds the job's wall clock; a job that
	// exceeds it ends with a context.DeadlineExceeded error.
	Timeout time.Duration
}

// PanicError wraps a panic recovered from a repair technique, attributing it
// to the job that raised it while the rest of the run continues.
type PanicError struct {
	Value any
	Stack string
}

// Error renders the panic value; the captured stack is available on the
// struct for diagnostics but excluded here so error strings stay
// deterministic.
func (e *PanicError) Error() string { return fmt.Sprintf("technique panicked: %v", e.Value) }

// RunJob executes one job: the study runner's workers, a sharded study's
// worker processes, repaird and specrepair all run their jobs through it.
// It derives the job's deadline from ctx, opens a "job" span under ctx's
// span and binds it to the context work sees, and runs work behind a panic
// barrier. work fills res in place; a panic is joined onto res.Err as a
// *PanicError and leaves whatever work had filled in so far. The job is then
// recorded on col's registry (outcome, REP, technique stats, the effort col
// attributed to it, the span), and timeouts, recovered panics and
// cancellations are counted. With a nil col no span is opened, nothing is
// recorded, and res comes out the same.
func RunJob(ctx context.Context, col *telemetry.Collector, j Job, res *Result, work func(context.Context, *Result)) {
	cancel := context.CancelFunc(func() {})
	if j.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.Timeout)
	}
	reg := col.Registry()
	var span *telemetry.Span
	if reg != nil {
		span = telemetry.SpanFromContext(ctx).Child("job")
	}
	span.SetLane(j.Lane)
	span.SetAttr("technique", j.Technique)
	span.SetAttr("spec", j.Spec)
	ctx = telemetry.ContextWithSpan(ctx, span)

	col.BeginJob()
	start := time.Now()
	protect(ctx, res, work)
	dur := time.Since(start)
	cancel()

	outcome := telemetry.OutcomeFailed
	switch {
	case res.Err != nil:
		outcome = telemetry.OutcomeError
	case res.Outcome.Repaired:
		outcome = telemetry.OutcomeRepaired
	}
	reg.RecordJob(telemetry.JobRecord{
		Technique:     j.Technique,
		Spec:          j.Spec,
		Start:         start,
		Duration:      dur,
		Outcome:       outcome,
		REP:           res.REP,
		Candidates:    res.Outcome.Stats.CandidatesTried,
		AnalyzerCalls: res.Outcome.Stats.AnalyzerCalls,
		TestRuns:      res.Outcome.Stats.TestRuns,
		Iterations:    res.Outcome.Stats.Iterations,
		Effort:        col.TakeJobEffort(),
		Span:          span,
	})

	// The fault counters exist from the first job on, so /metrics shows
	// them at zero rather than not at all. A job-level deadline surfaces as
	// DeadlineExceeded; Canceled can only come from the caller's context.
	timeouts := reg.Counter(telemetry.CtrJobTimeouts)
	panics := reg.Counter(telemetry.CtrJobPanics)
	cancelled := reg.Counter(telemetry.CtrJobCancelled)
	if res.Err == nil {
		return
	}
	switch {
	case errors.Is(res.Err, context.Canceled):
		cancelled.Inc()
	case errors.Is(res.Err, context.DeadlineExceeded):
		timeouts.Inc()
	}
	var pe *PanicError
	if errors.As(res.Err, &pe) {
		panics.Inc()
	}
}

// protect runs work, recovering a panic into a *PanicError on res.Err.
func protect(ctx context.Context, res *Result, work func(context.Context, *Result)) {
	defer func() {
		if v := recover(); v != nil {
			res.Err = errors.Join(res.Err, &PanicError{Value: v, Stack: string(debug.Stack())})
		}
	}()
	work(ctx, res)
}

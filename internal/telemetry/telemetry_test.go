package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestNilSafety exercises every recording entry point on nil receivers: the
// disabled-telemetry path must be a total no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Histogram("y").Observe(1)
	reg.SetGauge("g", func() int64 { return 1 })
	reg.SetSink(nil)
	reg.RecordJob(JobRecord{Technique: "T", Spec: "s"})
	if reg.CounterValue(CtrJobs) != 0 {
		t.Error("nil registry recorded a job")
	}
	if got := reg.Brief(); got != (Brief{}) {
		t.Errorf("nil Brief = %+v", got)
	}
	if reg.Techniques() != nil || reg.Specs() != nil {
		t.Error("nil registry has aggregates")
	}

	col := NewCollector(nil)
	if col != nil {
		t.Fatal("NewCollector(nil) should be nil")
	}
	col.RecordSolve(time.Millisecond, 1, 2, 3, true)
	col.RecordLookup(EPCommand, true, time.Millisecond)
	col.RecordTranslation(1, 2, 3)
	col.BeginJob()
	if e := col.TakeJobEffort(); e != (JobEffort{}) {
		t.Errorf("nil collector effort = %+v", e)
	}
	if !col.Clock().IsZero() {
		t.Error("nil collector Clock should be zero")
	}
	if col.Since(time.Now()) != 0 {
		t.Error("nil collector Since should be 0")
	}
}

// TestConcurrentHammer drives one registry from many goroutines under the
// race detector and checks the totals are exact.
func TestConcurrentHammer(t *testing.T) {
	reg := New()
	const workers = 16
	const perWorker = 500

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			col := NewCollector(reg)
			for i := 0; i < perWorker; i++ {
				col.BeginJob()
				col.RecordSolve(time.Microsecond, 3, 5, 7, i%10 == 0)
				col.RecordLookup(EPCommand, i%2 == 0, time.Microsecond)
				col.RecordTranslation(10, 20, 30)
				eff := col.TakeJobEffort()
				reg.RecordJob(JobRecord{
					Technique:  "Hammer",
					Spec:       "spec",
					Start:      time.Now(),
					Duration:   time.Microsecond,
					Outcome:    OutcomeRepaired,
					Candidates: 1,
					Effort:     eff,
				})
			}
		}()
	}
	wg.Wait()

	total := int64(workers * perWorker)
	if got := reg.CounterValue(CtrSolves); got != total {
		t.Errorf("solves = %d, want %d", got, total)
	}
	if got := reg.CounterValue(CtrConflicts); got != 3*total {
		t.Errorf("conflicts = %d, want %d", got, 3*total)
	}
	if got := reg.CounterValue(CtrBudgetExhausted); got != total/10 {
		t.Errorf("exhausted = %d, want %d", got, total/10)
	}
	if got := reg.CounterValue(CtrAnalyzerHits) + reg.CounterValue(CtrAnalyzerMisses); got != total {
		t.Errorf("lookups = %d, want %d", got, total)
	}
	if got := reg.CounterValue(CtrJobs); got != total {
		t.Errorf("jobs = %d, want %d", got, total)
	}
	snap, ok := reg.HistogramSnapshot(HistSolveNs)
	if !ok || snap.Count != total {
		t.Errorf("solve histogram count = %d (ok=%v), want %d", snap.Count, ok, total)
	}

	techs := reg.Techniques()
	if len(techs) != 1 || techs[0].Technique != "Hammer" {
		t.Fatalf("techniques = %+v", techs)
	}
	if techs[0].Jobs != total || techs[0].Repaired != total {
		t.Errorf("tech jobs/repaired = %d/%d, want %d", techs[0].Jobs, techs[0].Repaired, total)
	}
	if techs[0].Conflicts != 3*total {
		t.Errorf("tech conflicts = %d, want %d", techs[0].Conflicts, 3*total)
	}
	if techs[0].Candidates != total {
		t.Errorf("tech candidates = %d, want %d", techs[0].Candidates, total)
	}
	specs := reg.Specs()
	if len(specs) != 1 || specs[0].Jobs != total || specs[0].Solves != total {
		t.Fatalf("specs = %+v", specs)
	}
	brief := reg.Brief()
	if brief.Jobs != total || brief.Repaired != total || brief.Solves != total {
		t.Errorf("brief = %+v", brief)
	}
}

// TestJobEffortIsolation checks BeginJob/TakeJobEffort brackets attribute
// work to exactly one job.
func TestJobEffortIsolation(t *testing.T) {
	reg := New()
	col := NewCollector(reg)

	col.BeginJob()
	col.RecordSolve(time.Millisecond, 10, 20, 30, false)
	first := col.TakeJobEffort()
	if first.Solves != 1 || first.Conflicts != 10 || first.Decisions != 20 || first.Propagations != 30 {
		t.Errorf("first effort = %+v", first)
	}

	col.BeginJob()
	second := col.TakeJobEffort()
	if second != (JobEffort{}) {
		t.Errorf("second job effort leaked: %+v", second)
	}

	// Registry-level counters keep the cumulative totals.
	if got := reg.CounterValue(CtrConflicts); got != 10 {
		t.Errorf("registry conflicts = %d, want 10", got)
	}
}

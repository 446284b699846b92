package main

import (
	"strings"
	"sync"

	"specrepair/internal/telemetry"
)

// spanSink keeps every finished span in memory; the breakdown is computed
// once the traced run has ended.
type spanSink struct {
	mu   sync.Mutex
	recs []telemetry.SpanRecord
}

func (s *spanSink) Record(rec telemetry.SpanRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *spanSink) records() []telemetry.SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]telemetry.SpanRecord(nil), s.recs...)
}

// tracedRegistry returns a registry that records every span into sink.
func tracedRegistry() (*telemetry.Registry, *spanSink) {
	reg := telemetry.New()
	sink := &spanSink{}
	reg.SetSink(sink)
	return reg, sink
}

// shareMetric names the per-layer share a span kind's self time counts
// towards. The job span's own self time — time inside a job that no child
// span covers — is the unattributed residual.
func shareMetric(kind string) string {
	switch {
	case kind == "job":
		return "trace.unattributed_share"
	case kind == "llm.complete":
		return "llm.complete.self_share"
	case kind == "arepair.iteration":
		return "repair.arepair.self_share"
	case strings.HasPrefix(kind, "atr."):
		return "repair.atr.self_share"
	case kind == "beafix.depth":
		return "repair.beafix.self_share"
	case kind == "icebar.iteration":
		return "repair.icebar.self_share"
	case kind == "multiround.round":
		return "repair.multiround.self_share"
	case kind == "singleround.round":
		return "repair.singleround.self_share"
	case kind == "candidate.eval" || strings.HasPrefix(kind, "analyzer."):
		return "analyzer.self_share"
	case kind == "sat.solve" || strings.HasPrefix(kind, "portfolio."):
		return "sat.self_share"
	}
	// A kind this table does not know yet stays visible as unattributed.
	return "trace.unattributed_share"
}

// breakdown is the self-time accounting of the spans inside job subtrees.
type breakdown struct {
	// workerNs is Σ job span durations: the worker time the shares divide.
	workerNs int64
	// selfNs is self time per share metric.
	selfNs map[string]int64
	// count is the number of spans per kind, over every span recorded.
	count map[string]int
	// jobs lists the job spans.
	jobs []telemetry.SpanRecord
	// solveUs lists every sat.solve span's duration in microseconds.
	solveUs []float64
	spans   int
}

// analyzeSpans computes self times: a span's duration minus the durations
// of its direct children. Spans outside any job (the benchmark's own batch
// and HTTP spans, the service root) count towards span totals only.
func analyzeSpans(recs []telemetry.SpanRecord) breakdown {
	b := breakdown{selfNs: map[string]int64{}, count: map[string]int{}, spans: len(recs)}
	parent := make(map[string]string, len(recs))
	kind := make(map[string]string, len(recs))
	childNs := make(map[string]int64, len(recs))
	for _, r := range recs {
		parent[r.SpanID] = r.ParentID
		kind[r.SpanID] = r.Name
		childNs[r.ParentID] += r.DurationNs
	}
	inJob := map[string]bool{}
	var underJob func(id string) bool
	underJob = func(id string) bool {
		if id == "" {
			return false
		}
		if v, ok := inJob[id]; ok {
			return v
		}
		v := kind[id] == "job" || underJob(parent[id])
		inJob[id] = v
		return v
	}
	for _, r := range recs {
		b.count[r.Name]++
		if r.Name == "sat.solve" {
			b.solveUs = append(b.solveUs, float64(r.DurationNs)/1e3)
		}
		if !underJob(r.SpanID) {
			continue
		}
		if r.Name == "job" {
			b.workerNs += r.DurationNs
			b.jobs = append(b.jobs, r)
		}
		self := max(r.DurationNs-childNs[r.SpanID], 0)
		b.selfNs[shareMetric(r.Name)] += self
	}
	return b
}

// report writes the breakdown's shares, the accounted total, and the span
// and solve statistics, with counts given per traced batch.
func (b breakdown) report(rep *report, batches int) {
	per := float64(max(batches, 1))
	total := 0.0
	for _, s := range perLayer {
		if strings.HasSuffix(s.name, "self_share") || s.name == "trace.unattributed_share" {
			share := ratio(float64(b.selfNs[s.name]), float64(b.workerNs))
			rep.set(s.name, share)
			total += share
		}
	}
	rep.set("trace.accounted_share", total)
	rep.set("trace.spans", float64(b.spans)/per)
	rep.set("llm.complete.calls", float64(b.count["llm.complete"])/per)
	rep.set("analyzer.candidate_evals", float64(b.count["candidate.eval"])/per)
	rep.set("sat.solve_us.p50", quantile(b.solveUs, 0.50))
	rep.set("sat.solve_us.p99", quantile(b.solveUs, 0.99))
	rep.fact("samples.sat_solve_us", len(b.solveUs))
	testRuns := 0
	for _, j := range b.jobs {
		testRuns += j.TestRuns
	}
	rep.set("aunit.test_runs", float64(testRuns)/per)
}

// reportRegistry writes the per-layer figures the program's own telemetry
// registry already keeps: solver effort, incremental evaluation and
// translation sizes. Counts are per traced batch.
func reportRegistry(rep *report, reg *telemetry.Registry, batches int) {
	per := float64(max(batches, 1))
	rep.set("sat.solves", float64(reg.CounterValue(telemetry.CtrSolves))/per)
	rep.set("sat.conflicts", float64(reg.CounterValue(telemetry.CtrConflicts))/per)
	queries := reg.CounterValue(telemetry.CtrIncQueries)
	fallbacks := reg.CounterValue(telemetry.CtrIncFallbacks)
	rep.set("analyzer.incremental_fallback_ratio", ratio(float64(fallbacks), float64(queries+fallbacks)))
	if h, ok := reg.HistogramSnapshot(telemetry.HistClauses); ok {
		rep.set("translate.clauses.p50", float64(h.Quantile(0.5)))
	}
	if h, ok := reg.HistogramSnapshot(telemetry.HistSolverVars); ok {
		rep.set("translate.solver_vars.p50", float64(h.Quantile(0.5)))
	}
}

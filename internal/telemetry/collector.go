package telemetry

import (
	"sync/atomic"
	"time"
)

// JobEffort is the solver and cache work attributed to one job (one
// technique evaluated on one spec, including its REP scoring).
type JobEffort struct {
	Solves          int64
	Conflicts       int64
	Decisions       int64
	Propagations    int64
	BudgetExhausted int64
	SolveNs         int64
	CacheHits       int64
	CacheMisses     int64
	// IncQueries counts candidate evaluations answered on a long-lived
	// incremental session; IncFallbacks those that had to re-solve fresh;
	// IncCarriedLearnts sums the learnt clauses already attached when each
	// incremental solver query started.
	IncQueries        int64
	IncFallbacks      int64
	IncCarriedLearnts int64
}

// jobAcc is the atomic accumulator behind JobEffort.
type jobAcc struct {
	solves, conflicts, decisions, propagations, budgetExhausted atomic.Int64
	solveNs, cacheHits, cacheMisses                             atomic.Int64
	incQueries, incFallbacks, incCarried                        atomic.Int64
}

// epCounters are the per-entry-point lookup counters of the analyzer.
type epCounters struct {
	calls, hits, misses *Counter
}

// collectorIDs hands each collector a distinct histogram shard hint.
var collectorIDs atomic.Uint32

// Collector is a recording handle bound to one registry. The evaluation
// runner creates one per worker so that job-effort attribution is exact:
// all analyzers and techniques a worker uses share its collector, and the
// worker brackets each job with BeginJob/TakeJobEffort. All methods are
// safe for concurrent use (the registry side is shared), but job
// attribution is only meaningful when one job runs per collector at a time.
//
// A nil *Collector ignores every call, so components accept one
// unconditionally.
type Collector struct {
	reg   *Registry
	shard uint32

	satSolves, satConflicts, satDecisions, satPropagations, satExhausted *Counter
	solveNs, conflictsPerSolve, decisionsPerSolve                        *Histogram

	anaHits, anaMisses *Counter
	hitNs, missNs      *Histogram
	eps                map[string]epCounters

	incSessions, incQueries, incFallbacks, incCarried *Counter

	relVars, solverVars, clauses *Histogram

	job jobAcc
}

// Analyzer entry points as recorded by RecordLookup.
const (
	EPCommand    = "cmd"
	EPExecuteAll = "run.execute"
	EPPassesAll  = "run.passes"
	EPEquisat    = "equisat"
)

// NewCollector returns a collector bound to reg (nil for a nil registry).
func NewCollector(reg *Registry) *Collector {
	if reg == nil {
		return nil
	}
	c := &Collector{
		reg:   reg,
		shard: collectorIDs.Add(1),

		satSolves:         reg.Counter(CtrSolves),
		satConflicts:      reg.Counter(CtrConflicts),
		satDecisions:      reg.Counter(CtrDecisions),
		satPropagations:   reg.Counter(CtrPropagations),
		satExhausted:      reg.Counter(CtrBudgetExhausted),
		solveNs:           reg.Histogram(HistSolveNs),
		conflictsPerSolve: reg.Histogram(HistConflictsPerSolve),
		decisionsPerSolve: reg.Histogram(HistDecisionsPerSolve),

		anaHits:   reg.Counter(CtrAnalyzerHits),
		anaMisses: reg.Counter(CtrAnalyzerMisses),
		hitNs:     reg.Histogram(HistHitNs),
		missNs:    reg.Histogram(HistMissNs),
		eps:       map[string]epCounters{},

		incSessions:  reg.Counter(CtrIncSessions),
		incQueries:   reg.Counter(CtrIncQueries),
		incFallbacks: reg.Counter(CtrIncFallbacks),
		incCarried:   reg.Counter(CtrIncCarried),

		relVars:    reg.Histogram(HistRelVars),
		solverVars: reg.Histogram(HistSolverVars),
		clauses:    reg.Histogram(HistClauses),
	}
	for _, ep := range []string{EPCommand, EPExecuteAll, EPPassesAll, EPEquisat} {
		c.eps[ep] = epCounters{
			calls:  reg.Counter("analyzer." + ep + ".calls"),
			hits:   reg.Counter("analyzer." + ep + ".hits"),
			misses: reg.Counter("analyzer." + ep + ".misses"),
		}
	}
	return c
}

// Registry returns the backing registry (nil for a nil collector).
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Clock returns the current time when recording is enabled, and the zero
// time otherwise — the cheap guard instrumented hot paths use to avoid
// time.Now when telemetry is off.
func (c *Collector) Clock() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since is time.Since guarded the same way as Clock.
func (c *Collector) Since(t time.Time) time.Duration {
	if c == nil {
		return 0
	}
	return time.Since(t)
}

// RecordSolve folds one SAT solve into the registry: latency, the solver's
// effort deltas for this call, and whether the conflict budget ran out.
func (c *Collector) RecordSolve(d time.Duration, conflicts, decisions, propagations int64, exhausted bool) {
	if c == nil {
		return
	}
	c.satSolves.Inc()
	c.satConflicts.Add(conflicts)
	c.satDecisions.Add(decisions)
	c.satPropagations.Add(propagations)
	ns := d.Nanoseconds()
	c.solveNs.ObserveShard(c.shard, ns)
	c.conflictsPerSolve.ObserveShard(c.shard, conflicts)
	c.decisionsPerSolve.ObserveShard(c.shard, decisions)
	c.job.solves.Add(1)
	c.job.conflicts.Add(conflicts)
	c.job.decisions.Add(decisions)
	c.job.propagations.Add(propagations)
	c.job.solveNs.Add(ns)
	if exhausted {
		c.satExhausted.Inc()
		c.job.budgetExhausted.Add(1)
	}
}

// RecordLookup folds one analyzer entry-point call into the registry: the
// per-entry-point call count and the latency split between cache hits
// (replays) and misses (real computations).
func (c *Collector) RecordLookup(ep string, hit bool, d time.Duration) {
	if c == nil {
		return
	}
	epc, ok := c.eps[ep]
	if !ok {
		epc = epCounters{
			calls:  c.reg.Counter("analyzer." + ep + ".calls"),
			hits:   c.reg.Counter("analyzer." + ep + ".hits"),
			misses: c.reg.Counter("analyzer." + ep + ".misses"),
		}
		// Do not memoize: c.eps stays read-only after NewCollector so the
		// collector can be shared across goroutines.
	}
	epc.calls.Inc()
	ns := d.Nanoseconds()
	if hit {
		epc.hits.Inc()
		c.anaHits.Inc()
		c.hitNs.ObserveShard(c.shard, ns)
		c.job.cacheHits.Add(1)
	} else {
		epc.misses.Inc()
		c.anaMisses.Inc()
		c.missNs.ObserveShard(c.shard, ns)
		c.job.cacheMisses.Add(1)
	}
}

// RecordTranslation folds one command translation's sizes into the registry.
func (c *Collector) RecordTranslation(relVars, solverVars, clauses int) {
	if c == nil {
		return
	}
	c.relVars.ObserveShard(c.shard, int64(relVars))
	c.solverVars.ObserveShard(c.shard, int64(solverVars))
	c.clauses.ObserveShard(c.shard, int64(clauses))
}

// RecordIncrementalSession counts one long-lived candidate-evaluation
// session opened by the analyzer.
func (c *Collector) RecordIncrementalSession() {
	if c == nil {
		return
	}
	c.incSessions.Inc()
}

// RecordIncrementalQuery counts one candidate evaluation answered entirely
// on a session's shared solver state.
func (c *Collector) RecordIncrementalQuery() {
	if c == nil {
		return
	}
	c.incQueries.Inc()
	c.job.incQueries.Add(1)
}

// RecordIncrementalFallback counts one candidate evaluation that left the
// incremental path and re-solved fresh (bounds-affecting difference,
// translation failure, or an exhausted budget).
func (c *Collector) RecordIncrementalFallback() {
	if c == nil {
		return
	}
	c.incFallbacks.Inc()
	c.job.incFallbacks.Add(1)
}

// RecordIncrementalCarryover records how many learnt clauses were already
// attached when one incremental solver query started.
func (c *Collector) RecordIncrementalCarryover(learnts int64) {
	if c == nil {
		return
	}
	c.incCarried.Add(learnts)
	c.job.incCarried.Add(learnts)
}

// BeginJob resets the job-effort accumulator; the owning worker calls it
// immediately before each job.
func (c *Collector) BeginJob() {
	if c == nil {
		return
	}
	c.job.solves.Store(0)
	c.job.conflicts.Store(0)
	c.job.decisions.Store(0)
	c.job.propagations.Store(0)
	c.job.budgetExhausted.Store(0)
	c.job.solveNs.Store(0)
	c.job.cacheHits.Store(0)
	c.job.cacheMisses.Store(0)
	c.job.incQueries.Store(0)
	c.job.incFallbacks.Store(0)
	c.job.incCarried.Store(0)
}

// TakeJobEffort snapshots and resets the job-effort accumulator.
func (c *Collector) TakeJobEffort() JobEffort {
	if c == nil {
		return JobEffort{}
	}
	return JobEffort{
		Solves:            c.job.solves.Swap(0),
		Conflicts:         c.job.conflicts.Swap(0),
		Decisions:         c.job.decisions.Swap(0),
		Propagations:      c.job.propagations.Swap(0),
		BudgetExhausted:   c.job.budgetExhausted.Swap(0),
		SolveNs:           c.job.solveNs.Swap(0),
		CacheHits:         c.job.cacheHits.Swap(0),
		CacheMisses:       c.job.cacheMisses.Swap(0),
		IncQueries:        c.job.incQueries.Swap(0),
		IncFallbacks:      c.job.incFallbacks.Swap(0),
		IncCarriedLearnts: c.job.incCarried.Swap(0),
	}
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/anacache"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/metrics"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

// studyTechniques lists the techniques a study workload runs.
func studyTechniques(workload string) []string {
	if workload == "study-syn-trad" {
		return core.TraditionalNames
	}
	return core.TechniqueNames
}

// jobTiming is one (technique, spec) job of a batch, as offsets from the
// batch start: when a worker picked it up and when the runner delivered its
// result.
type jobTiming struct {
	start, end time.Duration
}

// batch is one closed-loop pass of the whole sample through core.Runner.
type batch struct {
	wall time.Duration
	// speed scales the batch's timings to the reference host (see
	// calibrate.go).
	speed float64
	// peakHeapMB is the peak live heap while the batch ran.
	peakHeapMB float64
	jobs       []jobTiming
	// seed ordered the batch's specs and seeded the simulated LLM.
	seed int64
	// evals holds the results; settle drops them from every batch but the
	// first, so a run's live heap does not grow with its batch count.
	evals []*core.Evaluation
	cache anacache.Stats
	// What the correctness check and rep_count need, recorded by settle.
	settled   bool
	sum       string
	attempted int
	repCount  int
	errs      []string
	badREP    []string
}

// timedTechnique notes when the runner starts each job.
type timedTechnique struct {
	repair.Technique
	onStart func(spec string)
}

func (t timedTechnique) Repair(ctx context.Context, p repair.Problem) (repair.Outcome, error) {
	t.onStart(p.Name)
	return t.Technique.Repair(ctx, p)
}

// runBatch evaluates every selected technique on every sampled spec with a
// fresh shared analysis cache and runtime.NumCPU() runner workers, one
// suite after the other like the study does. A non-nil reg traces the
// batch under a benchmark span.
func runBatch(ctx context.Context, c *corpus, techs []string, llmSeed int64, reg *telemetry.Registry, rep *report) (*batch, error) {
	cache := anacache.New(0)
	all := core.StudyFactoriesWith(llmSeed, core.FactoryOptions{Cache: cache})
	var (
		mu     sync.Mutex
		starts = map[string]time.Duration{}
		begin  time.Time
	)
	var factories []core.Factory
	for _, name := range techs {
		for _, f := range all {
			if f.Name != name {
				continue
			}
			f := f
			factories = append(factories, core.Factory{Name: f.Name, NewWith: func(col *telemetry.Collector) repair.Technique {
				return timedTechnique{Technique: f.NewWith(col), onStart: func(spec string) {
					at := time.Since(begin)
					mu.Lock()
					starts[f.Name+"\x00"+spec] = at
					mu.Unlock()
				}}
			}})
		}
	}
	b := &batch{seed: llmSeed}
	runner := &core.Runner{Workers: runtime.NumCPU(), Seed: llmSeed, Cache: cache, Telemetry: reg}
	runner.Progress = func(tech, spec string, _, _ int, _ anacache.Stats, _ telemetry.Brief) {
		end := time.Since(begin)
		mu.Lock()
		start := starts[tech+"\x00"+spec]
		mu.Unlock()
		b.jobs = append(b.jobs, jobTiming{start: start, end: end})
	}
	root := reg.StartSpan("bench.batch")
	ctx = telemetry.ContextWithSpan(ctx, root)
	rep.heap.take()
	rep.speed.reset()
	begin = time.Now()
	for _, suite := range c.suites {
		ev, err := runner.EvaluateContext(ctx, suite, factories)
		if err != nil {
			return nil, fmt.Errorf("evaluating %s: %w", suite.Name, err)
		}
		b.evals = append(b.evals, ev)
	}
	b.wall = time.Since(begin)
	b.speed = rep.speed.take()
	b.peakHeapMB = rep.heap.take()
	root.End()
	b.cache = cache.Stats()
	return b, nil
}

// results lists the batch's results in a fixed order.
func (b *batch) results() []*core.Result {
	var out []*core.Result
	for _, ev := range b.evals {
		techs := make([]string, 0, len(ev.Results))
		for t := range ev.Results {
			techs = append(techs, t)
		}
		sort.Strings(techs)
		for _, t := range techs {
			specs := make([]string, 0, len(ev.Results[t]))
			for s := range ev.Results[t] {
				specs = append(specs, s)
			}
			sort.Strings(specs)
			for _, s := range specs {
				out = append(out, ev.Results[t][s])
			}
		}
	}
	return out
}

// settle records the batch's digest, job count, REP count and job errors,
// re-checks its REP verdicts if verify is set, and drops its results unless
// keep is set. Settling twice changes nothing.
func (b *batch) settle(verify, keep bool) {
	if !b.settled {
		results := b.results()
		b.sum = digest(results)
		b.attempted = len(results)
		for _, r := range results {
			b.repCount += r.REP
			if r.Err != nil {
				b.errs = append(b.errs, fmt.Sprintf("%s on %s failed: %v", r.Technique, r.Spec.Name, r.Err))
			}
		}
		if verify {
			b.badREP = verifyREP(results)
		}
		b.settled = true
	}
	if !keep {
		b.evals = nil
	}
}

// digest hashes everything the results report, so repeats of one seed can
// be compared.
func digest(results []*core.Result) string {
	h := sha256.New()
	for _, r := range results {
		cand := ""
		if r.Outcome.Candidate != nil {
			cand = printer.Module(r.Outcome.Candidate)
		}
		errMsg := ""
		if r.Err != nil {
			errMsg = r.Err.Error()
		}
		fmt.Fprintf(h, "%s|%s|%s|%d|%t|%.9f|%.9f|%q|%q\n", r.Spec.Benchmark, r.Technique, r.Spec.Name,
			r.REP, r.Outcome.Repaired, r.TM, r.SM, cand, errMsg)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// freshAnalyzer is the independent checker: no analysis cache and no
// incremental sessions, so it shares no state or code path with the cached,
// incremental analyzers that produced the verdicts it re-checks.
func freshAnalyzer() *analyzer.Analyzer {
	return analyzer.New(analyzer.Options{DisableIncremental: true})
}

// verifyREP re-checks every REP=1 verdict with a fresh analyzer and returns
// a description of each verdict that does not hold.
func verifyREP(results []*core.Result) []string {
	an := freshAnalyzer()
	var bad []string
	for _, r := range results {
		if r.REP != 1 {
			continue
		}
		rep, err := metrics.REP(an, r.Spec.GroundTruth, r.Outcome.Candidate)
		if err != nil || rep != 1 {
			bad = append(bad, fmt.Sprintf("%s on %s: REP=1 but a fresh analyzer gives %d (err %v)", r.Technique, r.Spec.Name, rep, err))
		}
	}
	return bad
}

// checkBatches runs the correctness check over a run's batches: every job
// must have succeeded, the REP=1 verdicts of the first batch of each seed
// must hold under a fresh analyzer, and every later batch of a seed must
// reproduce the first one's digest.
func checkBatches(rep *report, batches []*batch) {
	first := map[int64]*batch{}
	for i, b := range batches {
		f, repeat := first[b.seed]
		if !repeat {
			first[b.seed] = b
		}
		b.settle(!repeat, i == 0)
		rep.attempted += b.attempted
		for _, msg := range b.errs {
			rep.failed++
			fmt.Fprintln(os.Stderr, "perfbench:", msg)
		}
		if repeat && b.sum != f.sum {
			rep.mismatch("batch %d digest %s differs from digest %s of an earlier batch of seed %d", i, b.sum[:12], f.sum[:12], b.seed)
		}
		for _, msg := range b.badREP {
			rep.mismatch("%s", msg)
		}
	}
}

// reportBatches writes the end-to-end metrics of untraced batches. A study
// is a closed loop in which every job is requested when the batch starts:
// latency runs from the batch start to the job's result, submission from the
// batch start to a worker taking the job, and the highest sustainable rate
// is the completion rate itself. Every timing is first scaled to the
// reference host by its batch's speed factor. The per-job percentiles pool
// the jobs of all batches, since one batch's few hundred jobs leave its
// median job several percent off. Every other figure is the median over
// batches of the per-batch figure, so one batch the calibration misjudged
// moves it least.
func reportBatches(rep *report, batches []*batch) {
	var rates, heaps, reps, jobMs, lat50, lat95, sub50, sub95 []float64
	for _, b := range batches {
		rates = append(rates, float64(len(b.jobs))/(b.speed*b.wall.Seconds()))
		heaps = append(heaps, b.peakHeapMB)
		reps = append(reps, float64(b.repCount))
		var latency, submit []float64
		for _, j := range b.jobs {
			jobMs = append(jobMs, b.speed*ms(j.end-j.start))
			latency = append(latency, b.speed*ms(j.end))
			submit = append(submit, b.speed*ms(j.start))
		}
		lat50 = append(lat50, quantile(latency, 0.50))
		lat95 = append(lat95, quantile(latency, 0.95))
		sub50 = append(sub50, quantile(submit, 0.50))
		sub95 = append(sub95, quantile(submit, 0.95))
	}
	rep.set("jobs_per_s", median(rates))
	rep.set("max_rate_jobs_per_s", median(rates))
	rep.set("peak_heap_mb", median(heaps))
	rep.set("rep_count", median(reps))
	rep.set("job_ms.p50", quantile(jobMs, 0.50))
	rep.set("job_ms.p90", quantile(jobMs, 0.90))
	rep.set("latency_ms.p50", median(lat50))
	rep.set("latency_ms.p95", median(lat95))
	rep.set("submit_ms.p50", median(sub50))
	rep.set("submit_ms.p95", median(sub95))
	var speeds []float64
	for _, b := range batches {
		speeds = append(speeds, b.speed)
	}
	rep.fact("batches", len(batches))
	rep.fact("batch_wall_s", walls(batches))
	rep.fact("batch_speed", speeds)
	rep.fact("batch_jobs_per_s", rates)
	rep.fact("samples.job_ms", len(jobMs))
	rep.fact("samples_per_batch.latency_ms", len(batches[0].jobs))
	rep.fact("samples_per_batch.submit_ms", len(batches[0].jobs))
}

// setupTime is how long a run keeps setting up; test-size runs stop at the
// minimum number of set-ups.
func setupTime(cfg *config) float64 {
	if cfg.tiny {
		return 0
	}
	return setupSeconds
}

// batchSeed is the seed of batch i of a run with the given seed: the run's
// seed for the first two batches, which must agree, and a seed derived from
// it for each later batch. Spreading a run over several seeds keeps one
// seed's specs order and simulated-LLM draws from deciding its figures.
func batchSeed(seed int64, i int) int64 {
	if i < 2 {
		return seed
	}
	return seed + int64(i-1)<<32
}

func walls(batches []*batch) []float64 {
	var out []float64
	for _, b := range batches {
		out = append(out, b.wall.Seconds())
	}
	return out
}

// runStudy runs a study workload: batches until the measurement time is
// spent (at least three, so results can be compared across repeats and a
// median taken), or with tracing on, traced and untraced batches in
// alternating pairs followed by the layer replay.
func runStudy(ctx context.Context, cfg *config, rep *report) error {
	rep.speed.reset()
	pool, setupS, setups, err := timedSetup(setupMinReps, setupTime(cfg), func() ([]*bench.Suite, error) { return generatePool(cfg.workload, cfg.tiny) })
	if err != nil {
		return err
	}
	setupSpeed := rep.speed.take()
	rep.set("setup_s", setupSpeed*setupS)
	rep.fact("setup_wall_s", setupS)
	rep.fact("setups", setups)
	rep.fact("setup_speed", setupSpeed)
	c := seededCorpus(pool, cfg.seed)
	techs := studyTechniques(cfg.workload)
	rep.fact("specs", len(c.specs()))
	rep.fact("techniques", len(techs))
	rep.fact("jobs_per_batch", len(c.specs())*len(techs))
	rep.fact("runner_workers", runtime.NumCPU())
	budget := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		var batches []*batch
		start := time.Now()
		for i := 0; i < 2 || time.Since(start)+batches[i-1].wall <= budget; i++ {
			bc, seed := c, batchSeed(cfg.seed, i)
			if seed != cfg.seed {
				bc = seededCorpus(pool, seed)
			}
			runtime.GC()
			b, err := runBatch(ctx, bc, techs, seed, nil, rep)
			if err != nil {
				return err
			}
			b.settle(i != 1, false)
			batches = append(batches, b)
		}
		reportBatches(rep, batches)
		checkBatches(rep, batches)
		return nil
	}

	// Traced and untraced batches alternate in pairs, each pair flipping
	// which side runs first so drift cancels.
	reg, sink := tracedRegistry()
	var (
		batches  []*batch
		traced   []*batch
		overhead []float64
	)
	start := time.Now()
	for pair := 0; pair < 2 || time.Since(start)+2*batches[len(batches)-1].wall <= budget; pair++ {
		var plain, tr *batch
		for side := 0; side < 2; side++ {
			runtime.GC()
			useTrace := (side == 0) == (pair%2 == 1)
			var r *telemetry.Registry
			if useTrace {
				r = reg
			}
			b, err := runBatch(ctx, c, techs, cfg.seed, r, rep)
			if err != nil {
				return err
			}
			b.settle(len(batches) == 0, len(batches) == 0)
			batches = append(batches, b)
			if useTrace {
				tr = b
				traced = append(traced, b)
			} else {
				plain = b
			}
		}
		overhead = append(overhead, 100*(tr.speed*tr.wall.Seconds()/(plain.speed*plain.wall.Seconds())-1))
	}
	rep.set("trace.overhead_pct", median(overhead))
	rep.set("trace.overhead_pct.spread", iqr(overhead))
	rep.fact("trace.overhead_pct.pairs", overhead)
	checkBatches(rep, batches)

	bd := analyzeSpans(sink.records())
	bd.report(rep, len(traced))
	reportRegistry(rep, reg, len(traced))
	var hits, lookups, evictions int64
	var wall time.Duration
	for _, b := range traced {
		hits += b.cache.Hits
		lookups += b.cache.Lookups()
		evictions += b.cache.Evictions
		wall += b.wall
	}
	rep.set("anacache.hit_ratio", ratio(float64(hits), float64(lookups)))
	rep.set("anacache.evictions", float64(evictions)/float64(len(traced)))
	rep.set("core.worker_busy_share", ratio(float64(bd.workerNs), float64(runtime.NumCPU())*float64(wall.Nanoseconds())))
	if err := replayLayers(rep, c, candidatePairs(batches[0].results()), cfg); err != nil {
		return err
	}
	if cfg.workload != "study-paper" {
		return nil
	}
	// The service, HTTP and journal layers, replayed on this workload's
	// ARepair specs.
	for _, suite := range c.suites {
		if suite.Name == "ARepair" {
			return replayService(ctx, rep, cfg, &corpus{suites: []*bench.Suite{suite}, source: c.source})
		}
	}
	return nil
}

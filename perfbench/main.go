// Command perfbench is the repository's benchmark. It runs one workload —
// closed-loop study batches through core.Runner — for a fixed time, checks
// that every result is correct, and prints one JSON result line. From the repository root:
//
//	bash perfbench/run.sh --workload study-paper --seed 1 --seconds 30 --trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured untraced; with
// -trace 1 it prints the per-layer metrics from a traced run, a paired
// traced/untraced overhead measurement and a replay of each layer's public
// entry points on the workload's own inputs. README.md explains the
// workloads and the layer → metric → workload table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"testing"
	"time"
)

// metricSpec names one printed metric and its unit. The tables below are
// the benchmark's contract; BENCHMARK.json lists the same names and units
// (a test keeps the two in step).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_ms.p50", "ms"},
	{"job_ms.p90", "ms"},
	{"rep_count", "count"},
	{"peak_heap_mb", "MB"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.p95", "ms"},
	{"submit_ms.p50", "ms"},
	{"submit_ms.p95", "ms"},
	{"max_rate_jobs_per_s", "1/s"},
}

var perLayer = []metricSpec{
	{"fail_frac", "ratio"},
	{"parser.ns_per_op", "ns/op"},
	{"parser.allocs_per_op", "allocs/op"},
	{"printer.ns_per_op", "ns/op"},
	{"printer.allocs_per_op", "allocs/op"},
	{"types.ns_per_op", "ns/op"},
	{"mutation.engine_ns_per_op", "ns/op"},
	{"mutation.enum_ns_per_op", "ns/op"},
	{"mutation.candidates_per_spec", "count"},
	{"mutation.allocs_per_op", "allocs/op"},
	{"llm.complete_ns_per_op", "ns/op"},
	{"llm.complete_allocs_per_op", "allocs/op"},
	{"llm.complete.calls", "count"},
	{"llm.complete.self_share", "ratio"},
	{"repair.arepair.self_share", "ratio"},
	{"repair.atr.self_share", "ratio"},
	{"repair.beafix.self_share", "ratio"},
	{"repair.icebar.self_share", "ratio"},
	{"repair.multiround.self_share", "ratio"},
	{"repair.singleround.self_share", "ratio"},
	{"aunit.runall_ns_per_op", "ns/op"},
	{"aunit.allocs_per_op", "allocs/op"},
	{"aunit.test_runs", "count"},
	{"analyzer.execute_all_ns_per_op", "ns/op"},
	{"analyzer.self_share", "ratio"},
	{"analyzer.candidate_evals", "count"},
	{"analyzer.incremental_fallback_ratio", "ratio"},
	{"translate.clauses.p50", "count"},
	{"translate.solver_vars.p50", "count"},
	{"sat.solves", "count"},
	{"sat.conflicts", "count"},
	{"sat.self_share", "ratio"},
	{"sat.solve_us.p50", "us"},
	{"sat.solve_us.p99", "us"},
	{"anacache.hit_ratio", "ratio"},
	{"anacache.evictions", "count"},
	{"metrics.rep_ns_per_op", "ns/op"},
	{"metrics.tm_ns_per_op", "ns/op"},
	{"metrics.sm_ns_per_op", "ns/op"},
	{"core.worker_busy_share", "ratio"},
	{"core.journal_append_us.p50", "us"},
	{"core.journal_append_us.p99", "us"},
	{"service.queue_wait_ms.p50", "ms"},
	{"service.queue_wait_ms.p95", "ms"},
	{"service.run_ms.p50", "ms"},
	{"service.run_ms.p95", "ms"},
	{"service.dedup_ratio", "ratio"},
	{"service.rejected", "count"},
	{"http.post_ms.p50", "ms"},
	{"http.get_ms.p50", "ms"},
	{"http.get_ms.p95", "ms"},
	{"loadgen.late_ms.p95", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.overhead_pct.spread", "%"},
	{"trace.unattributed_share", "ratio"},
	{"trace.accounted_share", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *config, *report) error{
	"study-paper":    runStudy,
	"study-syn-trad": runStudy,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds the run's scratch files (journals); removed at exit.
	workDir string
	// tiny shrinks corpora and phases to test size.
	tiny bool
}

// report accumulates one run's results.
type report struct {
	mu      sync.Mutex
	metrics map[string]float64
	// attempted counts jobs and requests; failed counts errors, refusals,
	// missed latency limits and correctness mismatches among them.
	attempted, failed int
	// mismatches counts correctness-check failures (a subset of failed).
	mismatches int
	facts      map[string]any
	// heap samples the live heap; workloads take its peak per window.
	heap *heapSampler
	// speed samples the host's speed; workloads take its factor per window.
	speed *speedSampler
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, facts: map[string]any{}}
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

func (r *report) fact(name string, v any) {
	r.mu.Lock()
	r.facts[name] = v
	r.mu.Unlock()
}

// mismatch records one correctness failure.
func (r *report) mismatch(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: correctness: "+format+"\n", args...)
	r.mu.Lock()
	r.mismatches++
	r.failed++
	r.mu.Unlock()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the printed metric set. End-to-end metrics must all have
// been measured; a per-layer metric of a layer the workload bypasses reads 0.
func (r *report) result(trace bool) (resultLine, error) {
	specs, required := endToEnd, true
	if trace {
		specs, required = perLayer, false
	}
	out := resultLine{
		Correct:   r.mismatches == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok && required {
			return out, fmt.Errorf("metric %s was not measured", s.name)
		}
		out.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no job or request was attempted")
	}
	return out, nil
}

// heapSampler tracks the peak live heap (bytes live after a GC cycle) in
// windows the workload marks with take. It reads the live heap after every
// GC cycle, from a finalizer that re-arms itself, so no cycle's figure is
// missed however often the collector runs; a ticker covers the stretch
// before the first cycle.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

// gcSentinel is garbage from birth; its finalizer runs after the cycle
// that finds it.
type gcSentinel struct{ h *heapSampler }

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	h.peak = max(h.peak, s[0].Value.Uint64())
	h.mu.Unlock()
}

func (h *heapSampler) armGCHook() {
	runtime.SetFinalizer(&gcSentinel{h}, func(s *gcSentinel) {
		s.h.sample()
		s.h.mu.Lock()
		stopped := s.h.stopped
		s.h.mu.Unlock()
		if !stopped {
			s.h.armGCHook()
		}
	})
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.armGCHook()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak in MB since the previous take and starts a new
// window.
func (h *heapSampler) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := h.peak
	h.peak = 0
	return float64(peak) / (1 << 20)
}

func (h *heapSampler) Stop() {
	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
	close(h.stop)
	<-h.done
}

func run(ctx context.Context, cfg *config) (*report, error) {
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	rep := newReport()
	rep.fact("workload", cfg.workload)
	rep.fact("seed", cfg.seed)
	rep.fact("seconds", cfg.seconds)
	rep.fact("trace", cfg.trace)
	rep.fact("num_cpu", runtime.NumCPU())
	rep.fact("gomaxprocs", runtime.GOMAXPROCS(0))
	rep.fact("go_version", runtime.Version())
	speed, err := startSpeedSampler()
	if err != nil {
		return nil, err
	}
	rep.speed = speed
	rep.heap = startHeapSampler()
	err = runWorkload(ctx, cfg, rep)
	rep.speed.Stop()
	rep.heap.Stop()
	if err != nil {
		return nil, err
	}
	rep.set("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)))
	return rep, nil
}

func main() {
	testing.Init() // the replay pass runs testing.Benchmark
	var (
		workload = flag.String("workload", "", "workload: study-paper or study-syn-trad")
		seed     = flag.Int64("seed", 1, "workload seed: orders the specs and seeds the simulated LLM; later batches use seeds derived from it")
		seconds  = flag.Float64("seconds", 45, "measurement time")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run and a replay")
		workDir  = flag.String("workdir", filepath.Join(".bench_build", "perfbench-work"), "directory for the run's scratch files")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, cfg)
	os.RemoveAll(cfg.workDir)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"facts": rep.facts}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

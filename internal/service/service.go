package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/anacache"
	"specrepair/internal/core"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

// Admission-control outcomes. The HTTP layer maps ErrQueueFull to 429 and
// ErrDraining to 503, both with Retry-After; anything else from Submit is a
// client error (400).
var (
	ErrQueueFull = errors.New("job queue is full")
	ErrDraining  = errors.New("service is draining")
)

// Options configures a Service.
type Options struct {
	// Journal is the job-store path ("" = memory-only; jobs then do not
	// survive a daemon restart).
	Journal string
	// QueueDepth bounds the number of admitted-but-not-started jobs;
	// submissions beyond it are rejected with ErrQueueFull (default 256).
	QueueDepth int
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// Seed is the default simulated-LLM seed for submissions that don't
	// carry one (default 1).
	Seed int64
	// Timeout is the per-job deadline (0 = none). A submission's TimeoutMs
	// can tighten it but never loosen it.
	Timeout time.Duration
	// CacheSize caps the shared analysis cache (0 = anacache's default);
	// DisableCache turns the multi-tenant cache off entirely.
	CacheSize    int
	DisableCache bool
	// Telemetry, when non-nil, receives service counters, job spans, and
	// per-job effort attribution, exactly like the study runner's registry.
	Telemetry *telemetry.Registry
	// Log, when non-nil, receives one-line progress messages.
	Log func(format string, args ...any)
}

// Service is the repair-as-a-service engine: a durable bounded job queue in
// front of a worker pool running the ordinary repair techniques, with one
// content-addressed analysis cache shared by every job of every tenant.
type Service struct {
	opt   Options
	cache *anacache.Cache
	reg   *telemetry.Registry
	root  *telemetry.Span

	// admitMu serializes admissions so the journal append can happen with
	// s.mu released: snapshot reads (GET /jobs, /stats, stream polls) never
	// block behind disk I/O, while a job still becomes visible — dedupable,
	// listable — only after its submit event is durable.
	admitMu sync.Mutex

	mu      sync.Mutex
	store   *store
	queue   chan *Job
	nextSeq int64
	running int
	drained bool

	draining     bool
	stopDispatch chan struct{}
	runCtx       context.Context
	cancelRun    context.CancelFunc
	wg           sync.WaitGroup

	ctrSubmitted, ctrDeduped, ctrRejected, ctrCompleted, ctrFailed, ctrResumed *telemetry.Counter
}

// New opens (or starts) the job journal, re-queues every journaled job that
// never reached a terminal state — the kill-and-restart resume path — and
// starts the worker pool.
func New(opt Options) (*Service, error) {
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 256
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	st, err := openStore(opt.Journal)
	if err != nil {
		return nil, err
	}
	reg := opt.Telemetry
	if reg == nil {
		// Counters back Stats() even when the caller brings no registry.
		reg = telemetry.New()
	}
	s := &Service{
		opt:          opt,
		reg:          reg,
		store:        st,
		stopDispatch: make(chan struct{}),

		ctrSubmitted: reg.Counter(telemetry.CtrServiceSubmitted),
		ctrDeduped:   reg.Counter(telemetry.CtrServiceDeduped),
		ctrRejected:  reg.Counter(telemetry.CtrServiceRejected),
		ctrCompleted: reg.Counter(telemetry.CtrServiceCompleted),
		ctrFailed:    reg.Counter(telemetry.CtrServiceFailed),
		ctrResumed:   reg.Counter(telemetry.CtrServiceResumed),
	}
	if !opt.DisableCache {
		s.cache = anacache.New(opt.CacheSize)
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	s.root = reg.StartSpan("service")

	// The queue buffer accommodates the resumed backlog even when it
	// exceeds QueueDepth; admission control still bounds *new* submissions
	// by QueueDepth, so an oversized backlog just refuses fresh work until
	// it drains below the watermark.
	pending := st.pending()
	depth := opt.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	s.queue = make(chan *Job, depth)
	for _, job := range pending {
		s.queue <- job
		s.ctrResumed.Inc()
	}
	s.nextSeq = int64(len(st.order))
	if len(pending) > 0 {
		s.logf("resumed %d journaled job(s) from %s", len(pending), opt.Journal)
	}

	reg.SetGauge("service.queue_depth", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.queue))
	})
	reg.SetGauge("service.jobs_running", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.running)
	})

	for w := 0; w < opt.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s, nil
}

func (s *Service) logf(format string, args ...any) {
	if s.opt.Log != nil {
		s.opt.Log(format, args...)
	}
}

// Cache exposes the shared analysis cache (nil when disabled).
func (s *Service) Cache() *anacache.Cache { return s.cache }

// validTechnique reports whether name is one of the study's techniques.
func validTechnique(name string) bool {
	for _, n := range core.TechniqueNames {
		if n == name {
			return true
		}
	}
	return false
}

// Submit admits one submission. Identical submissions (same canonical spec,
// technique, seed, tests, and deadline) are content-addressed to the same
// job: the duplicate is answered from the existing job — whatever its state
// — without consuming a queue slot, and dup reports that. ErrQueueFull and
// ErrDraining are admission rejections; any other error is a validation
// failure.
func (s *Service) Submit(sub Submission) (snap Snapshot, dup bool, err error) {
	if sub.Technique == "" {
		return Snapshot{}, false, errors.New("submission names no technique")
	}
	if !validTechnique(sub.Technique) {
		return Snapshot{}, false, fmt.Errorf("unknown technique %q", sub.Technique)
	}
	if sub.TimeoutMs < 0 {
		return Snapshot{}, false, fmt.Errorf("negative timeout_ms %d", sub.TimeoutMs)
	}
	for i, t := range sub.Tests {
		if t == nil {
			return Snapshot{}, false, fmt.Errorf("test %d is null", i)
		}
	}
	if sub.Seed == 0 {
		sub.Seed = s.opt.Seed
	}
	mod, canonical, err := sub.parse()
	if err != nil {
		return Snapshot{}, false, err
	}
	if err := sub.checkTests(mod); err != nil {
		return Snapshot{}, false, err
	}
	if err := sub.runTests(mod); err != nil {
		return Snapshot{}, false, err
	}
	key := sub.key(canonical)
	id := "j" + key[:16]

	// Serializing admissions lets the journal append run with s.mu released
	// (readers don't stall behind disk I/O) while the dedup check, depth
	// check, and publish stay atomic with respect to other admissions.
	s.admitMu.Lock()
	defer s.admitMu.Unlock()

	s.mu.Lock()
	if existing, ok := s.store.jobs[id]; ok {
		defer s.mu.Unlock()
		if existing.Key != key {
			// The ID is a 64-bit prefix of the key; on the astronomically
			// rare prefix collision, refuse rather than alias this client
			// to another submission's result.
			return Snapshot{}, false, fmt.Errorf("job id collision on %s: distinct submission already admitted", id)
		}
		s.ctrDeduped.Inc()
		return s.snapshotLocked(existing), true, nil
	}
	if s.draining {
		s.ctrRejected.Inc()
		s.mu.Unlock()
		return Snapshot{}, false, ErrDraining
	}
	if len(s.queue) >= s.opt.QueueDepth {
		s.ctrRejected.Inc()
		s.mu.Unlock()
		return Snapshot{}, false, ErrQueueFull
	}
	job := &Job{
		ID:         id,
		Key:        key,
		Submission: sub,
		state:      StateQueued,
		created:    time.Now(),
		seq:        s.nextSeq,
		mod:        mod,
		done:       make(chan struct{}),
	}
	s.mu.Unlock()

	// Journal before indexing: once a submission is visible it must be
	// durable, or a crash between the 202 and the append would silently
	// drop an accepted job.
	if err := s.store.appendSubmit(job); err != nil {
		return Snapshot{}, false, fmt.Errorf("journaling submission: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq++
	s.store.jobs[id] = job
	s.store.order = append(s.store.order, id)
	// The push never blocks: the depth check saw len(queue) < QueueDepth
	// <= cap, workers only shrink the queue, and admitMu excludes other
	// pushers until we publish.
	s.queue <- job
	s.ctrSubmitted.Inc()
	return s.snapshotLocked(job), false, nil
}

// worker pulls queued jobs until drain or hard stop. A drain signal wins
// races against job receipt: an undrained job stays journaled as queued and
// is re-queued by the next daemon start.
func (s *Service) worker(lane int) {
	defer s.wg.Done()
	col := telemetry.NewCollector(s.reg)
	for {
		select {
		case <-s.stopDispatch:
			return
		case job := <-s.queue:
			select {
			case <-s.stopDispatch:
				return
			default:
			}
			s.runJob(col, lane, job)
		}
	}
}

// runJob executes one job through core.RunJob, which owns the per-request
// guarantees shared with the study runner: a per-job deadline, panic
// isolation, cancellation, and exact effort attribution through the
// worker's collector. What stays here is the service's own: state
// transitions, the deadline choice, the hard-stop revert, and the journal.
func (s *Service) runJob(col *telemetry.Collector, lane int, job *Job) {
	s.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	s.running++
	s.mu.Unlock()

	timeout := s.opt.Timeout
	if t := time.Duration(job.Submission.TimeoutMs) * time.Millisecond; t > 0 && (timeout == 0 || t < timeout) {
		timeout = t
	}
	res := &core.Result{Technique: job.Submission.Technique}
	ctx := telemetry.ContextWithSpan(s.runCtx, s.root)
	core.RunJob(ctx, col, core.Job{Technique: job.Submission.Technique, Spec: job.ID, Lane: lane + 1, Timeout: timeout}, res,
		func(ctx context.Context, res *core.Result) {
			res.Outcome, res.Err = s.execute(ctx, col, job)
		})
	out, err := res.Outcome, res.Err

	s.mu.Lock()
	s.running--
	if s.runCtx.Err() != nil {
		// Hard stop: the run context died while this job was in flight, so
		// whatever execute returned — a wrapped or swallowed cancellation, a
		// different error, even a nil-error partial outcome — may have been
		// perturbed by the dead context and cannot be trusted as terminal.
		// Leave the job journaled as submitted-only so a restarted daemon
		// re-runs it cleanly (techniques are deterministic per seed, so the
		// re-run reproduces the same result).
		job.state = StateQueued
		job.started = time.Time{}
		s.mu.Unlock()
		return
	}
	job.finished = time.Now()
	job.stats = out.Stats
	if err != nil {
		job.state = StateFailed
		job.errMsg = err.Error()
		s.ctrFailed.Inc()
	} else {
		job.state = StateDone
		job.repaired = out.Repaired
		if out.Repaired && out.Candidate != nil {
			job.result = printer.Module(out.Candidate)
		}
		s.ctrCompleted.Inc()
	}
	s.mu.Unlock()
	// Journal with the lock released, like Submit: readers never stall
	// behind the append's disk I/O. runJob is this job's only writer and the
	// job is terminal now, so the unlocked reads for the append are safe.
	if jerr := s.store.appendFinish(job); jerr != nil {
		s.logf("journaling result of %s: %v", job.ID, jerr)
	}
	close(job.done)
}

// execute builds the job's technique and runs it.
func (s *Service) execute(ctx context.Context, col *telemetry.Collector, job *Job) (repair.Outcome, error) {
	mod := job.mod
	if mod == nil {
		// Resumed from the journal: re-parse the stored source (it parsed at
		// admission, so a failure here means the journal was edited).
		m, _, err := job.Submission.parse()
		if err != nil {
			return repair.Outcome{}, err
		}
		mod = m
	}
	factory, err := core.FactoryByNameWith(job.Submission.Seed, job.Submission.Technique, core.FactoryOptions{Cache: s.cache})
	if err != nil {
		return repair.Outcome{}, err
	}
	tool := factory.NewWith(col)
	return tool.Repair(ctx, repair.Problem{Name: job.ID, Faulty: mod, Tests: job.Submission.suite()})
}

// baseSnapshotLocked renders a job under s.mu, without its queue position.
func (s *Service) baseSnapshotLocked(job *Job) Snapshot {
	snap := Snapshot{
		ID:        job.ID,
		State:     job.state,
		Technique: job.Submission.Technique,
		Seed:      job.Submission.Seed,
		Repaired:  job.repaired,
		Error:     job.errMsg,
		Stats:     job.stats,
		CreatedAt: job.created,
	}
	if !job.started.IsZero() {
		t := job.started
		snap.StartedAt = &t
	}
	if !job.finished.IsZero() {
		t := job.finished
		snap.FinishedAt = &t
	}
	return snap
}

// snapshotLocked renders one job under s.mu, including its queue position.
// Listings use baseSnapshotLocked with a single shared pass instead, so
// Jobs() stays O(n) rather than running this scan per job.
func (s *Service) snapshotLocked(job *Job) Snapshot {
	snap := s.baseSnapshotLocked(job)
	if job.state == StateQueued {
		for _, id := range s.store.order {
			if other := s.store.jobs[id]; other.state == StateQueued && other.seq < job.seq {
				snap.QueuePosition++
			}
		}
	}
	return snap
}

// Job returns a point-in-time snapshot of one job.
func (s *Service) Job(id string) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.store.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return s.snapshotLocked(job), true
}

// Jobs lists every known job in admission order. Queue positions are
// assigned in the same pass: order is admission order and seq is monotone in
// it, so the queued jobs seen so far are exactly the jobs ahead.
func (s *Service) Jobs() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.store.order))
	queuedAhead := 0
	for _, id := range s.store.order {
		job := s.store.jobs[id]
		snap := s.baseSnapshotLocked(job)
		if job.state == StateQueued {
			snap.QueuePosition = queuedAhead
			queuedAhead++
		}
		out = append(out, snap)
	}
	return out
}

// Result returns the repaired spec of a done job. ok reports whether the
// job exists; a job that exists but has no result yet (or ended without a
// repair) returns its snapshot with an empty string.
func (s *Service) Result(id string) (string, Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.store.jobs[id]
	if !ok {
		return "", Snapshot{}, false
	}
	return job.result, s.snapshotLocked(job), true
}

// Watch returns the job's terminal-transition channel (closed when the job
// finishes), for long-polls and streams.
func (s *Service) Watch(id string) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.store.jobs[id]
	if !ok {
		return nil, false
	}
	return job.done, true
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Service) Wait(ctx context.Context, id string) (Snapshot, error) {
	done, ok := s.Watch(id)
	if !ok {
		return Snapshot{}, fmt.Errorf("unknown job %s", id)
	}
	select {
	case <-done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	snap, _ := s.Job(id)
	return snap, nil
}

// Stats is a point-in-time operational snapshot of the whole service.
type Stats struct {
	Queued    int            `json:"queued"`
	Running   int            `json:"running"`
	Done      int            `json:"done"`
	Failed    int            `json:"failed"`
	Draining  bool           `json:"draining"`
	Submitted int64          `json:"submitted"`
	Deduped   int64          `json:"deduplicated"`
	Rejected  int64          `json:"rejected"`
	Resumed   int64          `json:"resumed"`
	Cache     anacache.Stats `json:"cache"`
}

// Stats snapshots queue, job, and shared-cache state.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Running:   s.running,
		Draining:  s.draining,
		Submitted: s.ctrSubmitted.Value(),
		Deduped:   s.ctrDeduped.Value(),
		Rejected:  s.ctrRejected.Value(),
		Resumed:   s.ctrResumed.Value(),
	}
	for _, job := range s.store.jobs {
		switch job.state {
		case StateQueued:
			st.Queued++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		}
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	return st
}

// Draining reports whether the service has stopped accepting submissions.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// beginDrain flips the service into draining mode exactly once.
func (s *Service) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		close(s.stopDispatch)
	}
}

// Drain performs a graceful shutdown: stop accepting submissions, stop
// dispatching queued jobs (they stay journaled for the next start), and wait
// for in-flight jobs to finish. If ctx expires first, in-flight jobs are
// cancelled; cancelled jobs revert to queued-in-journal, so nothing is
// lost either way. Drain is idempotent and leaves the journal closed.
func (s *Service) Drain(ctx context.Context) error {
	s.beginDrain()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		s.cancelRun()
		<-finished
		err = ctx.Err()
	}
	s.cancelRun()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.drained {
		s.drained = true
		s.root.End()
		if cerr := s.store.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close hard-stops the service: in-flight jobs are cancelled immediately
// (reverting to queued in the journal) and the journal is closed. It is the
// programmatic equivalent of a kill for tests and a second SIGTERM.
func (s *Service) Close() error {
	s.cancelRun()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"specrepair/internal/telemetry"
)

// startCoordinator launches RunCoordinator in the background and returns the
// bound address plus a channel carrying its result.
func startCoordinator(ctx context.Context, cfg Config, opt CoordinatorOptions) (string, <-chan struct {
	study *Study
	err   error
}) {
	addrCh := make(chan string, 1)
	opt.Addr = "127.0.0.1:0"
	opt.OnListen = func(addr string) { addrCh <- addr }
	resCh := make(chan struct {
		study *Study
		err   error
	}, 1)
	go func() {
		s, err := RunCoordinator(ctx, cfg, opt)
		resCh <- struct {
			study *Study
			err   error
		}{s, err}
	}()
	return <-addrCh, resCh
}

// TestShardedStudyByteIdenticalAcrossShardings is the end-to-end acceptance
// test for the sharding layer: a coordinator fed by two worker processes —
// and a second run where one worker is killed partway through — must both
// produce result artifacts byte-identical to a plain single-process run.
func TestShardedStudyByteIdenticalAcrossShardings(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 7, Scale: 300, Workers: 2}

	clean, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleanDir := filepath.Join(dir, "clean")
	writeArtifacts(t, clean, cleanDir)

	t.Run("two workers", func(t *testing.T) {
		reg := telemetry.New()
		ccfg := cfg
		ccfg.Telemetry = reg
		addr, resCh := startCoordinator(context.Background(), ccfg, CoordinatorOptions{
			ChunkSize:  8,
			DrainGrace: time.Second,
		})

		var wg sync.WaitGroup
		workerErrs := make([]error, 2)
		for i := range workerErrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wcfg := cfg
				wcfg.Workers = 1
				workerErrs[i] = RunWorker(context.Background(), wcfg, WorkerOptions{
					Coordinator: "http://" + addr,
					ID:          fmt.Sprintf("w%d", i),
				})
			}(i)
		}
		wg.Wait()
		for i, err := range workerErrs {
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
		res := <-resCh
		if res.err != nil {
			t.Fatal(res.err)
		}
		shardedDir := filepath.Join(dir, "sharded")
		writeArtifacts(t, res.study, shardedDir)
		assertSameArtifacts(t, cleanDir, shardedDir)

		if reg.CounterValue(telemetry.CtrShardLeases) < 2 {
			t.Error("expected at least two leases granted")
		}
		if got := reg.CounterValue(telemetry.CtrShardCompleted); got == 0 {
			t.Error("no completions recorded on the coordinator")
		}
	})

	t.Run("kill one worker", func(t *testing.T) {
		reg := telemetry.New()
		ccfg := cfg
		ccfg.Telemetry = reg
		addr, resCh := startCoordinator(context.Background(), ccfg, CoordinatorOptions{
			ChunkSize:  8,
			LeaseTTL:   2 * time.Second,
			DrainGrace: time.Second,
		})

		// The doomed worker gets a hard deadline partway into the study; its
		// in-flight lease expires and the survivor picks up the range.
		doomedCtx, cancel := context.WithTimeout(context.Background(), 2500*time.Millisecond)
		defer cancel()
		wcfg := cfg
		wcfg.Workers = 1
		doomedErr := make(chan error, 1)
		go func() {
			doomedErr <- RunWorker(doomedCtx, wcfg, WorkerOptions{
				Coordinator: "http://" + addr,
				ID:          "doomed",
			})
		}()

		if err := RunWorker(context.Background(), wcfg, WorkerOptions{
			Coordinator: "http://" + addr,
			ID:          "survivor",
		}); err != nil {
			t.Fatalf("surviving worker: %v", err)
		}
		if err := <-doomedErr; err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("doomed worker: err = %v, want a context error", err)
		}
		res := <-resCh
		if res.err != nil {
			t.Fatal(res.err)
		}
		killDir := filepath.Join(dir, "killed")
		writeArtifacts(t, res.study, killDir)
		assertSameArtifacts(t, cleanDir, killDir)
	})
}

// TestDrainGraceWakesOnCancel pins the coordinator's post-assembly linger to
// the context: DrainGrace exists so idle pollers get a clean "study done"
// answer, but an operator's Ctrl-C during that window must end the run
// promptly instead of sleeping out the full grace.
func TestDrainGraceWakesOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Seed: 3, Scale: 2000, Workers: 1}
	addr, resCh := startCoordinator(ctx, cfg, CoordinatorOptions{
		ChunkSize:  8,
		DrainGrace: time.Minute,
	})
	wcfg := cfg
	wcfg.Workers = 1
	if err := RunWorker(context.Background(), wcfg, WorkerOptions{
		Coordinator: "http://" + addr,
		ID:          "w0",
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	// The worker has posted every completion, so the coordinator is either
	// assembling (fast at this scale) or already lingering in DrainGrace.
	// Give assembly a moment, then cancel and demand a prompt exit.
	time.Sleep(2 * time.Second)
	cancel()
	start := time.Now()
	select {
	case res := <-resCh:
		if res.err != nil && !errors.Is(res.err, context.Canceled) {
			t.Fatalf("coordinator: %v", res.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator still lingering 10s after cancellation (DrainGrace is 1m)")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("coordinator took %v to notice cancellation during DrainGrace", waited)
	}
}

// spanLog is a SpanSink keeping every finished span in memory.
type spanLog struct {
	mu    sync.Mutex
	spans []telemetry.SpanRecord
}

func (l *spanLog) Record(rec telemetry.SpanRecord) {
	l.mu.Lock()
	l.spans = append(l.spans, rec)
	l.mu.Unlock()
}

// tracedRegistry returns a registry streaming its spans into a spanLog.
func tracedRegistry() (*telemetry.Registry, *spanLog) {
	reg := telemetry.New()
	log := &spanLog{}
	reg.SetSink(log)
	return reg, log
}

// assertSharedSetup checks what every study role gets from the shared
// setup: the analysis-cache gauges on /metrics, and a study root span with
// the role's attributes and the generate phase directly beneath it.
func assertSharedSetup(t *testing.T, reg *telemetry.Registry, log *spanLog, attrs map[string]string) {
	t.Helper()
	role := attrs["role"]
	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), "specrepair_anacache_entries") {
		t.Errorf("%s: /metrics lacks the anacache gauges:\n%s", role, prom.String())
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	var root *telemetry.SpanRecord
	for i, sp := range log.spans {
		if sp.Name == "study" && sp.ParentID == "" {
			root = &log.spans[i]
		}
	}
	if root == nil {
		t.Fatalf("%s: no study root span among %d spans", role, len(log.spans))
	}
	for k, want := range attrs {
		if got := root.Attrs[k]; got != want {
			t.Errorf("%s: study root has %s=%q, want %q", role, k, got, want)
		}
	}
	for _, sp := range log.spans {
		if sp.Name == "phase" && sp.Attrs["name"] == "generate" && sp.ParentID == root.SpanID {
			return
		}
	}
	t.Errorf("%s: no generate phase span under the study root", role)
}

// TestEveryRoleSharesSetup runs a local study and a sharded study (one
// coordinator, one worker) and checks each role exposes the same cache
// gauges and generate phase.
func TestEveryRoleSharesSetup(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 2000, Workers: 1}

	lcfg := cfg
	reg, log := tracedRegistry()
	lcfg.Telemetry = reg
	if _, err := RunStudy(lcfg); err != nil {
		t.Fatal(err)
	}
	assertSharedSetup(t, reg, log, map[string]string{"role": "local"})

	ccfg := cfg
	creg, clog := tracedRegistry()
	ccfg.Telemetry = creg
	addr, resCh := startCoordinator(context.Background(), ccfg, CoordinatorOptions{
		ChunkSize:  8,
		DrainGrace: -1,
	})
	wcfg := cfg
	wreg, wlog := tracedRegistry()
	wcfg.Telemetry = wreg
	if err := RunWorker(context.Background(), wcfg, WorkerOptions{
		Coordinator: "http://" + addr,
		ID:          "w0",
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if res := <-resCh; res.err != nil {
		t.Fatalf("coordinator: %v", res.err)
	}
	assertSharedSetup(t, creg, clog, map[string]string{"role": "coordinator"})
	assertSharedSetup(t, wreg, wlog, map[string]string{"role": "worker", "worker": "w0"})
}

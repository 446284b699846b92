// Command repaird is the repair-as-a-service daemon: a long-running HTTP
// server with a durable job queue in front of the study's repair
// techniques. Clients POST a faulty Alloy spec (plus optional AUnit tests
// and a technique selection) to /jobs, poll or stream the job's progress,
// and fetch the repaired spec from /jobs/{id}/result. Identical submissions
// are content-addressed to the same job, and every job shares one
// multi-tenant analysis cache.
//
// Usage:
//
//	repaird -addr 127.0.0.1:8080 -journal jobs.jsonl
//
// The job journal makes the queue durable: kill the daemon and restart it
// on the same journal, and every job that had not finished is re-queued.
// SIGINT/SIGTERM drains gracefully — the daemon stops accepting, finishes
// in-flight jobs, and leaves the rest journaled; a second signal cancels
// in-flight work immediately (it too is re-run on restart).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"specrepair/internal/service"
	"specrepair/internal/telemetry"
)

func main() {
	if err := run(context.Background(), os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "repaird:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until shutdown. onReady, when non-nil,
// receives the bound address once the server is listening (tests use it
// with ":0" listeners).
func run(ctx context.Context, args []string, onReady func(addr string)) error {
	fs := flag.NewFlagSet("repaird", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	journal := fs.String("journal", "", "durable job journal path (empty = in-memory queue that does not survive restarts)")
	queueDepth := fs.Int("queue", 256, "admission-control bound on queued jobs; past it submissions get 429")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "default simulated-LLM seed for submissions that carry none")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-job deadline (0 = none); submissions may tighten it")
	cacheSize := fs.Int("cache-size", 0, "shared analysis cache capacity (0 = default)")
	nocache := fs.Bool("nocache", false, "disable the multi-tenant shared analysis cache")
	drainGrace := fs.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight jobs before cancelling them")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := telemetry.New()
	// A discarding span sink turns span construction on, so /metrics shows
	// per-kind span_self_ns and span_count, as -metrics-addr does for the
	// batch CLIs.
	reg.SetSink(telemetry.Discard)
	svc, err := service.New(service.Options{
		Journal:      *journal,
		QueueDepth:   *queueDepth,
		Workers:      *workers,
		Seed:         *seed,
		Timeout:      *timeout,
		CacheSize:    *cacheSize,
		DisableCache: *nocache,
		Telemetry:    reg,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "repaird: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "repaird: serving on http://%s (journal %s)\n", ln.Addr(), journalDesc(*journal))
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	// First SIGINT/SIGTERM (or ctx cancellation) starts the graceful drain;
	// a second signal falls through to the default handler and kills the
	// process (the journal is flushed per append, so even that loses no
	// accepted job).
	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		svc.Close()
		return fmt.Errorf("serving: %w", err)
	case <-sigCtx.Done():
	}
	stop()

	fmt.Fprintf(os.Stderr, "repaird: draining (finishing in-flight jobs, queue stays journaled; grace %s)\n", *drainGrace)
	graceCtx := context.Background()
	var cancel context.CancelFunc = func() {}
	if *drainGrace > 0 {
		graceCtx, cancel = context.WithTimeout(graceCtx, *drainGrace)
	}
	defer cancel()
	drainErr := svc.Drain(graceCtx)
	// The drain already refused new submissions; now tear the listener down.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	st := svc.Stats()
	fmt.Fprintf(os.Stderr, "repaird: drained (done %d, failed %d, re-queued for restart %d)\n", st.Done, st.Failed, st.Queued)
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	return nil
}

func journalDesc(path string) string {
	if path == "" {
		return "in-memory"
	}
	return path
}

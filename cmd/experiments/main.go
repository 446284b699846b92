// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -all                 # everything, full-size corpora
//	experiments -scale 10 -table1    # 1/10th corpora, Table I only
//	experiments -seed 7 -fig3
//
// Output goes to stdout; progress to stderr. A full-scale run evaluates
// 12 techniques over 1,974 specifications.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/signal"
	"time"

	"specrepair/internal/experiments"
	"specrepair/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulated-LLM seed")
	scale := fs.Int("scale", 1, "divide corpus sizes by this factor")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	table1 := fs.Bool("table1", false, "render Table I (REP counts)")
	fig2 := fs.Bool("fig2", false, "render Figure 2 (TM/SM similarity)")
	fig3 := fs.Bool("fig3", false, "render Figure 3 (Pearson correlations)")
	table2 := fs.Bool("table2", false, "render Table II (hybrids)")
	csvDir := fs.String("csv", "", "also write CSV exports into this directory")
	fig4 := fs.Bool("fig4", false, "render Figure 4 (Venn regions)")
	all := fs.Bool("all", false, "render everything")
	nocache := fs.Bool("nocache", false, "disable the shared analysis cache (A/B baseline)")
	noincremental := fs.Bool("noincremental", false, "disable incremental candidate evaluation (A/B baseline; identical outputs)")
	obs := telemetry.RegisterCLIFlags(fs)
	dashboard := fs.Bool("dashboard", false, "render a live terminal dashboard on stderr (suppresses progress lines)")
	timeout := fs.Duration("timeout", 0, "per-job wall-clock limit; a timed-out (technique, spec) job errors and the run continues")
	checkpointPath := fs.String("checkpoint", "", "journal completed jobs to this JSONL file")
	resume := fs.Bool("resume", false, "resume from the -checkpoint journal, skipping already-completed jobs")
	serveAddr := fs.String("serve", "", "run as sharded-study coordinator, serving the lease protocol on this address (e.g. 127.0.0.1:7070)")
	workerURL := fs.String("worker", "", "run as sharded-study worker against this coordinator URL (e.g. http://127.0.0.1:7070)")
	leaseSize := fs.Int("lease", 0, "coordinator: jobs per lease (0 = 16)")
	leaseTTL := fs.Duration("lease-ttl", 0, "coordinator: how long a worker may miss heartbeats before its lease is re-dispatched (0 = 30s)")
	workerID := fs.String("worker-id", "", "worker: name reported to the coordinator (default: derived from hostname and pid)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *all {
		*table1, *fig2, *fig3, *table2, *fig4 = true, true, true, true, true
	}
	if *serveAddr != "" && *workerURL != "" {
		return fmt.Errorf("-serve and -worker are mutually exclusive")
	}
	isWorker := *workerURL != ""
	if !isWorker && !*table1 && !*fig2 && !*fig3 && !*table2 && !*fig4 {
		return fmt.Errorf("nothing selected; pass -all or one of -table1 -fig2 -fig3 -table2 -fig4")
	}
	if *resume && *checkpointPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	// The registry is always on: its atomic counters are cheap against the
	// solver-bound workload, and the run-report and CSV exports depend on it.
	reg := telemetry.New()
	stopObs, err := obs.Start(reg)
	if err != nil {
		return err
	}
	defer stopObs()
	if *dashboard && !reg.Tracing() {
		// Span construction is gated on a sink; the dashboard only needs the
		// live tracker, so discard the records.
		reg.SetSink(telemetry.Discard)
	}

	// First SIGINT cancels the run's context for a graceful shutdown
	// (in-flight jobs stop, the checkpoint stays consistent); a second
	// SIGINT falls through to the default handler and kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	progress := func(msg string) {
		fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), msg)
	}
	if *dashboard {
		reg.TrackActive(true)
		dash := telemetry.NewDashboard(reg, os.Stderr)
		dash.Start()
		defer dash.Stop()
		progress = func(string) {} // the dashboard owns stderr
	}
	cfg := experiments.Config{
		Seed:               *seed,
		Scale:              *scale,
		Workers:            *workers,
		DisableCache:       *nocache,
		DisableIncremental: *noincremental,
		Telemetry:          reg,
		Timeout:            *timeout,
		CheckpointPath:     *checkpointPath,
		Resume:             *resume,
		Progress:           progress,
	}

	if isWorker {
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		// Namespace this process's trace and span IDs by worker identity, so
		// trace files from several workers merge without ID collisions
		// (tracetool check validates the merged set).
		h := fnv.New32a()
		h.Write([]byte(id))
		reg.SeedSpanIDs(uint64(h.Sum32()) << 32)
		return experiments.RunWorker(ctx, cfg, experiments.WorkerOptions{
			Coordinator: *workerURL,
			ID:          id,
		})
	}

	var study *experiments.Study
	if *serveAddr != "" {
		study, err = experiments.RunCoordinator(ctx, cfg, experiments.CoordinatorOptions{
			Addr:      *serveAddr,
			LeaseTTL:  *leaseTTL,
			ChunkSize: *leaseSize,
		})
	} else {
		study, err = experiments.RunStudyContext(ctx, cfg)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && *checkpointPath != "" {
			fmt.Fprintf(os.Stderr, "interrupted; rerun with -checkpoint %s -resume to continue\n", *checkpointPath)
		}
		return err
	}

	renderStart := time.Now()
	fmt.Println(study.Summary())
	if *table1 {
		fmt.Println(study.TableI())
	}
	if *fig2 {
		fmt.Println(study.RenderFigure2())
	}
	if *fig3 {
		fmt.Println(study.RenderFigure3())
	}
	if *table2 {
		fmt.Println(study.RenderTableII())
	}
	if *fig4 {
		fmt.Println(study.RenderFigure4())
	}
	fmt.Println(study.TelemetryReport())
	study.AddPhase("render", time.Since(renderStart))
	if *csvDir != "" {
		if err := study.WriteCSV(*csvDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "CSV exports written to %s\n", *csvDir)
	}
	fmt.Fprint(os.Stderr, study.RenderPhases())
	fmt.Fprintf(os.Stderr, "total wall clock: %v\n", time.Since(start))
	return nil
}

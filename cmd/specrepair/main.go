// Command specrepair runs a repair technique (or a hybrid pairing) on a
// faulty Alloy specification and prints the repaired specification.
//
// Usage:
//
//	specrepair -technique ATR faulty.als
//	specrepair -technique Multi-Round_None -seed 7 faulty.als
//	specrepair -hybrid ATR,Multi-Round_None faulty.als
//	specrepair -list
//
// The property oracle is the commands embedded in the specification itself
// (check commands must pass, run commands must be satisfiable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/anacache"
	"specrepair/internal/core"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "specrepair:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("specrepair", flag.ContinueOnError)
	technique := fs.String("technique", "ATR", "technique name (see -list)")
	hybrid := fs.String("hybrid", "", "comma-separated pair of techniques to run in sequence")
	seed := fs.Int64("seed", 1, "seed for the simulated LLM")
	list := fs.Bool("list", false, "list available techniques")
	nocache := fs.Bool("nocache", false, "disable the shared analysis cache")
	noincremental := fs.Bool("noincremental", false, "disable incremental candidate evaluation (identical outputs, per-candidate fresh solving)")
	obs := telemetry.RegisterCLIFlags(fs)
	timeout := fs.Duration("timeout", 0, "per-leg wall-clock limit; a timed-out technique leg errors")
	checkpointPath := fs.String("checkpoint", "", "journal completed technique legs to this JSONL file")
	resume := fs.Bool("resume", false, "resume from the -checkpoint journal, replaying already-completed legs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *checkpointPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *list {
		for _, n := range core.TechniqueNames {
			fmt.Println(n)
		}
		return nil
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: specrepair [flags] FILE")
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mod, err := parser.Parse(string(src))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	problem := repair.Problem{Name: path, Faulty: mod}

	reg := telemetry.New()
	stopObs, err := obs.Start(reg)
	if err != nil {
		return err
	}
	defer stopObs()

	// One cache across all legs of a hybrid: the second technique's oracle
	// re-check of the original spec (and any shared intermediate candidates)
	// hits what the first leg already solved.
	var cache *anacache.Cache
	if !*nocache {
		cache = anacache.New(0)
		defer func() {
			fmt.Fprintf(os.Stderr, "analysis cache: %s\n", cache.Stats())
		}()
	}

	col := telemetry.NewCollector(reg)
	defer func() {
		b := reg.Brief()
		fmt.Fprintf(os.Stderr, "solver: %d solves, %d conflicts, %d budget exhaustions; analyzer lookups: %d hits, %d misses\n",
			b.Solves, b.Conflicts, b.BudgetExhausted, b.CacheHits, b.CacheMisses)
	}()

	// First SIGINT cancels the context for a graceful stop; a second one
	// falls through to the default handler and kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The root span covers the whole invocation; each technique leg becomes a
	// "job" child, mirroring the study runner's span shape.
	root := reg.StartSpan("repair")
	root.SetAttr("spec", path)
	defer root.End()
	ctx = telemetry.ContextWithSpan(ctx, root)

	var checkpoint *core.Checkpoint
	if *checkpointPath != "" {
		if *resume {
			checkpoint, err = core.OpenCheckpoint(*checkpointPath)
		} else {
			checkpoint, err = core.CreateCheckpoint(*checkpointPath)
		}
		if err != nil {
			return err
		}
		defer checkpoint.Close()
	}

	names := []string{*technique}
	if *hybrid != "" {
		names = strings.Split(*hybrid, ",")
	}
	for _, name := range names {
		name = strings.TrimSpace(name)

		// A journaled leg is replayed instead of re-run: the techniques are
		// deterministic for a fixed seed, so the stored verdict (and printed
		// candidate) is exactly what a re-run would produce.
		if rec := lookupLeg(checkpoint, name, path); rec != nil {
			reg.Counter(telemetry.CtrJobResumed).Inc()
			fmt.Fprintf(os.Stderr, "%s: resumed from checkpoint (repaired=%v)\n", name, rec.Repaired)
			if rec.Err != "" {
				return fmt.Errorf("%s: %s", name, rec.Err)
			}
			if rec.Repaired && rec.Candidate != "" {
				fmt.Print(rec.Candidate)
				return nil
			}
			continue
		}

		factory, err := core.FactoryByNameWith(*seed, name, core.FactoryOptions{
			Cache:              cache,
			DisableIncremental: *noincremental,
		})
		if err != nil {
			return err
		}
		tool := factory.NewWith(col)
		res := &core.Result{Technique: name}
		core.RunJob(ctx, col, core.Job{Technique: name, Spec: path, Lane: 1, Timeout: *timeout}, res,
			func(ctx context.Context, res *core.Result) {
				res.Outcome, res.Err = tool.Repair(ctx, problem)
			})
		out, err := res.Outcome, res.Err
		if errors.Is(err, context.Canceled) {
			// Interrupted legs are deliberately not journaled — the work was
			// abandoned, not completed.
			if checkpoint != nil {
				fmt.Fprintf(os.Stderr, "interrupted; rerun with -checkpoint %s -resume to continue\n", *checkpointPath)
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		// Same guard as the study runner: once the run context is dead, a
		// leg that nominally completed may have been perturbed by it, so
		// journal nothing and let resume re-run it.
		if checkpoint != nil && ctx.Err() == nil {
			rec := core.RecordOf("specrepair", path, res)
			if out.Repaired && out.Candidate != nil {
				rec.Candidate = printer.Module(out.Candidate)
			}
			if cerr := checkpoint.Append(rec); cerr != nil {
				return fmt.Errorf("writing checkpoint: %w", cerr)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "%s: repaired=%v candidates=%d analyzer-calls=%d\n",
			name, out.Repaired, out.Stats.CandidatesTried, out.Stats.AnalyzerCalls)
		if out.Repaired && out.Candidate != nil {
			fmt.Print(printer.Module(out.Candidate))
			return nil
		}
	}
	return fmt.Errorf("no technique repaired %s", path)
}

// lookupLeg fetches a journaled leg, tolerating a nil checkpoint.
func lookupLeg(c *core.Checkpoint, technique, path string) *core.CheckpointRecord {
	if c == nil {
		return nil
	}
	return c.Lookup("specrepair", technique, path)
}

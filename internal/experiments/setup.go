package experiments

import (
	"context"
	"fmt"
	"time"

	"specrepair/internal/anacache"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/telemetry"
)

// The roles a study process can play, recorded on its study root span.
const (
	roleLocal       = "local"
	roleCoordinator = "coordinator"
	roleWorker      = "worker"
)

// setup is what every study role builds before its role-specific work: the
// local run, the sharded coordinator and each sharded worker set up the
// same way, so they agree on the corpus and the techniques (the study
// digest checks it) and expose the same instrumentation.
type setup struct {
	// study holds the shared cache, the registry and the generate phase.
	study *Study
	// root is the run's study span (nil — and free — without a span sink):
	// study → phase → job → technique rounds → candidate evals → SAT solves.
	root      *telemetry.Span
	a4f, ar   *bench.Suite
	factories []core.Factory
	// checkpoint is the journal at cfg.CheckpointPath; nil without one, and
	// always nil for a worker, whose completions journal at the coordinator.
	checkpoint *core.Checkpoint
}

// newSetup creates the shared analysis cache (registering its live gauges),
// opens the study root span, opens or creates the checkpoint, generates
// both suites under a "generate" phase span and builds the study
// factories. workerID names a worker on its root span. The caller must
// close the setup once its run ends.
func newSetup(ctx context.Context, cfg Config, role, workerID string) (*setup, error) {
	var cache *anacache.Cache
	if !cfg.DisableCache {
		cache = anacache.New(anacache.DefaultCapacity)
	}
	reg := cfg.Telemetry
	if cache != nil && reg != nil {
		// Live cache statistics, sampled at scrape time.
		reg.SetGauge("anacache.entries", func() int64 { return cache.Stats().Entries })
		reg.SetGauge("anacache.hits", func() int64 { return cache.Stats().Hits })
		reg.SetGauge("anacache.misses", func() int64 { return cache.Stats().Misses })
		reg.SetGauge("anacache.evictions", func() int64 { return cache.Stats().Evictions })
	}
	s := &setup{study: &Study{Cache: cache, Telemetry: reg}}
	progress := cfg.Progress

	s.root = reg.StartSpan("study")
	s.root.SetAttr("seed", fmt.Sprint(cfg.Seed))
	s.root.SetAttr("scale", fmt.Sprint(cfg.Scale))
	s.root.SetAttr("role", role)
	if role == roleWorker {
		s.root.SetAttr("worker", workerID)
	}

	if cfg.CheckpointPath != "" && role != roleWorker {
		var err error
		if cfg.Resume {
			s.checkpoint, err = core.OpenCheckpoint(cfg.CheckpointPath)
		} else {
			s.checkpoint, err = core.CreateCheckpoint(cfg.CheckpointPath)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		if cfg.Resume && progress != nil {
			progress(fmt.Sprintf("resuming: %d jobs already journaled", s.checkpoint.Len()))
		}
	}

	// Generation is sequential, so one collector covers the whole phase.
	// Binding the generator's analyzer to ctx makes even this phase
	// interruptible (generation is deterministic and cheap relative to
	// evaluation, so every role re-does it rather than checkpointing it).
	genSpan := s.root.Child("phase")
	genSpan.SetAttr("name", "generate")
	gen := bench.NewGenerator(analyzer.New(analyzer.Options{
		Cache:     cache,
		Telemetry: telemetry.NewCollector(reg),
	}).WithContext(telemetry.ContextWithSpan(ctx, genSpan)))
	if cfg.Scale > 1 {
		gen.Scale = cfg.Scale
	}
	if progress != nil {
		if role == roleWorker {
			progress(fmt.Sprintf("worker %s: generating benchmark corpora", workerID))
		} else {
			progress("generating benchmark corpora")
		}
	}
	phaseStart := time.Now()
	a4f, ar, err := gen.Both()
	genSpan.End()
	if err != nil {
		s.close()
		return nil, fmt.Errorf("generating benchmarks: %w", err)
	}
	s.study.AddPhase("generate", time.Since(phaseStart))
	s.a4f, s.ar = a4f, ar

	s.factories = core.StudyFactoriesWith(cfg.Seed, core.FactoryOptions{
		Cache:              cache,
		DisableIncremental: cfg.DisableIncremental,
	})
	return s, nil
}

// close closes the checkpoint and ends the study root span.
func (s *setup) close() {
	if s.checkpoint != nil {
		s.checkpoint.Close()
	}
	s.root.End()
}

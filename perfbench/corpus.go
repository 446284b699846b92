package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
)

// corpus is a workload's input: a seeded sample of generated benchmark
// specs, grouped by suite.
type corpus struct {
	suites []*bench.Suite
	// source holds each spec's printed faulty module, keyed by spec name
	// qualified with its suite.
	source map[string]string
}

// specs lists every sampled spec in suite order.
func (c *corpus) specs() []*bench.Spec {
	var out []*bench.Spec
	for _, s := range c.suites {
		out = append(out, s.Specs...)
	}
	return out
}

// poolScale divides the paper's corpus sizes when generating a workload's
// pool. The scales are chosen so one study batch takes about ten seconds
// on two cores.
func poolScale(workload string, tiny bool) int {
	switch {
	case tiny:
		return 1000
	case workload == "study-syn-trad":
		// 27 specs: 108 jobs a batch leave at least ten beyond its p90.
		return 700
	default:
		return 200
	}
}

// A run sets up at least setupMinReps times and until setupSeconds have
// passed, and reports the median. The time floor gives the speed sampler a
// window of some fifty units to scale the figure by.
const (
	setupMinReps = 5
	setupSeconds = 2.0
)

// generatePool builds the workload's full candidate pool: the A4F and
// ARepair suites for study-paper, the SYN stacked-fault suite for
// study-syn-trad. Generation is deterministic.
func generatePool(workload string, tiny bool) ([]*bench.Suite, error) {
	gen := bench.NewGenerator(analyzer.New(analyzer.Options{}))
	gen.Scale = poolScale(workload, tiny)
	var pool []*bench.Suite
	switch workload {
	case "study-syn-trad":
		syn, err := gen.Synthetic()
		if err != nil {
			return nil, fmt.Errorf("generating SYN suite: %w", err)
		}
		pool = []*bench.Suite{syn}
	default:
		a4f, ar, err := gen.Both()
		if err != nil {
			return nil, fmt.Errorf("generating A4F and ARepair suites: %w", err)
		}
		pool = []*bench.Suite{a4f, ar}
	}
	if tiny {
		for i, s := range pool {
			pool[i] = &bench.Suite{Name: s.Name, Specs: s.Specs[:min(len(s.Specs), 4)]}
		}
	}
	return pool, nil
}

// seededCorpus orders the pool by the seed: each suite's specs in a seeded
// permutation, which sets the order the runner dispatches them in and the
// service replay submits them. Every seed runs the whole pool: per-spec repair
// cost spans two orders of magnitude, so a seeded subset would make the
// workload's cost depend on which specs it drew.
func seededCorpus(pool []*bench.Suite, seed int64) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{source: map[string]string{}}
	for _, suite := range pool {
		sampled := &bench.Suite{Name: suite.Name}
		for _, i := range rng.Perm(len(suite.Specs)) {
			sp := suite.Specs[i]
			sampled.Specs = append(sampled.Specs, sp)
			c.source[suite.Name+"/"+sp.Name] = printer.Module(sp.Faulty)
		}
		c.suites = append(c.suites, sampled)
	}
	return c
}

// timedSetup runs setup at least minReps times and until seconds have
// passed, and returns the last result together with the median set-up time
// in seconds and the number of set-ups.
func timedSetup[T any](minReps int, seconds float64, setup func() (T, error)) (T, float64, int, error) {
	var (
		last  T
		times []float64
	)
	begin := time.Now()
	for len(times) < minReps || time.Since(begin).Seconds() < seconds {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), len(times), nil
}

package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/analyzer"
	"specrepair/internal/core"
	"specrepair/internal/llm"
	"specrepair/internal/metrics"
	"specrepair/internal/mutation"
)

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink any

// replayOp measures op with testing.Benchmark, cycling through n inputs, and
// returns ns/op, scaled to the reference host by speed, and allocs/op.
func replayOp(speed *speedSampler, n int, op func(i int) any) (nsPerOp, allocsPerOp float64) {
	speed.reset()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = op(i % n)
		}
	})
	if r.N == 0 {
		return 0, 0
	}
	return speed.take() * float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N)
}

// candPair is one repair candidate with its spec's ground truth.
type candPair struct{ gt, cand *ast.Module }

// candidatePairs lists the candidates among study results.
func candidatePairs(results []*core.Result) []candPair {
	var out []candPair
	for _, r := range results {
		if r.Outcome.Candidate != nil {
			out = append(out, candPair{r.Spec.GroundTruth, r.Outcome.Candidate})
		}
	}
	return out
}

// replayLayers calls each layer's public entry point on the workload's own
// inputs — the sampled specs and the workload's repair candidates — and
// records ns/op and allocs/op per layer.
func replayLayers(rep *report, c *corpus, cands []candPair, cfg *config) error {
	benchtime := "200ms"
	if cfg.tiny {
		benchtime = "1x"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return fmt.Errorf("setting replay time: %w", err)
	}
	specs := c.specs()
	n := len(specs)
	srcs := make([]string, n)
	for i, sp := range specs {
		srcs[i] = printer.Module(sp.Faulty)
	}
	set := func(prefix string, ns, allocs float64) {
		rep.set(prefix+"ns_per_op", ns)
		rep.set(prefix+"allocs_per_op", allocs)
	}

	ns, allocs := replayOp(rep.speed, n, func(i int) any { m, _ := parser.Parse(srcs[i]); return m })
	set("parser.", ns, allocs)
	ns, allocs = replayOp(rep.speed, n, func(i int) any { return printer.Module(specs[i].Faulty) })
	set("printer.", ns, allocs)
	// types.Check rewrites the module in place, so each op checks a clone.
	ns, _ = replayOp(rep.speed, n, func(i int) any { info, _ := types.Check(specs[i].Faulty.Clone()); return info })
	rep.set("types.ns_per_op", ns)

	ns, _ = replayOp(rep.speed, n, func(i int) any { e, _ := mutation.NewEngine(specs[i].Faulty); return e })
	rep.set("mutation.engine_ns_per_op", ns)
	engines := make([]*mutation.Engine, 0, n)
	for _, sp := range specs {
		if e, err := mutation.NewEngine(sp.Faulty); err == nil {
			engines = append(engines, e)
		}
	}
	enumerate := func(e *mutation.Engine) int {
		total := 0
		for _, s := range e.Sites() {
			total += len(e.Candidates(s, mutation.BudgetTemplates))
		}
		return total
	}
	candidates := 0
	for _, e := range engines {
		candidates += enumerate(e)
	}
	ns, allocs = replayOp(rep.speed, len(engines), func(i int) any { return enumerate(engines[i]) })
	rep.set("mutation.enum_ns_per_op", ns)
	rep.set("mutation.allocs_per_op", allocs)
	rep.set("mutation.candidates_per_spec", ratio(float64(candidates), float64(len(engines))))

	// The simulated LLM is replayed only where the workload calls it.
	if slices.Contains(studyTechniques(cfg.workload), core.LLMNames[0]) {
		model := llm.NewSimulatedModel(cfg.seed)
		prompts := make([][]llm.Message, n)
		for i, sp := range specs {
			prompts[i] = []llm.Message{
				{Role: llm.RoleSystem, Content: llm.RepairSystemPrompt},
				{Role: llm.RoleUser, Content: llm.BuildRepairPrompt(srcs[i], llm.PromptOptions{Location: sp.Hints.Location})},
			}
		}
		ns, allocs = replayOp(rep.speed, n, func(i int) any { reply, _ := model.Complete(prompts[i]); return reply })
		rep.set("llm.complete_ns_per_op", ns)
		rep.set("llm.complete_allocs_per_op", allocs)
	}

	ns, allocs = replayOp(rep.speed, n, func(i int) any {
		_, passed := specs[i].Tests.RunAll(specs[i].Faulty)
		return passed
	})
	rep.set("aunit.runall_ns_per_op", ns)
	rep.set("aunit.allocs_per_op", allocs)

	// Uncached: every op translates and solves every command afresh.
	an := analyzer.New(analyzer.Options{})
	ns, _ = replayOp(rep.speed, n, func(i int) any { r, _ := an.ExecuteAll(specs[i].Faulty); return r })
	rep.set("analyzer.execute_all_ns_per_op", ns)

	type pair struct {
		candPair
		gtSrc, candSrc string
	}
	var pairs []pair
	for _, p := range cands {
		pairs = append(pairs, pair{p, printer.Module(p.gt), printer.Module(p.cand)})
	}
	rep.fact("replay.specs", n)
	rep.fact("replay.candidates", len(pairs))
	if len(pairs) == 0 {
		return nil
	}
	check := freshAnalyzer()
	ns, _ = replayOp(rep.speed, len(pairs), func(i int) any { v, _ := metrics.REP(check, pairs[i].gt, pairs[i].cand); return v })
	rep.set("metrics.rep_ns_per_op", ns)
	ns, _ = replayOp(rep.speed, len(pairs), func(i int) any { return metrics.TokenMatch(pairs[i].gtSrc, pairs[i].candSrc) })
	rep.set("metrics.tm_ns_per_op", ns)
	ns, _ = replayOp(rep.speed, len(pairs), func(i int) any { return metrics.SyntaxMatch(pairs[i].gtSrc, pairs[i].candSrc) })
	rep.set("metrics.sm_ns_per_op", ns)
	return nil
}

// replayJournal appends records to a fresh core.Journal in dir, timing each
// append, and records the p50 and p99 in microseconds.
func replayJournal(rep *report, dir string, records []any, appends int) error {
	j, err := core.CreateJournal(filepath.Join(dir, "replay-journal.jsonl"))
	if err != nil {
		return err
	}
	us := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		start := time.Now()
		if err := j.Append(records[i%len(records)]); err != nil {
			j.Close()
			return fmt.Errorf("journal append: %w", err)
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	if err := j.Close(); err != nil {
		return fmt.Errorf("closing journal: %w", err)
	}
	rep.set("core.journal_append_us.p50", quantile(us, 0.50))
	rep.set("core.journal_append_us.p99", quantile(us, 0.99))
	rep.fact("samples.journal_append_us", len(us))
	return nil
}

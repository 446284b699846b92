// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV): Table I (REP counts per technique and domain),
// Figure 2 (mean TM/SM per technique), Figure 3 (Pearson correlation matrix
// of techniques), and Table II / Figure 4 (hybrid traditional+LLM
// combinations).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"specrepair/internal/anacache"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/metrics"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

// Phase is one timed stage of a study run.
type Phase struct {
	Name     string
	Duration time.Duration
}

// Study bundles the evaluations of both benchmark suites.
type Study struct {
	A4F     *core.Evaluation
	ARepair *core.Evaluation
	// Cache is the analysis cache shared by benchmark generation, every
	// technique, and the REP scoring across the whole run (nil when the
	// study ran uncached).
	Cache *anacache.Cache
	// Telemetry is the registry the whole run recorded into (nil when the
	// study ran uninstrumented).
	Telemetry *telemetry.Registry
	// Phases is the wall-clock breakdown of the run, in execution order.
	Phases []Phase
}

// AddPhase appends one timed stage to the run's breakdown.
func (s *Study) AddPhase(name string, d time.Duration) {
	s.Phases = append(s.Phases, Phase{Name: name, Duration: d})
}

// CacheStats snapshots the shared analysis cache (zero value for uncached
// studies).
func (s *Study) CacheStats() anacache.Stats {
	if s.Cache == nil {
		return anacache.Stats{}
	}
	return s.Cache.Stats()
}

// Config parameterizes a study run.
type Config struct {
	// Seed drives the simulated LLM.
	Seed int64
	// Scale divides corpus sizes; 1 (or 0) reproduces the paper's counts.
	Scale int
	// Workers is the parallelism degree (0 = GOMAXPROCS).
	Workers int
	// DisableCache runs the study without the shared analysis cache — the
	// A/B baseline where every analyzer query is solved from scratch.
	DisableCache bool
	// DisableIncremental runs every technique's candidate validation on the
	// fresh per-candidate analyzer path instead of the long-lived
	// incremental evaluation session — the A/B baseline for the incremental
	// layer. Study outputs are identical either way.
	DisableIncremental bool
	// Telemetry, when non-nil, instruments the whole run: generation,
	// both evaluations, and the shared cache (exposed as gauges).
	Telemetry *telemetry.Registry
	// Progress receives human-readable progress lines when non-nil.
	Progress func(string)
	// Timeout, when positive, bounds each (technique, spec) job's wall
	// clock; a timed-out job yields an errored result and the run continues.
	Timeout time.Duration
	// CheckpointPath, when non-empty, journals every completed job to this
	// JSONL file. Without Resume the file must not already exist.
	CheckpointPath string
	// Resume loads an existing checkpoint at CheckpointPath and skips the
	// jobs it records, so an interrupted run continues where it stopped and
	// produces the same final artifacts an uninterrupted run would.
	Resume bool
}

// RunStudy executes the study under the given configuration. One analysis
// cache is shared end-to-end: benchmark generation (whose oracle
// validations pre-warm the faulty specs every technique re-checks first),
// all twelve techniques across all workers, and the REP equisatisfiability
// scoring.
func RunStudy(cfg Config) (*Study, error) {
	return RunStudyContext(context.Background(), cfg)
}

// RunStudyContext executes the study under the given configuration and
// context. Cancelling ctx (e.g. from a SIGINT handler) stops the run
// gracefully: in-flight jobs are cancelled, completed work stays journaled
// when a checkpoint is configured, and the context's error is returned.
func RunStudyContext(ctx context.Context, cfg Config) (*Study, error) {
	s, err := newSetup(ctx, cfg, roleLocal, "")
	if err != nil {
		return nil, err
	}
	defer s.close()
	progress := cfg.Progress

	runner := &core.Runner{
		Workers:    cfg.Workers,
		Cache:      s.study.Cache,
		Telemetry:  cfg.Telemetry,
		Timeout:    cfg.Timeout,
		Checkpoint: s.checkpoint,
	}
	if progress != nil {
		runner.Progress = func(tech, spec string, done, total int, cs anacache.Stats, tel telemetry.Brief) {
			if done%500 == 0 || done == total {
				msg := fmt.Sprintf("evaluated %d/%d", done, total)
				if cs.Lookups() > 0 {
					msg += fmt.Sprintf(" (cache: %.1f%% hit rate, %d lookups)",
						100*cs.HitRate(), cs.Lookups())
				}
				if tel.Solves > 0 {
					msg += fmt.Sprintf(" (solver: %d solves, %d conflicts)",
						tel.Solves, tel.Conflicts)
				}
				progress(msg)
			}
		}
	}
	// One phase per suite: evaluate_a4f, then evaluate_arepair.
	evaluate := func(suite *bench.Suite) (*core.Evaluation, error) {
		if progress != nil {
			progress(fmt.Sprintf("evaluating %d techniques x %d %s specs", len(s.factories), len(suite.Specs), suite.Name))
		}
		name := "evaluate_" + strings.ToLower(suite.Name)
		phaseStart := time.Now()
		span := s.root.Child("phase")
		span.SetAttr("name", name)
		eval, err := runner.EvaluateContext(telemetry.ContextWithSpan(ctx, span), suite, s.factories)
		span.End()
		if err != nil {
			return nil, err
		}
		s.study.AddPhase(name, time.Since(phaseStart))
		return eval, nil
	}
	a4fEval, err := evaluate(s.a4f)
	if err != nil {
		return nil, err
	}
	arEval, err := evaluate(s.ar)
	if err != nil {
		return nil, err
	}
	s.study.A4F, s.study.ARepair = a4fEval, arEval
	return s.study, nil
}

// domainOrder lists domains in the paper's row order.
var a4fDomainOrder = []string{"classroom", "cv", "graphs", "lts", "production", "trash"}
var arepairDomainOrder = []string{
	"addr", "arr", "balancedBSt", "bempl", "cd", "ctree",
	"dll", "farmer", "fsm", "grade", "other", "Student",
}

// TableI renders the REP-count table in the paper's layout: one row per
// domain, one column per technique, with per-benchmark summaries and a
// grand total.
func (s *Study) TableI() string {
	var b strings.Builder
	cols := core.TechniqueNames

	writeHeader := func() {
		fmt.Fprintf(&b, "%-22s %6s", "Domain", "#spec")
		for _, c := range cols {
			fmt.Fprintf(&b, " %s", shorten(c))
		}
		b.WriteString("\n")
	}
	writeRows := func(eval *core.Evaluation, order []string, label string) {
		domains := eval.Suite.ByDomain()
		sums := make([]int, len(cols))
		total := 0
		for _, dom := range order {
			specs := domains[dom]
			if len(specs) == 0 {
				continue
			}
			total += len(specs)
			fmt.Fprintf(&b, "%-22s %6d", dom, len(specs))
			for i, c := range cols {
				n := eval.REPCount(c, dom)
				sums[i] += n
				fmt.Fprintf(&b, " %*d", len(shorten(c)), n)
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%-22s %6d", label+" summary", total)
		for i, c := range cols {
			fmt.Fprintf(&b, " %*d", len(shorten(c)), sums[i])
		}
		b.WriteString("\n")
	}

	b.WriteString("Table I: REP scores (specifications repaired) per technique\n\n")
	writeHeader()
	writeRows(s.A4F, a4fDomainOrder, "A4F")
	b.WriteString("\n")
	writeRows(s.ARepair, arepairDomainOrder, "ARepair")
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s %6d", "Total", core.TotalSpecs(s.A4F, s.ARepair))
	for _, c := range cols {
		n := s.A4F.REPCount(c, "") + s.ARepair.REPCount(c, "")
		fmt.Fprintf(&b, " %*d", len(shorten(c)), n)
	}
	b.WriteString("\n")
	return b.String()
}

func shorten(name string) string {
	name = strings.ReplaceAll(name, "Single-Round_", "SR_")
	name = strings.ReplaceAll(name, "Multi-Round_", "MR_")
	if len(name) < 7 {
		return fmt.Sprintf("%7s", name)
	}
	return name
}

// Figure2Row is one bar pair of Figure 2.
type Figure2Row struct {
	Technique string
	TM        float64
	SM        float64
}

// Figure2 computes mean TM and SM per technique over both benchmarks.
func (s *Study) Figure2() []Figure2Row {
	var rows []Figure2Row
	for _, tech := range core.TechniqueNames {
		tmA, smA := s.A4F.SimilarityVectors(tech)
		tmR, smR := s.ARepair.SimilarityVectors(tech)
		tm := metrics.Mean(append(append([]float64(nil), tmA...), tmR...))
		sm := metrics.Mean(append(append([]float64(nil), smA...), smR...))
		rows = append(rows, Figure2Row{Technique: tech, TM: tm, SM: sm})
	}
	return rows
}

// RenderFigure2 renders the TM/SM bars as text.
func (s *Study) RenderFigure2() string {
	var b strings.Builder
	b.WriteString("Figure 2: mean similarity to ground truth per technique\n\n")
	fmt.Fprintf(&b, "%-24s %8s %8s\n", "Technique", "TM", "SM")
	for _, r := range s.Figure2() {
		fmt.Fprintf(&b, "%-24s %8.3f %8.3f  %s\n", r.Technique, r.TM, r.SM, bar(r.SM))
	}
	return b.String()
}

func bar(v float64) string {
	n := int(v * 30)
	if n < 0 {
		n = 0
	}
	return strings.Repeat("#", n)
}

// Figure3 computes the Pearson correlation matrix between all technique
// pairs over the combined per-spec similarity vectors (TM and SM
// concatenated), plus the maximum p-value observed.
func (s *Study) Figure3() (names []string, matrix [][]float64, maxP float64) {
	names = core.TechniqueNames
	vectors := map[string][]float64{}
	for _, tech := range names {
		tmA, smA := s.A4F.SimilarityVectors(tech)
		tmR, smR := s.ARepair.SimilarityVectors(tech)
		v := append(append([]float64(nil), tmA...), tmR...)
		v = append(v, smA...)
		v = append(v, smR...)
		vectors[tech] = v
	}
	matrix = make([][]float64, len(names))
	for i := range names {
		matrix[i] = make([]float64, len(names))
		for j := range names {
			r, p := metrics.Pearson(vectors[names[i]], vectors[names[j]])
			matrix[i][j] = r
			if i != j && p > maxP {
				maxP = p
			}
		}
	}
	return names, matrix, maxP
}

// RenderFigure3 renders the correlation heatmap as text.
func (s *Study) RenderFigure3() string {
	names, matrix, maxP := s.Figure3()
	var b strings.Builder
	b.WriteString("Figure 3: Pearson correlation between techniques (per-spec similarity)\n\n")
	fmt.Fprintf(&b, "%-24s", "")
	for j := range names {
		fmt.Fprintf(&b, " %5d", j)
	}
	b.WriteString("\n")
	for i, n := range names {
		fmt.Fprintf(&b, "%2d %-21s", i, n)
		for j := range names {
			fmt.Fprintf(&b, " %5.2f", matrix[i][j])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\nmax pairwise p-value: %.2g\n", maxP)
	return b.String()
}

// TableII computes the 32 hybrid combinations.
func (s *Study) TableII() []core.Hybrid {
	return core.Hybrids(s.A4F, s.ARepair)
}

// RenderTableII renders the hybrid overview in the paper's column layout.
func (s *Study) RenderTableII() string {
	var b strings.Builder
	total := core.TotalSpecs(s.A4F, s.ARepair)
	b.WriteString("Table II: hybrid traditional+LLM repair capabilities\n\n")
	fmt.Fprintf(&b, "%-10s %6s  %-22s %6s %8s %7s %7s\n",
		"Trad.", "Rep.", "LLM technique", "Rep.", "Overlap", "Union", "Rate")
	for _, h := range s.TableII() {
		fmt.Fprintf(&b, "%-10s %6d  %-22s %6d %8d %7d %6.1f%%\n",
			h.Traditional, h.TraditionalRepairs, h.LLM, h.LLMRepairs,
			h.Overlap, h.Union, 100*float64(h.Union)/float64(total))
	}
	return b.String()
}

// Figure4Cell is one Venn diagram of Figure 4.
type Figure4Cell struct {
	Hybrid core.Hybrid
	// OnlyTraditional, OnlyLLM and Both are the Venn regions.
	OnlyTraditional int
	OnlyLLM         int
	Both            int
}

// Figure4 computes the 32 Venn diagrams.
func (s *Study) Figure4() []Figure4Cell {
	var out []Figure4Cell
	for _, h := range s.TableII() {
		out = append(out, Figure4Cell{
			Hybrid:          h,
			OnlyTraditional: h.TraditionalRepairs - h.Overlap,
			OnlyLLM:         h.LLMRepairs - h.Overlap,
			Both:            h.Overlap,
		})
	}
	return out
}

// RenderFigure4 renders the Venn regions as text.
func (s *Study) RenderFigure4() string {
	var b strings.Builder
	b.WriteString("Figure 4: Venn regions of hybrid combinations (only-trad / both / only-LLM)\n\n")
	for _, c := range s.Figure4() {
		fmt.Fprintf(&b, "%-10s + %-22s  (%4d | %4d | %4d)  union %4d\n",
			c.Hybrid.Traditional, c.Hybrid.LLM,
			c.OnlyTraditional, c.Both, c.OnlyLLM, c.Hybrid.Union)
	}
	return b.String()
}

// BestHybrid returns the pairing with the largest union.
func (s *Study) BestHybrid() core.Hybrid {
	hybrids := s.TableII()
	sort.SliceStable(hybrids, func(i, j int) bool { return hybrids[i].Union > hybrids[j].Union })
	return hybrids[0]
}

// Summary produces the headline numbers of the study.
func (s *Study) Summary() string {
	var b strings.Builder
	total := core.TotalSpecs(s.A4F, s.ARepair)
	best := s.BestHybrid()
	b.WriteString("Study summary\n")
	fmt.Fprintf(&b, "  specifications analyzed: %d (A4F %d + ARepair %d)\n",
		total, len(s.A4F.Suite.Specs), len(s.ARepair.Suite.Specs))
	for _, tech := range core.TechniqueNames {
		n := s.A4F.REPCount(tech, "") + s.ARepair.REPCount(tech, "")
		fmt.Fprintf(&b, "  %-24s %5d repairs (%.1f%%)\n", tech, n, 100*float64(n)/float64(total))
	}
	fmt.Fprintf(&b, "  best hybrid: %s + %s = %d repairs (%.1f%%)\n",
		best.Traditional, best.LLM, best.Union, 100*float64(best.Union)/float64(total))
	if s.Cache != nil {
		fmt.Fprintf(&b, "  analysis cache: %s\n", s.Cache.Stats())
	} else {
		b.WriteString("  analysis cache: off\n")
	}
	if stats := s.TechStats(); len(stats) > 0 {
		b.WriteString("\nPer-technique effort (both benchmarks)\n")
		fmt.Fprintf(&b, "  %-24s %10s %10s %10s %10s\n",
			"Technique", "candidates", "ana.calls", "test runs", "iterations")
		for _, tech := range core.TechniqueNames {
			st, ok := stats[tech]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-24s %10d %10d %10d %10d\n",
				tech, st.CandidatesTried, st.AnalyzerCalls, st.TestRuns, st.Iterations)
		}
	}
	return b.String()
}

// TechStats sums each technique's self-reported effort over both benchmark
// evaluations.
func (s *Study) TechStats() map[string]repair.Stats {
	out := map[string]repair.Stats{}
	for _, eval := range []*core.Evaluation{s.A4F, s.ARepair} {
		if eval == nil {
			continue
		}
		for tech, st := range eval.TechStats {
			agg := out[tech]
			agg.Add(st)
			out[tech] = agg
		}
	}
	return out
}

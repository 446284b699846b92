// Package beafix reimplements the BeAFix technique (Brida et al. — ICSE'21):
// bounded exhaustive exploration of mutation-based repair candidates,
// validated against the property oracles already present in the model
// (predicate satisfiability and assertion validity), with pruning to tame
// the combinatorial space.
//
// Pruning strategies, mirroring the paper's:
//
//  1. Suspicious-site restriction: only constraints implicated by fault
//     localization are mutated (unless pruning is disabled).
//  2. Candidate deduplication by canonical printing.
//  3. Counterexample screening: a mutant goes to the (expensive) analyzer
//     only when the mutated constraint evaluates differently from the
//     original on at least one cached counterexample — an unchanged
//     evaluation cannot flip the failing verdict.
package beafix

import (
	"context"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/analyzer"
	"specrepair/internal/faultloc"
	"specrepair/internal/instance"
	"specrepair/internal/mutation"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

// Options bounds the exhaustive search.
type Options struct {
	// MaxDepth is the maximum number of simultaneous mutations (the
	// bounded-exhaustive depth). Depth 2 covers the benchmark fault mix.
	MaxDepth int
	// MaxCandidates caps total analyzer validations.
	MaxCandidates int
	// Budget selects mutation aggressiveness.
	Budget mutation.Budget
	// DisablePruning turns off suspicious-site restriction and
	// counterexample screening; used by the ablation benchmark.
	DisablePruning bool
	// Analyzer overrides the default analyzer (mainly for tests).
	Analyzer *analyzer.Analyzer
	// Telemetry records the search's live effort (candidates tried, solver
	// work). Nil disables instrumentation; results are unaffected either way.
	Telemetry *telemetry.Collector
}

// DefaultOptions mirror the study's configuration.
func DefaultOptions() Options {
	return Options{MaxDepth: 2, MaxCandidates: 4000, Budget: mutation.BudgetRelations}
}

// Tool is the BeAFix technique.
type Tool struct {
	opts       Options
	an         *analyzer.Analyzer
	candidates *telemetry.Counter
}

// New returns the technique with the given options.
func New(opts Options) *Tool {
	if opts.MaxDepth == 0 {
		d := DefaultOptions()
		d.DisablePruning = opts.DisablePruning
		d.Analyzer = opts.Analyzer
		d.Telemetry = opts.Telemetry
		opts = d
	}
	an := opts.Analyzer
	if an == nil {
		an = analyzer.New(analyzer.Options{Telemetry: opts.Telemetry})
	}
	return &Tool{
		opts:       opts,
		an:         an,
		candidates: opts.Telemetry.TechCounter("BeAFix", "candidates"),
	}
}

var _ repair.Technique = (*Tool)(nil)

// Name implements repair.Technique.
func (t *Tool) Name() string { return "BeAFix" }

// Repair implements repair.Technique.
func (t *Tool) Repair(ctx context.Context, p repair.Problem) (repair.Outcome, error) {
	out := repair.Outcome{}

	// Every analysis below — oracle checks, instance collection, candidate
	// validation — runs on this context-bound analyzer.
	an := t.an.WithContext(ctx)

	ok, err := repair.OracleAllCommandsPass(ctx, t.an, p.Faulty)
	out.Stats.AnalyzerCalls++
	if err != nil {
		return out, err
	}
	if ok {
		out.Repaired = true
		out.Candidate = p.Faulty.Clone()
		return out, nil
	}

	failing, passing, err := faultloc.CollectInstances(an, p.Faulty)
	out.Stats.AnalyzerCalls += 2 * len(p.Faulty.Commands)
	if err != nil {
		return out, err
	}

	// Suspicious sites (or all formula sites when pruning is off). The
	// no-signal fallback to exhaustive search is job-local: mutating the
	// shared options here would disable pruning for every later job on this
	// worker, making results depend on job-to-worker scheduling.
	pruning := !t.opts.DisablePruning
	suspicious := map[string]bool{}
	if pruning {
		ranked, err := faultloc.Localize(p.Faulty, failing, passing)
		if err != nil {
			return out, err
		}
		for _, r := range ranked {
			if r.Score > 0 || r.FailGuilty > 0 {
				suspicious[r.Site.Site.String()] = true
			}
		}
		// No signal: fall back to exhaustive.
		if len(suspicious) == 0 {
			pruning = false
		}
	}

	low, _, err := types.Lower(p.Faulty)
	if err != nil {
		return out, err
	}

	// One incremental evaluation session spans the whole candidate stream:
	// every mutant shares the base's signatures, so bounds, relation
	// variables, and learned clauses carry over between validations.
	oracle := an.Evaluator(p.Faulty)

	// Breadth-first over mutation depth: each frontier entry is a module.
	frontier := []*ast.Module{p.Faulty}
	seen := map[string]bool{printer.Module(p.Faulty): true}

	// One trace span per BFS depth; candidate evaluations nest under the
	// active one. The deferred End closes whichever span an early return
	// leaves open (End is idempotent).
	parent := telemetry.SpanFromContext(ctx)
	var depthSpan *telemetry.Span
	defer func() { depthSpan.End() }()

	for depth := 1; depth <= t.opts.MaxDepth; depth++ {
		depthSpan.End()
		depthSpan = parent.Child("beafix.depth")
		depthSpan.SetMetric("depth", int64(depth))
		depthSpan.SetMetric("frontier", int64(len(frontier)))
		oracle.SetSpan(depthSpan)
		var next []*ast.Module
		for _, base := range frontier {
			eng, err := mutation.NewEngine(base)
			if err != nil {
				continue
			}
			for _, s := range eng.Sites() {
				if err := ctx.Err(); err != nil {
					return out, err
				}
				if pruning && depth == 1 && !t.siteAllowed(s, suspicious) {
					continue
				}
				for _, c := range eng.Candidates(s, t.opts.Budget) {
					if out.Stats.CandidatesTried >= t.opts.MaxCandidates {
						out.Candidate = nil
						return out, nil
					}
					cand, err := eng.Apply(s.Site, c)
					if err != nil {
						continue
					}
					key := printer.Module(cand)
					if seen[key] {
						continue
					}
					seen[key] = true
					if _, err := types.Check(cand); err != nil {
						continue
					}
					// Counterexample screening.
					if pruning && !t.changesOnInstances(low, cand, s, c, failing) {
						continue
					}
					out.Stats.CandidatesTried++
					t.candidates.Inc()
					pass, err := oracle.PassesAll(cand)
					out.Stats.AnalyzerCalls++
					if err != nil {
						if cerr := ctx.Err(); cerr != nil {
							return out, cerr
						}
						continue
					}
					if pass {
						out.Repaired = true
						out.Candidate = cand
						return out, nil
					}
					if depth < t.opts.MaxDepth && len(next) < 40 {
						next = append(next, cand)
					}
				}
				// Conjunct dropping at block sites.
				drops, err := mutation.DropConjunct(eng.Mod, s.Site)
				if err != nil {
					continue
				}
				for _, cand := range drops {
					if out.Stats.CandidatesTried >= t.opts.MaxCandidates {
						out.Candidate = nil
						return out, nil
					}
					key := printer.Module(cand)
					if seen[key] {
						continue
					}
					seen[key] = true
					out.Stats.CandidatesTried++
					t.candidates.Inc()
					pass, err := oracle.PassesAll(cand)
					out.Stats.AnalyzerCalls++
					if err != nil {
						if cerr := ctx.Err(); cerr != nil {
							return out, cerr
						}
						continue
					}
					if pass {
						out.Repaired = true
						out.Candidate = cand
						return out, nil
					}
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return out, nil
}

// siteAllowed reports whether the site lies within a suspicious conjunct.
func (t *Tool) siteAllowed(s mutation.ScopedSite, suspicious map[string]bool) bool {
	// A site is allowed when any prefix of its path was marked suspicious.
	for l := 0; l <= len(s.Path); l++ {
		prefix := mutation.Site{Container: s.Container, Path: s.Path[:l]}
		if suspicious[prefix.String()] {
			return true
		}
	}
	return false
}

// changesOnInstances reports whether replacing site s with candidate c
// changes the truth value of the enclosing container's body on at least one
// failing instance — the cheap screen before full analysis.
func (t *Tool) changesOnInstances(low *ast.Module, cand *ast.Module, s mutation.ScopedSite, c ast.Expr, failing []faultloc.Observation) bool {
	if len(failing) == 0 {
		return true
	}
	candLow, _, err := types.Lower(cand)
	if err != nil {
		return true
	}
	origBody, candBody := containerBodies(low, candLow, s.Container)
	if origBody == nil || candBody == nil {
		return true
	}
	for _, obs := range failing {
		evO := &instance.Evaluator{Mod: low, Inst: obs.Inst}
		evC := &instance.Evaluator{Mod: candLow, Inst: obs.Inst}
		vo, eo := evO.EvalFormula(origBody, nil)
		vc, ec := evC.EvalFormula(candBody, nil)
		if eo != nil || ec != nil {
			return true
		}
		if vo != vc {
			return true
		}
	}
	return false
}

func containerBodies(a, b *ast.Module, c mutation.Container) (ast.Expr, ast.Expr) {
	switch c.Kind {
	case mutation.InFact:
		if c.Index < len(a.Facts) && c.Index < len(b.Facts) {
			return a.Facts[c.Index].Body, b.Facts[c.Index].Body
		}
	case mutation.InPred:
		if c.Index < len(a.Preds) && c.Index < len(b.Preds) {
			// Predicate bodies may have parameters; only closed bodies can
			// be screened.
			if len(a.Preds[c.Index].Params) == 0 {
				return a.Preds[c.Index].Body, b.Preds[c.Index].Body
			}
		}
	case mutation.InFun:
		// Function bodies are expressions; screening does not apply.
	}
	return nil, nil
}

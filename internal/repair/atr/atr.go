// Package atr reimplements the ATR technique (Zheng et al. — ISSTA'22):
// template-based repair for Alloy driven by the difference between
// counterexamples and satisfying instances.
//
// For each failing assertion, ATR:
//
//  1. Takes the analyzer's counterexample.
//  2. Uses a partial MaxSAT query — hard: implicit constraints, facts, and
//     the assertion; soft: agreement with the counterexample's tuples — to
//     find the *nearest* satisfying instance, exactly as the original uses
//     its PMaxSAT solver.
//  3. Diffs the two instances; relations that differ localize the fault.
//  4. Instantiates repair templates (operator flips, relation and variable
//     substitutions, union/difference/closure templates) at constraint sites
//     mentioning the differing relations.
//  5. Prunes candidates that still accept the counterexample or reject the
//     nearest satisfying instance, then validates survivors with the full
//     analyzer oracle.
package atr

import (
	"context"
	"sort"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/analyzer"
	"specrepair/internal/bounds"
	"specrepair/internal/instance"
	"specrepair/internal/mutation"
	"specrepair/internal/repair"
	"specrepair/internal/sat"
	"specrepair/internal/telemetry"
	"specrepair/internal/translate"
)

// Options bounds the template search.
type Options struct {
	// MaxCandidates caps analyzer validations.
	MaxCandidates int
	// Budget selects template aggressiveness.
	Budget mutation.Budget
	// Analyzer overrides the default analyzer (mainly for tests).
	Analyzer *analyzer.Analyzer
	// Telemetry records the search's live effort, including the PMaxSAT
	// nearest-instance solves. Nil disables instrumentation.
	Telemetry *telemetry.Collector
}

// DefaultOptions mirror the study's configuration.
func DefaultOptions() Options {
	return Options{MaxCandidates: 3000, Budget: mutation.BudgetTemplates}
}

// Tool is the ATR technique.
type Tool struct {
	opts       Options
	an         *analyzer.Analyzer
	candidates *telemetry.Counter
}

// New returns the technique with the given options.
func New(opts Options) *Tool {
	if opts.MaxCandidates == 0 {
		d := DefaultOptions()
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
		candidates: opts.Telemetry.TechCounter("ATR", "candidates"),
	}
}

var _ repair.Technique = (*Tool)(nil)

// Name implements repair.Technique.
func (t *Tool) Name() string { return "ATR" }

// Repair implements repair.Technique.
func (t *Tool) Repair(ctx context.Context, p repair.Problem) (repair.Outcome, error) {
	out := repair.Outcome{}

	// Context-bound analyzer for every analysis in this call, including the
	// PMaxSAT nearest-instance solves.
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

	// Collect (counterexample, nearest satisfying instance) pairs per
	// failing check. The localize span groups the counterexample reruns and
	// the PMaxSAT nearest-instance solves.
	locSpan := telemetry.SpanFromContext(ctx).Child("atr.localize")
	pairs, err := t.instancePairs(telemetry.ContextWithSpan(ctx, locSpan), an.WithSpan(locSpan), p.Faulty)
	locSpan.SetMetric("pairs", int64(len(pairs)))
	locSpan.End()
	if err != nil {
		return out, err
	}
	out.Stats.AnalyzerCalls += len(p.Faulty.Commands)

	suspiciousRels := map[string]bool{}
	for _, pr := range pairs {
		for _, rel := range diffRelations(pr.cex, pr.sat) {
			suspiciousRels[rel] = true
		}
	}

	eng, err := mutation.NewEngine(p.Faulty)
	if err != nil {
		return out, err
	}

	// Candidate sites: those mentioning a suspicious relation first, the
	// rest after — the diff localizes, the template budget extends.
	var sites, rest []mutation.ScopedSite
	for _, s := range eng.Sites() {
		if len(suspiciousRels) == 0 || mentionsAny(s.Node, suspiciousRels) {
			sites = append(sites, s)
		} else {
			rest = append(rest, s)
		}
	}
	sites = append(sites, rest...)

	// One incremental evaluation session spans the whole candidate stream
	// (templates never touch signature paragraphs, so the shared bounds and
	// learned clauses apply to every candidate).
	oracle := an.Evaluator(p.Faulty)

	// The enumerate span groups every template validation; candidate.eval
	// spans nest under it via the oracle.
	enumSpan := telemetry.SpanFromContext(ctx).Child("atr.enumerate")
	enumSpan.SetMetric("sites", int64(len(sites)))
	oracle.SetSpan(enumSpan)
	defer func() {
		enumSpan.SetMetric("candidates", int64(out.Stats.CandidatesTried))
		enumSpan.End()
	}()

	seen := map[string]bool{printer.Module(p.Faulty): true}
	for _, s := range sites {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		cands := eng.Candidates(s, t.opts.Budget)
		for _, c := range cands {
			if out.Stats.CandidatesTried >= t.opts.MaxCandidates {
				return out, nil
			}
			candMod, err := eng.Apply(s.Site, c)
			if err != nil {
				continue
			}
			key := printer.Module(candMod)
			if seen[key] {
				continue
			}
			seen[key] = true
			if _, err := types.Check(candMod); err != nil {
				continue
			}
			if !t.survivesPruning(candMod, pairs) {
				continue
			}
			out.Stats.CandidatesTried++
			t.candidates.Inc()
			pass, err := oracle.PassesAll(candMod)
			out.Stats.AnalyzerCalls++
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return out, cerr
				}
				continue
			}
			if pass {
				out.Repaired = true
				out.Candidate = candMod
				return out, nil
			}
		}
		// Conjunct dropping as an over-constraint template.
		drops, err := mutation.DropConjunct(eng.Mod, s.Site)
		if err != nil {
			continue
		}
		for _, candMod := range drops {
			if out.Stats.CandidatesTried >= t.opts.MaxCandidates {
				return out, nil
			}
			key := printer.Module(candMod)
			if seen[key] {
				continue
			}
			seen[key] = true
			if !t.survivesPruning(candMod, pairs) {
				continue
			}
			out.Stats.CandidatesTried++
			t.candidates.Inc()
			pass, err := oracle.PassesAll(candMod)
			out.Stats.AnalyzerCalls++
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return out, cerr
				}
				continue
			}
			if pass {
				out.Repaired = true
				out.Candidate = candMod
				return out, nil
			}
		}
	}
	return out, nil
}

type instancePair struct {
	cex *instance.Instance
	sat *instance.Instance
}

// instancePairs finds, for each failing check command, the counterexample
// and the PMaxSAT-nearest satisfying instance.
func (t *Tool) instancePairs(ctx context.Context, an *analyzer.Analyzer, mod *ast.Module) ([]instancePair, error) {
	low, info, err := types.Lower(mod)
	if err != nil {
		return nil, err
	}
	var pairs []instancePair
	for _, cmd := range low.Commands {
		if cmd.Kind != ast.CmdCheck {
			continue
		}
		res, err := an.RunCommand(mod, cmd)
		if err != nil {
			return nil, err
		}
		if !res.Sat || res.Instance == nil {
			continue
		}
		near, err := t.nearestSatisfying(ctx, low, info, cmd, res.Instance)
		if err != nil || near == nil {
			// No satisfying instance in scope; keep the counterexample for
			// relation-level localization anyway.
			pairs = append(pairs, instancePair{cex: res.Instance})
			continue
		}
		pairs = append(pairs, instancePair{cex: res.Instance, sat: near})
	}
	return pairs, nil
}

// nearestSatisfying solves a weighted partial MaxSAT problem: hard clauses
// demand facts, implicit constraints, and the assertion all hold; soft
// clauses prefer each relation-tuple variable to keep the value it has in
// the counterexample.
func (t *Tool) nearestSatisfying(ctx context.Context, low *ast.Module, info *types.Info, cmd *ast.Command, cex *instance.Instance) (*instance.Instance, error) {
	b, err := bounds.Build(info, cmd.Scope)
	if err != nil {
		return nil, err
	}
	tr := translate.New(info, b)
	tr.SetContext(ctx)

	implicit, err := tr.ImplicitConstraints()
	if err != nil {
		return nil, err
	}
	parts := []translate.Node{implicit}
	for _, f := range low.Facts {
		n, err := tr.Formula(f.Body, nil)
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	as := low.LookupAssert(cmd.Target)
	if as == nil {
		return nil, nil
	}
	n, err := tr.Formula(as.Body, nil)
	if err != nil {
		return nil, err
	}
	parts = append(parts, n)

	ms := sat.NewMaxSolver(tr.NumVars())
	ms.MaxConflicts = analyzer.DefaultMaxConflicts
	ms.Context = ctx
	ms.Telemetry = t.opts.Telemetry
	ms.Span = telemetry.SpanFromContext(ctx)
	cb := translate.NewCNFBuilder(ms, tr.NumVars())
	cb.AddAssert(translate.And(parts...))

	// Soft agreement with the counterexample.
	addSoft(ms, tr, b, cex)

	res := ms.Solve()
	if res.Status != sat.StatusSat {
		return nil, nil
	}
	return tr.Decode(res.Model), nil
}

// addSoft adds one unit soft clause per relation variable, preferring the
// counterexample's value.
func addSoft(ms *sat.MaxSolver, tr *translate.Translator, b *bounds.Bounds, cex *instance.Instance) {
	// Deterministic relation order: soft-clause insertion order is MaxSAT
	// tie-breaking order, and study outputs must not vary run to run.
	names := make([]string, 0, len(b.Rels))
	for name := range b.Rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cexTS, ok := cex.Rels[name]
		if !ok {
			continue
		}
		m, ok := tr.RelMatrix(name)
		if !ok {
			continue
		}
		for i, tuple := range m.Tuples() {
			node := m.Nodes()[i]
			v, isVar := translate.VarOf(node)
			if !isVar {
				continue
			}
			if cexTS.Contains(tuple) {
				ms.AddSoft(1, sat.PosLit(v))
			} else {
				ms.AddSoft(1, sat.NegLit(v))
			}
		}
	}
}

// diffRelations lists relations whose valuation differs between the two
// instances (all relations of the counterexample when sat is nil).
func diffRelations(cex, satInst *instance.Instance) []string {
	var out []string
	if satInst == nil {
		for name := range cex.Rels {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	for name, ts := range cex.Rels {
		if !ts.Equal(satInst.Rel(name)) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// mentionsAny reports whether the expression references one of the named
// relations (primed references count for the base name).
func mentionsAny(e ast.Expr, names map[string]bool) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if id, ok := x.(*ast.Ident); ok && (names[id.Name] || names[id.Name+"'"]) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// survivesPruning screens a candidate against every (cex, sat) pair: the
// candidate's facts must reject each counterexample and keep accepting each
// nearest satisfying instance.
func (t *Tool) survivesPruning(cand *ast.Module, pairs []instancePair) bool {
	if len(pairs) == 0 {
		return true
	}
	low, _, err := types.Lower(cand)
	if err != nil {
		return false
	}
	factsHold := func(inst *instance.Instance) (bool, bool) {
		ev := &instance.Evaluator{Mod: low, Inst: inst}
		for _, f := range low.Facts {
			v, err := ev.EvalFormula(f.Body, nil)
			if err != nil {
				return false, false
			}
			if !v {
				return false, true
			}
		}
		return true, true
	}
	for _, pr := range pairs {
		if pr.cex != nil {
			holds, ok := factsHold(pr.cex)
			if ok && holds {
				// Candidate still admits the counterexample: only viable if
				// the assertion changed, which ATR does not do. Prune.
				return false
			}
		}
		if pr.sat != nil {
			holds, ok := factsHold(pr.sat)
			if ok && !holds {
				return false
			}
		}
	}
	return true
}

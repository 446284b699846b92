// Package analyzer is the bounded model finder for the Alloy subset — the
// functional equivalent of the Alloy Analyzer as the study uses it: execute
// run/check commands under bounded scopes, return instances or
// counterexamples, and compare two specifications command-by-command (the
// REP metric's equisatisfiability check).
package analyzer

import (
	"context"
	"fmt"
	"sort"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
	"specrepair/internal/anacache"
	"specrepair/internal/bounds"
	"specrepair/internal/instance"
	"specrepair/internal/sat"
	"specrepair/internal/telemetry"
	"specrepair/internal/translate"
)

// Options configures the analyzer.
type Options struct {
	// MaxConflicts bounds each SAT search; 0 means the default budget.
	MaxConflicts int64
	// Cache, when non-nil, memoizes whole analysis queries (ExecuteAll,
	// PassesAll, Verdicts, RunCommand, EquisatBaseline) content-addressed by
	// the canonically printed module, the command, and the solver options.
	// Every cached value is a pure function of its key's preimage — the
	// uncached computation runs each entry point in a fresh session, so a
	// hit returns byte-for-byte what recomputing would, no matter which
	// worker or technique filled the entry. One cache may safely back many
	// analyzers across goroutines.
	Cache *anacache.Cache
	// Telemetry, when non-nil, receives instrumentation: per-entry-point
	// call counts with the cache hit/miss latency split, per-command
	// translation sizes, and (via the solvers it constructs) per-solve
	// effort. Telemetry never affects results or cache keys; nil disables
	// recording with no overhead.
	Telemetry *telemetry.Collector
	// DisableIncremental makes Evaluator answer every candidate on the
	// fresh per-candidate path instead of a long-lived incremental SAT
	// session — the A/B baseline for the incremental evaluation layer.
	// Verdicts are identical either way.
	DisableIncremental bool
}

// DefaultMaxConflicts bounds SAT search per command so that pathological
// repair candidates cannot stall a whole benchmark run.
const DefaultMaxConflicts = 500_000

// Analyzer executes commands of Alloy modules. It holds no per-run mutable
// state, so one Analyzer is safe for concurrent use from multiple
// goroutines.
type Analyzer struct {
	opts Options
	// optsKey folds the result-affecting options into cache keys.
	optsKey string
	// ctx, when non-nil, cancels in-flight analyses (translation and SAT
	// search). It is deliberately NOT part of optsKey: cancellation changes
	// when an answer is computed, never what the answer is, and results cut
	// short by cancellation are returned as errors and never cached.
	ctx context.Context
	// span, when non-nil, parents the trace spans of uncached analyses. Like
	// ctx it never affects results or cache keys; it is captured once per
	// WithContext bind so the per-query hot path never touches ctx.Value.
	span *telemetry.Span
}

// WithContext returns a copy of the analyzer whose analyses are cancelled
// when ctx is done. A cancelled analysis returns the context's error; nothing
// partial enters the analysis cache. The receiver is unchanged, so one base
// analyzer can serve many jobs, each bound to its own deadline. Any trace
// span bound to ctx becomes the parent of the copy's analysis spans.
func (a *Analyzer) WithContext(ctx context.Context) *Analyzer {
	if ctx == nil || ctx == context.Background() {
		return a
	}
	cp := *a
	cp.ctx = ctx
	cp.span = telemetry.SpanFromContext(ctx)
	return &cp
}

// WithSpan returns a copy of the analyzer whose analysis spans parent to sp
// — techniques use it to nest oracle work under a round/iteration span
// without rebinding the context. A nil sp returns the receiver unchanged.
func (a *Analyzer) WithSpan(sp *telemetry.Span) *Analyzer {
	if sp == nil || sp == a.span {
		return a
	}
	cp := *a
	cp.span = sp
	return &cp
}

func (a *Analyzer) ctxErr() error {
	if a.ctx != nil {
		return a.ctx.Err()
	}
	return nil
}

// New returns an analyzer.
func New(opts Options) *Analyzer {
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = DefaultMaxConflicts
	}
	return &Analyzer{opts: opts, optsKey: fmt.Sprintf("maxconflicts=%d", opts.MaxConflicts)}
}

// Stats reports translation and solving effort for one command. Commands
// of one scope share a solver: SolverVars and Clauses are its size once
// this command's goal has been added, RelVars the size of the scope's
// translation, and Conflicts and Decisions what this command's solve alone
// spent.
type Stats struct {
	RelVars    int
	SolverVars int
	Clauses    int
	Conflicts  int64
	Decisions  int64
}

// Result is the outcome of one command execution.
type Result struct {
	Command *ast.Command
	// Sat reports whether the command's formula was satisfiable: for run,
	// an instance exists; for check, a counterexample exists.
	Sat bool
	// Status is the raw solver status (StatusUnknown when the budget ran out).
	Status sat.Status
	// Instance is the model (run) or counterexample (check) when Sat.
	Instance *instance.Instance
	Stats    Stats
	// FromCache marks a result served from the analysis cache. Its Stats
	// replay what the original solve cost — no new solver effort was spent
	// — so effort accounting must skip (or discount) replayed results.
	FromCache bool
}

// Passed reports whether the command met its expectation: a check passes
// when no counterexample exists; a run "passes" when an instance exists
// (or matches an explicit expect annotation).
func (r *Result) Passed() bool {
	if r.Command.Expect >= 0 {
		want := r.Command.Expect == 1
		return r.Sat == want
	}
	if r.Command.Kind == ast.CmdCheck {
		return !r.Sat
	}
	return r.Sat
}

// RunCommand executes one command of mod.
func (a *Analyzer) RunCommand(mod *ast.Module, cmd *ast.Command) (*Result, error) {
	accept := func(v any) (*Result, bool) {
		cr, ok := v.(*cachedResult)
		if !ok {
			return nil, false
		}
		return cr.materialize(cmd), true
	}
	return lookup(a, telemetry.EPCommand, a.commandKey(mod, cmd), accept, func() (*Result, any, error) {
		s, err := a.newSession(mod)
		if err != nil {
			return nil, nil, err
		}
		s.span = a.span.Child("analyzer.cmd")
		defer s.span.End()
		res, err := s.run(cmd)
		if err != nil {
			return nil, nil, err
		}
		return res, snapshotResult(res), nil
	})
}

// session shares lowering and per-scope translations across the commands of
// one module. Commands with the same scope reuse a single incremental SAT
// solver: the base problem (implicit constraints and facts) is asserted
// once, and each command's goal becomes a gate literal solved under an
// assumption — the batching a production analyzer performs.
type session struct {
	an      *Analyzer
	low     *ast.Module
	info    *types.Info
	byScope map[string]*scope
	// verdictOnly marks sessions whose callers consume only SAT/UNSAT
	// verdicts, never instances (the equisatisfiability checks), so models
	// are never decoded.
	verdictOnly bool
	// span parents the session's solver spans (nil when tracing is off).
	span *telemetry.Span
}

// scope is one scope's translation state: the translator over the scope's
// bounds and the solver its clauses go to. err records a scope that could
// not be built, so every command of that scope reports it.
type scope struct {
	tr     *translate.Translator
	solver *sat.Solver
	cb     *translate.CNFBuilder
	err    error
}

func (a *Analyzer) newSession(mod *ast.Module) (*session, error) {
	low, info, err := types.Lower(mod)
	if err != nil {
		return nil, fmt.Errorf("analyzing: %w", err)
	}
	return &session{an: a, low: low, info: info, byScope: map[string]*scope{}}, nil
}

func scopeKey(sc ast.Scope) string {
	key := fmt.Sprintf("d%d|bw%d", sc.Default, sc.Bitwidth)
	for _, m := range []map[string]int{sc.Exact, sc.PerSig} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			key += fmt.Sprintf("|%s=%d", n, m[n])
		}
		key += "||"
	}
	return key
}

// state returns the prepared solver state for a scope, building it on first
// use.
func (s *session) state(sc ast.Scope) *scope {
	key := scopeKey(sc)
	st, ok := s.byScope[key]
	if !ok {
		st = s.an.newScope(s.info, sc, s.low.Facts, s.span)
		s.byScope[key] = st
	}
	return st
}

// newScope builds one scope's bounds, translator (cancelled with the
// analyzer's context), solver and CNF builder, and asserts the implicit
// constraints together with facts in a single AddAssert. Fresh sessions pass
// the module's facts; incremental sessions pass none and gate each fact per
// candidate instead. span parents the solver's spans.
func (a *Analyzer) newScope(info *types.Info, sc ast.Scope, facts []*ast.Fact, span *telemetry.Span) *scope {
	st := &scope{}
	b, err := bounds.Build(info, sc)
	if err != nil {
		st.err = fmt.Errorf("bounding: %w", err)
		return st
	}
	st.tr = translate.New(info, b)
	st.tr.SetContext(a.ctx)
	implicit, err := st.tr.ImplicitConstraints()
	if err != nil {
		st.err = fmt.Errorf("translating implicit constraints: %w", err)
		return st
	}
	parts := []translate.Node{implicit}
	for _, f := range facts {
		n, err := st.tr.Formula(f.Body, nil)
		if err != nil {
			st.err = fmt.Errorf("translating fact %s: %w", f.Name, err)
			return st
		}
		parts = append(parts, n)
	}
	st.solver = sat.NewSolver(sat.Options{
		MaxConflicts: a.opts.MaxConflicts,
		Context:      a.ctx,
		Telemetry:    a.opts.Telemetry,
	})
	st.solver.SetSpan(span)
	st.cb = translate.NewCNFBuilder(st.solver, st.tr.NumVars())
	st.cb.AddAssert(translate.And(parts...))
	return st
}

// run executes one command within the session.
func (s *session) run(cmd *ast.Command) (*Result, error) {
	st := s.state(cmd.Scope)
	if st.err != nil {
		return nil, fmt.Errorf("%s %s: %w", cmd.Kind, cmd.Name, st.err)
	}
	goal, err := commandGoal(s.low, cmd)
	if err != nil {
		return nil, err
	}
	goalNode, err := st.tr.Formula(goal, nil)
	if err != nil {
		return nil, fmt.Errorf("translating %s %s: %w", cmd.Kind, cmd.Name, err)
	}
	if cmd.Kind == ast.CmdCheck {
		goalNode = translate.Not(goalNode)
	}
	gate := st.cb.Lit(goalNode)

	conflicts, decisions := st.solver.Conflicts, st.solver.Decisions
	status := st.solver.Solve(gate)
	if status == sat.StatusUnknown {
		// Unknown from a cancelled context is nondeterministic — it depends
		// on when the deadline fired, not on the problem — so it must surface
		// as an error and never be cached or mistaken for a budget exhaustion.
		if err := s.an.ctxErr(); err != nil {
			return nil, fmt.Errorf("%s %s: %w", cmd.Kind, cmd.Name, err)
		}
	}
	res := &Result{
		Command: cmd,
		Status:  status,
		Sat:     status == sat.StatusSat,
		Stats: Stats{
			RelVars:    st.tr.NumVars(),
			SolverVars: st.solver.NumVars(),
			Clauses:    st.solver.NumClauses(),
			Conflicts:  st.solver.Conflicts - conflicts,
			Decisions:  st.solver.Decisions - decisions,
		},
	}
	if res.Sat && !s.verdictOnly {
		res.Instance = st.tr.Decode(st.solver.Model())
	}
	s.an.opts.Telemetry.RecordTranslation(res.Stats.RelVars, res.Stats.SolverVars, res.Stats.Clauses)
	return res, nil
}

// commandGoal resolves the formula a command analyzes: the (existentially
// parameterized) predicate body for run, the assertion body for check, or
// the inline block.
func commandGoal(low *ast.Module, cmd *ast.Command) (ast.Expr, error) {
	if cmd.Block != nil {
		return cmd.Block, nil
	}
	switch cmd.Kind {
	case ast.CmdRun:
		p := low.LookupPred(cmd.Target)
		if p == nil {
			return nil, fmt.Errorf("run target %q not found", cmd.Target)
		}
		if len(p.Params) == 0 {
			return p.Body, nil
		}
		decls := make([]*ast.Decl, len(p.Params))
		for i, d := range p.Params {
			decls[i] = d.Clone()
		}
		return &ast.Quantified{
			Quant:    ast.QuantSome,
			Decls:    decls,
			Body:     p.Body.CloneExpr(),
			QuantPos: p.Pos(),
		}, nil
	case ast.CmdCheck:
		as := low.LookupAssert(cmd.Target)
		if as == nil {
			return nil, fmt.Errorf("check target %q not found", cmd.Target)
		}
		return as.Body, nil
	default:
		return nil, fmt.Errorf("unknown command kind")
	}
}

// ExecuteAll runs every command in the module, in declaration order.
func (a *Analyzer) ExecuteAll(mod *ast.Module) ([]*Result, error) {
	accept := func(v any) ([]*Result, bool) {
		rec, ok := v.(*runRecord)
		if !ok || !rec.Complete || len(rec.Results) != len(mod.Commands) {
			return nil, false
		}
		return rec.materializeAll(mod.Commands), true
	}
	return lookup(a, telemetry.EPExecuteAll, a.runRecordKey(mod), accept, func() ([]*Result, any, error) {
		out, err := a.runFresh(mod, "analyzer.execute_all", false)
		if err != nil {
			return nil, nil, err
		}
		return out, newRunRecord(out, true), nil
	})
}

// PassesAll executes the module's commands in declaration order, stopping
// at the first command that misses its expectation. It is the fast path
// for oracle checks in repair search loops.
func (a *Analyzer) PassesAll(mod *ast.Module) (bool, error) {
	return lookup(a, telemetry.EPPassesAll, a.runRecordKey(mod), acceptPasses(mod.Commands), func() (bool, any, error) {
		return a.passesAllFresh(mod)
	})
}

// passesAllFresh answers PassesAll in a fresh session, with the run record
// to store: complete when every command executed, else the prefix up to the
// failing command, which still answers later PassesAll queries (ExecuteAll
// upgrades it on demand).
func (a *Analyzer) passesAllFresh(mod *ast.Module) (bool, any, error) {
	results, err := a.runFresh(mod, "analyzer.passes_all", true)
	if err != nil {
		return false, nil, err
	}
	pass := len(results) == 0 || results[len(results)-1].Passed()
	return pass, newRunRecord(results, len(results) == len(mod.Commands)), nil
}

// runFresh executes the module's commands in declaration order in a fresh
// session under a span of the given kind, stopping after the first command
// that misses its expectation when stopOnFail is set.
func (a *Analyzer) runFresh(mod *ast.Module, kind string, stopOnFail bool) ([]*Result, error) {
	s, err := a.newSession(mod)
	if err != nil {
		return nil, err
	}
	s.span = a.span.Child(kind)
	defer s.span.End()
	out := make([]*Result, 0, len(s.low.Commands))
	for _, cmd := range s.low.Commands {
		r, err := s.run(cmd)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		if stopOnFail && !r.Passed() {
			break
		}
	}
	return out, nil
}

// Verdicts executes every command and returns the satisfiability verdict
// sequence, for callers that compare many candidates against one baseline.
// The error return distinguishes non-analyzable modules.
func (a *Analyzer) Verdicts(mod *ast.Module) ([]bool, error) {
	results, err := a.ExecuteAll(mod)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(results))
	for i, r := range results {
		if r.Status == sat.StatusUnknown {
			return nil, fmt.Errorf("command %s exceeded the solving budget", r.Command.Name)
		}
		out[i] = r.Sat
	}
	return out, nil
}

// EquisatBaseline compares a candidate against precomputed ground-truth
// verdicts: the ground truth's commands are executed on the candidate and
// must reproduce every verdict. Malformed candidates are simply not
// equisatisfiable (nil error).
func (a *Analyzer) EquisatBaseline(gtCommands []*ast.Command, verdicts []bool, candidate *ast.Module) (bool, error) {
	accept := func(v any) (bool, bool) { eq, ok := v.(bool); return eq, ok }
	return lookup(a, telemetry.EPEquisat, a.equisatKey(gtCommands, verdicts, candidate), accept, func() (bool, any, error) {
		eq, err := a.equisatFresh(gtCommands, verdicts, candidate)
		return eq, eq, err
	})
}

func (a *Analyzer) equisatFresh(gtCommands []*ast.Command, verdicts []bool, candidate *ast.Module) (bool, error) {
	s, err := a.newSession(candidate)
	if err != nil {
		return false, nil // malformed candidate: not a repair
	}
	s.verdictOnly = true
	s.span = a.span.Child("analyzer.equisat")
	defer s.span.End()
	for i, cmd := range gtCommands {
		cmd := cmd.Clone()
		if cmd.Block != nil {
			// Inline block goals may call predicates; resolve them against
			// the candidate.
			cmd.Block = types.RewriteCalls(s.low, cmd.Block)
		}
		cand, err := s.run(cmd)
		if err != nil {
			// A cancelled analysis is not a verdict on the candidate.
			if ctxErr := a.ctxErr(); ctxErr != nil {
				return false, ctxErr
			}
			return false, nil // command not executable on the candidate
		}
		if cand.Status == sat.StatusUnknown {
			return false, nil
		}
		if cand.Sat != verdicts[i] {
			return false, nil
		}
	}
	return true, nil
}

// Equisat implements the REP comparison: execute every command of the
// ground-truth module against both the ground truth and the candidate,
// and report whether all satisfiability verdicts agree. Candidates that do
// not parse the ground truth's commands (missing predicates or assertions)
// or fail to type-check are not equisatisfiable.
func (a *Analyzer) Equisat(groundTruth, candidate *ast.Module) (bool, error) {
	verdicts, err := a.Verdicts(groundTruth)
	if err != nil {
		return false, fmt.Errorf("ground truth does not analyze: %w", err)
	}
	return a.EquisatBaseline(groundTruth.Commands, verdicts, candidate)
}

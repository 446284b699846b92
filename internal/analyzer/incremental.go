package analyzer

import (
	"strings"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/sat"
	"specrepair/internal/telemetry"
)

// This file is the incremental candidate-evaluation layer. Repair search
// enumerates streams of candidates that share the whole module except one
// mutated formula paragraph, so per candidate the fresh path wastes almost
// all of its work: rebuilding bounds, re-allocating relation variables,
// re-translating every unchanged fact, and re-solving a CNF the solver has
// effectively seen before.
//
// An Evaluator instead keeps one long-lived sat.Solver per (scope) for the
// whole stream. The base translation — bounds, relation variables, implicit
// constraints (including symmetry/typing constraints) — is built once.
// Formula paragraphs (facts and command goals) are NOT asserted; each is
// encoded once via CNFBuilder.GateLit into a one-directional
// Plaisted-Greenbaum gate g: facts and run goals get g -> F (assuming g
// forces the formula), check goals get F -> g (assuming NOT g forces the
// negation). A candidate is then answered by solving under the assumption
// set {fact gates..., goal gate}: unassumed gates of other candidates'
// formulas leave their encodings satisfiable without constraining the
// relation variables, so one solver carries every candidate's clauses
// simultaneously, and learned clauses, VSIDS activity, and saved phases
// transfer across the stream. Growth is bounded: after gateWindow dead
// candidate encodings accumulate in a scope, its solver is rebuilt.
//
// Equisatisfiability with fresh solving holds because assuming a gate in
// its encoded direction forces exactly the gated formula while every other
// gate clause stays satisfiable without touching relation variables, and
// every learned clause is implied by the clause database alone
// (assumptions enter search as pseudo-decisions, never as input clauses),
// so carryover cannot change any later verdict.
//
// The evaluator answers verdicts only (Passed per command); it never
// decodes instances and never writes to the analysis cache — cached values
// must be pure functions of their key produced by fresh sessions, and the
// incremental solver may find a different (equally valid) model than a
// fresh solve would. It falls back to the fresh path whenever it cannot
// guarantee equivalence:
//
//   - the candidate's signature paragraphs differ from the base's
//     (bounds-affecting difference: scopes, atoms, or field arity changed);
//   - lowering or translating the candidate fails (e.g. a formula primes a
//     relation the base never primed);
//   - a solve returns StatusUnknown (budget semantics must match fresh).
//
// Pred/fun calls need one extra care: the translator inlines call bodies at
// translate time, so candidate formulas are translated with call resolution
// pointed at the candidate module, and the gate memo key of any formula
// containing a call includes a fingerprint of the candidate's preds and
// funs — two candidates whose fact text matches but whose called bodies
// differ get distinct gates.

// Evaluator is a PassesAll oracle specialized to one repair search's
// candidate stream. It is not safe for concurrent use (techniques are
// single-goroutine; the runner creates one technique instance per worker).
type Evaluator struct {
	an  *Analyzer
	inc *incSession
	// span parents the per-candidate "candidate.eval" spans; defaults to the
	// analyzer's span, techniques re-point it at their round spans.
	span *telemetry.Span

	stats EvaluatorStats
}

// SetSpan re-parents subsequent candidate evaluations' trace spans — a
// technique calls this when it opens a round/iteration span so candidate
// work nests under the round. Nil restores the analyzer's own span.
func (e *Evaluator) SetSpan(sp *telemetry.Span) {
	if sp != nil {
		e.span = sp
		return
	}
	e.span = e.an.span
}

// EvaluatorStats reports how an evaluator answered its queries so far.
type EvaluatorStats struct {
	// Queries counts candidate evaluations answered incrementally.
	Queries int64
	// Fallbacks counts candidate evaluations that re-solved fresh.
	Fallbacks int64
	// CacheHits counts candidate evaluations answered by the analysis cache
	// before reaching either solving path.
	CacheHits int64
}

// Stats returns the evaluator's disposition counts.
func (e *Evaluator) Stats() EvaluatorStats { return e.stats }

// Evaluator returns a PassesAll oracle for the candidate stream of one
// repair search rooted at base. When the base module is not analyzable, or
// Options.DisableIncremental is set, every query takes the fresh path;
// results are identical either way.
func (a *Analyzer) Evaluator(base *ast.Module) *Evaluator {
	e := &Evaluator{an: a, span: a.span}
	if a.opts.DisableIncremental {
		return e
	}
	inc, err := newIncSession(a, base)
	if err != nil {
		return e
	}
	e.inc = inc
	a.opts.Telemetry.RecordIncrementalSession()
	return e
}

// PassesAll reports whether every command of the candidate meets its
// expectation, equivalently to Analyzer.PassesAll. It takes the analysis
// cache's lookup path: a stored record answers first, then the incremental
// session, whose verdict-only answers are never written back (cache entries
// must come from fresh sessions), and when the session cannot answer, a
// fresh solve whose record is stored like Analyzer.PassesAll's.
func (e *Evaluator) PassesAll(mod *ast.Module) (bool, error) {
	sp := e.span.Child("candidate.eval")
	defer sp.End()
	if e.inc == nil {
		sp.SetAttr("path", "fresh")
		return e.an.WithSpan(sp).PassesAll(mod)
	}
	// path stays "cache" unless lookup has to compute the answer.
	col, path := e.an.opts.Telemetry, "cache"
	pass, err := lookup(e.an, telemetry.EPPassesAll, e.an.runRecordKey(mod), acceptPasses(mod.Commands), func() (bool, any, error) {
		if pass, ok := e.inc.passesAll(mod, sp); ok {
			e.stats.Queries++
			col.RecordIncrementalQuery()
			path = "incremental"
			return pass, nil, nil
		}
		e.stats.Fallbacks++
		col.RecordIncrementalFallback()
		path = "fallback"
		return e.an.WithSpan(sp).passesAllFresh(mod)
	})
	if path == "cache" {
		e.stats.CacheHits++
	}
	sp.SetAttr("path", path)
	return pass, err
}

// incSession is the long-lived state shared by a candidate stream: the base
// module's lowered info (bounds and relation variables derive from it) and
// one solver per scope.
type incSession struct {
	an      *Analyzer
	info    *types.Info
	sigFP   string
	byScope map[string]*incScope
}

// gateWindow bounds how many one-off candidate formulas a scope's solver
// accumulates before it is rebuilt. Every candidate's mutated formula stays
// encoded in the shared clause database (its gate is simply never assumed
// again), so an unbounded session grows without limit along the stream.
// Dead one-directional gate encodings are nearly free for the solver —
// phase saving settles their gate variables in the releasing polarity and
// every clause is satisfied at its first watch visit — so the window is
// sized for memory hygiene on very long streams, not solve latency.
// Rebuilding costs one bounds + implicit-constraint translation plus a lazy
// re-encoding of the base formulas, amortized over the window. A var only
// so tests can exercise the rebuild path with a tiny window.
var gateWindow = 64

// incScope is one scope's long-lived solver: the shared scope state with
// only the implicit constraints asserted permanently, and the gate memo
// mapping formula keys to their activation literals.
type incScope struct {
	*scope
	gates map[string]sat.Lit

	// baseGates is the gate count right after the first command served by
	// this solver — the resident set of base-module formulas. -1 until
	// known. Once len(gates) reaches baseGates+gateWindow the solver is
	// carrying a window's worth of dead candidate encodings and state()
	// rebuilds it.
	baseGates int
}

func newIncSession(a *Analyzer, base *ast.Module) (*incSession, error) {
	_, info, err := types.Lower(base)
	if err != nil {
		return nil, err
	}
	return &incSession{
		an:      a,
		info:    info,
		sigFP:   sigFingerprint(base),
		byScope: map[string]*incScope{},
	}, nil
}

// sigFingerprint renders the bounds-affecting paragraphs of a module: its
// signature declarations (hierarchy, multiplicities, fields, appended
// facts). Candidates sharing the fingerprint share bounds and relation
// variable layout with the base.
func sigFingerprint(mod *ast.Module) string {
	var b strings.Builder
	for _, s := range mod.Sigs {
		b.WriteString(printer.Sig(s))
	}
	return b.String()
}

// state returns the scope's long-lived solver, building it on first use and
// rebuilding it once a window's worth of dead candidate gates accumulated.
func (s *incSession) state(sc ast.Scope) *incScope {
	key := scopeKey(sc)
	if st, ok := s.byScope[key]; ok {
		if st.err != nil || st.baseGates < 0 || len(st.gates) < st.baseGates+gateWindow {
			return st
		}
		// Fall through: rebuild a fresh solver for this scope.
	}
	st := &incScope{scope: s.an.newScope(s.info, sc, nil, nil), gates: map[string]sat.Lit{}, baseGates: -1}
	s.byScope[key] = st
	return st
}

// passesAll answers PassesAll for one candidate on the session, parenting
// solver trace spans to sp. ok=false means the candidate cannot be evaluated
// incrementally and the caller must fall back to fresh solving; pass is then
// meaningless.
func (s *incSession) passesAll(mod *ast.Module, sp *telemetry.Span) (pass, ok bool) {
	if sigFingerprint(mod) != s.sigFP {
		return false, false
	}
	low, _, err := types.Lower(mod)
	if err != nil {
		return false, false
	}
	col := s.an.opts.Telemetry
	// callFP caches the candidate's pred/fun fingerprint across this
	// candidate's formulas; computed only when a formula contains a call.
	var callFP string
	for _, cmd := range low.Commands {
		st := s.state(cmd.Scope)
		if st.err != nil {
			return false, false
		}
		assumptions := make([]sat.Lit, 0, len(low.Facts)+1)
		for _, f := range low.Facts {
			g, gerr := st.gate(low, f.Body, false, &callFP)
			if gerr != nil {
				return false, false
			}
			assumptions = append(assumptions, g)
		}
		goal, gerr := commandGoal(low, cmd)
		if gerr != nil {
			return false, false
		}
		// check C holds iff facts AND NOT C is unsatisfiable, so check goals
		// are gated in the negative direction and assumed negated.
		neg := cmd.Kind == ast.CmdCheck
		g, gerr := st.gate(low, goal, neg, &callFP)
		if gerr != nil {
			return false, false
		}
		if neg {
			g = g.Not()
		}
		assumptions = append(assumptions, g)
		if st.baseGates < 0 {
			st.baseGates = len(st.gates)
		}
		col.RecordIncrementalCarryover(int64(st.solver.NumLearnts()))
		// The solver outlives any one candidate; re-point its span parent at
		// this candidate's span for the queries it answers here.
		st.solver.SetSpan(sp)
		status := st.solver.Solve(assumptions...)
		if status == sat.StatusUnknown {
			return false, false
		}
		r := &Result{Command: cmd, Sat: status == sat.StatusSat, Status: status}
		if !r.Passed() {
			return false, true
		}
	}
	return true, true
}

// gate returns the activation literal for one formula paragraph, encoding
// it on first use. Gates are one-directional (Plaisted-Greenbaum): facts
// and run goals are assumed positively and encoded g -> F; check goals are
// assumed negated and encoded F -> g, so the memo key carries the
// direction. The key is the formula's printed form; when the formula
// (transitively through its own text) calls preds or funs, the candidate's
// call-environment fingerprint is prepended, since the translator inlines
// called bodies and those may differ between candidates with identical
// paragraph text.
func (st *incScope) gate(low *ast.Module, body ast.Expr, neg bool, callFP *string) (sat.Lit, error) {
	key := printer.Expr(body)
	if neg {
		key = "-" + key
	}
	if exprHasCall(body) {
		if *callFP == "" {
			*callFP = callEnvFingerprint(low)
		}
		key = *callFP + "\x00" + key
	}
	if g, ok := st.gates[key]; ok {
		return g, nil
	}
	st.tr.SetCallModule(low)
	node, err := st.tr.Formula(body, nil)
	st.tr.SetCallModule(nil)
	if err != nil {
		return 0, err
	}
	g := st.cb.GateLit(node, neg)
	st.gates[key] = g
	return g, nil
}

// exprHasCall reports whether the expression contains a pred/fun call.
func exprHasCall(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if _, ok := x.(*ast.Call); ok {
			found = true
		}
		return !found
	})
	return found
}

// callEnvFingerprint renders every pred and fun of the module — the call
// targets the translator may inline.
func callEnvFingerprint(low *ast.Module) string {
	var b strings.Builder
	for _, p := range low.Preds {
		b.WriteString("pred ")
		b.WriteString(p.Name)
		for _, d := range p.Params {
			b.WriteString("|")
			b.WriteString(strings.Join(d.Names, ","))
			b.WriteString(":")
			b.WriteString(printer.Expr(d.Expr))
		}
		b.WriteString("{")
		b.WriteString(printer.Expr(p.Body))
		b.WriteString("}")
	}
	for _, f := range low.Funs {
		b.WriteString("fun ")
		b.WriteString(f.Name)
		for _, d := range f.Params {
			b.WriteString("|")
			b.WriteString(strings.Join(d.Names, ","))
			b.WriteString(":")
			b.WriteString(printer.Expr(d.Expr))
		}
		b.WriteString("{")
		b.WriteString(printer.Expr(f.Body))
		b.WriteString("}")
	}
	return b.String()
}

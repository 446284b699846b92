// Package icebar reimplements the ICEBAR technique (Brida et al. — ASE'22):
// iterative, counterexample-driven repair. Each round runs ARepair on the
// current test suite; the candidate is then validated against the model's
// property oracle (its check commands). If a counterexample remains, it is
// converted into new AUnit tests that reject it (and passing witnesses into
// tests that must keep holding), and the loop continues with the enlarged
// suite — systematically fighting ARepair's overfitting.
package icebar

import (
	"context"
	"fmt"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
	"specrepair/internal/analyzer"
	"specrepair/internal/aunit"
	"specrepair/internal/repair"
	"specrepair/internal/repair/arepair"
	"specrepair/internal/telemetry"
)

// Options bounds the refinement loop.
type Options struct {
	// MaxIterations caps ARepair rounds.
	MaxIterations int
	// ARepair configures the inner tool.
	ARepair arepair.Options
	// Analyzer overrides the default analyzer (mainly for tests).
	Analyzer *analyzer.Analyzer
}

// DefaultOptions mirror the study's configuration.
func DefaultOptions() Options {
	inner := arepair.DefaultOptions()
	// The wrapped ARepair gets a deeper budget than standalone ARepair:
	// ICEBAR's oracle checks keep it honest, so extra search pays off.
	inner.MaxIterations = 6
	inner.MaxSites = 6
	return Options{MaxIterations: 6, ARepair: inner}
}

// Tool is the ICEBAR technique.
type Tool struct {
	opts  Options
	an    *analyzer.Analyzer
	inner *arepair.Tool
}

// New returns the technique with the given options.
func New(opts Options) *Tool {
	if opts.MaxIterations == 0 {
		d := DefaultOptions()
		d.Analyzer = opts.Analyzer
		opts = d
	}
	an := opts.Analyzer
	if an == nil {
		an = analyzer.New(analyzer.Options{})
	}
	return &Tool{opts: opts, an: an, inner: arepair.New(opts.ARepair)}
}

var _ repair.Technique = (*Tool)(nil)

// Name implements repair.Technique.
func (t *Tool) Name() string { return "ICEBAR" }

// Repair implements repair.Technique.
func (t *Tool) Repair(ctx context.Context, p repair.Problem) (repair.Outcome, error) {
	out := repair.Outcome{}

	// One context-bound analyzer serves the whole call: oracle checks, suite
	// refinement, and the incremental evaluator all abort when ctx expires.
	an := t.an.WithContext(ctx)

	suite := &aunit.Suite{}
	if p.Tests != nil {
		suite = p.Tests.Clone()
	}

	// Seed the suite from the oracle before the first ARepair run, so the
	// inner tool has signal even when no tests were provided.
	if added, err := t.refineSuite(an, p.Faulty, suite, 0); err != nil {
		return out, err
	} else if !added && suite.Len() == 0 {
		// Oracle already satisfied and no tests: nothing to repair.
		ok, err := repair.OracleAllCommandsPass(ctx, t.an, p.Faulty)
		out.Stats.AnalyzerCalls++
		if err != nil {
			return out, err
		}
		if ok {
			out.Repaired = true
			out.Candidate = p.Faulty
			return out, nil
		}
	}

	if suite.Len() == 0 {
		// No tests and no way to derive any: ICEBAR cannot drive ARepair.
		out.Candidate = p.Faulty
		return out, nil
	}

	// ARepair's candidates carry its engine's checked signatures, with any
	// signature facts desugared, so the loop starts from the checked faulty
	// spec: p.Faulty itself when it has no signature facts. Where ICEBAR
	// would return that root unchanged it reports p.Faulty.
	root := p.Faulty
	if info, err := types.Check(p.Faulty); err == nil {
		root = info.Module
	}
	report := func(m *ast.Module) *ast.Module {
		if m == root {
			return p.Faulty
		}
		return m
	}

	// One incremental evaluation session validates every iteration's ARepair
	// candidate: candidates differ from the root only in repaired formula
	// paragraphs, so translation and learned clauses carry over. Suite
	// refinement (refineSuite) stays on the fresh path — it needs the
	// concrete instances the fresh analyzer would produce.
	oracle := an.Evaluator(types.NewBase(root))

	current := root
	for iter := 0; iter < t.opts.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out.Stats.Iterations++
		// The iteration span nests the inner ARepair run (via iterCtx), the
		// oracle validation, and the suite refinement under one node.
		iterCtx, iterSpan := telemetry.StartChild(ctx, "icebar.iteration")
		oracle.SetSpan(iterSpan)
		iterAn := an.WithSpan(iterSpan)
		innerOut, err := t.inner.Repair(iterCtx, repair.Problem{
			Name:   p.Name,
			Faulty: current,
			Tests:  suite,
		})
		out.Stats.CandidatesTried += innerOut.Stats.CandidatesTried
		out.Stats.TestRuns += innerOut.Stats.TestRuns
		if err != nil {
			iterSpan.End()
			return out, err
		}
		cand := innerOut.Candidate
		if cand == nil {
			cand = current
		}

		// Validate against the property oracle.
		pass, err := oracle.PassesAll(cand)
		out.Stats.AnalyzerCalls++
		if err != nil {
			iterSpan.End()
			return out, err
		}
		if pass {
			iterSpan.End()
			out.Repaired = true
			out.Candidate = report(cand)
			return out, nil
		}

		// Overfit: harvest counterexamples of the candidate into tests.
		added, err := t.refineSuite(iterAn, cand, suite, iter+1)
		iterSpan.End()
		if err != nil {
			return out, err
		}
		if !added {
			// No new counterexamples to learn from; give up with the best
			// candidate so far.
			out.Candidate = report(cand)
			return out, nil
		}
		current = cand
	}
	out.Candidate = report(current)
	return out, nil
}

// refineSuite runs the module's check commands and converts counterexamples
// into "this instance must be rejected" tests, plus passing witnesses into
// "this instance must stay accepted" tests. It reports whether any test was
// added.
func (t *Tool) refineSuite(an *analyzer.Analyzer, mod *ast.Module, suite *aunit.Suite, round int) (bool, error) {
	results, err := an.ExecuteAll(mod)
	if err != nil {
		return false, err
	}
	added := false
	for i, res := range results {
		cmd := mod.Commands[i]
		if cmd.Kind != ast.CmdCheck || !res.Sat || res.Instance == nil {
			continue
		}
		// The counterexample satisfies the facts but violates the
		// assertion: a correct spec must exclude it.
		test := aunit.FromInstance(
			fmt.Sprintf("icebar_cex_%s_r%d", cmd.Name, round),
			res.Instance, aunit.FactsFormula, false)
		if !suiteHas(suite, test) {
			suite.Add(test)
			added = true
		}
		// Witness: an instance satisfying facts and assertion must stay
		// accepted.
		if as := mod.LookupAssert(cmd.Target); as != nil {
			// A header copy: the module is immutable, so the witness
			// shares every paragraph and swaps in its own command list.
			witness := *mod
			witness.Commands = []*ast.Command{{
				Kind:   ast.CmdRun,
				Name:   "witness",
				Block:  as.Body,
				Scope:  cmd.Scope,
				Expect: -1,
			}}
			wres, werr := an.ExecuteAll(&witness)
			if werr == nil && len(wres) == 1 && wres[0].Sat {
				test := aunit.FromInstance(
					fmt.Sprintf("icebar_wit_%s_r%d", cmd.Name, round),
					wres[0].Instance, aunit.FactsFormula, true)
				if !suiteHas(suite, test) {
					suite.Add(test)
					added = true
				}
			}
		}
	}
	return added, nil
}

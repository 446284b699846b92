// Package arepair reimplements the ARepair technique (Wang, Sullivan,
// Khurshid — ASE'18): test-driven greedy repair of Alloy models. Given a
// faulty model and an AUnit test suite, it localizes suspicious constraints
// from failing-test valuations, mutates them, and greedily keeps any mutant
// that passes strictly more tests, until the whole suite passes or the
// search budget runs out.
//
// Faithful to the original, the only oracle is the user-provided test
// suite — which is why ARepair overfits: a "repair" that satisfies every
// test may still diverge from the intended specification.
package arepair

import (
	"context"
	"fmt"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/aunit"
	"specrepair/internal/faultloc"
	"specrepair/internal/mutation"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

// Options bounds the greedy search.
type Options struct {
	// MaxIterations caps greedy improvement rounds.
	MaxIterations int
	// MaxSites caps how many top-ranked suspicious sites are mutated per
	// round.
	MaxSites int
	// Budget selects mutation aggressiveness.
	Budget mutation.Budget
	// Telemetry records live test-run counts. Nil disables instrumentation.
	Telemetry *telemetry.Collector
}

// DefaultOptions mirror the search depth ARepair uses in the study.
func DefaultOptions() Options {
	return Options{MaxIterations: 3, MaxSites: 4, Budget: mutation.BudgetRelations}
}

// Tool is the ARepair technique.
type Tool struct {
	opts     Options
	testRuns *telemetry.Counter
}

// New returns the technique with the given options.
func New(opts Options) *Tool {
	if opts.MaxIterations == 0 {
		tel := opts.Telemetry
		opts = DefaultOptions()
		opts.Telemetry = tel
	}
	return &Tool{opts: opts, testRuns: opts.Telemetry.TechCounter("ARepair", "test_runs")}
}

var _ repair.Technique = (*Tool)(nil)

// Name implements repair.Technique.
func (t *Tool) Name() string { return "ARepair" }

// Repair implements repair.Technique.
func (t *Tool) Repair(ctx context.Context, p repair.Problem) (repair.Outcome, error) {
	if p.Tests == nil || p.Tests.Len() == 0 {
		return repair.Outcome{}, fmt.Errorf("ARepair requires an AUnit test suite for %q", p.Name)
	}
	out := repair.Outcome{}
	current := p.Faulty.Clone()

	_, passed := p.Tests.RunAll(current)
	out.Stats.TestRuns++
	t.testRuns.Inc()
	best := passed
	if best == p.Tests.Len() {
		out.Repaired = true
		out.Candidate = current
		return out, nil
	}

	for iter := 0; iter < t.opts.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out.Stats.Iterations++
		iterCtx, iterSpan := telemetry.StartChild(ctx, "arepair.iteration")
		improved, cand, tried, err := t.improveOnce(iterCtx, current, p.Tests, best)
		iterSpan.SetMetric("candidates", int64(tried))
		iterSpan.End()
		out.Stats.CandidatesTried += tried
		out.Stats.TestRuns += tried
		t.testRuns.Add(int64(tried))
		if err != nil {
			return out, err
		}
		if !improved {
			break
		}
		current = cand
		_, best = p.Tests.RunAll(current)
		out.Stats.TestRuns++
		t.testRuns.Inc()
		if best == p.Tests.Len() {
			out.Repaired = true
			break
		}
	}
	out.Candidate = current
	return out, nil
}

// improveOnce scans suspicious sites for a single mutation that strictly
// increases the number of passing tests (greedy hill climbing).
func (t *Tool) improveOnce(ctx context.Context, mod *ast.Module, suite *aunit.Suite, best int) (bool, *ast.Module, int, error) {
	ranked, err := t.localize(mod, suite)
	if err != nil {
		return false, nil, 0, err
	}
	eng, err := mutation.NewEngine(mod)
	if err != nil {
		return false, nil, 0, err
	}
	g := &gate{suite: suite, best: best}

	sites := 0
	for _, r := range ranked {
		if r.Score == 0 || sites >= t.opts.MaxSites {
			break
		}
		if err := ctx.Err(); err != nil {
			return false, nil, g.tried, err
		}
		sites++
		// Mutate every node within the suspicious conjunct.
		for _, s := range eng.Sites() {
			if !within(r.Site.Site, s.Site) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return false, nil, g.tried, err
			}
			for _, c := range eng.Candidates(s, t.opts.Budget) {
				cand, err := eng.Apply(s.Site, c)
				if err != nil {
					continue
				}
				if g.improves(cand) {
					return true, cand, g.tried, nil
				}
			}
		}
		// Also try dropping a conjunct of the enclosing block.
		parent := r.Site.Site
		if len(parent.Path) > 0 {
			blockSite := mutation.Site{Container: parent.Container, Path: parent.Path[:len(parent.Path)-1]}
			drops, err := mutation.DropConjunct(eng.Mod, blockSite)
			if err == nil {
				for _, cand := range drops {
					if g.improves(cand) {
						return true, cand, g.tried, nil
					}
				}
			}
		}
	}
	return false, nil, g.tried, nil
}

// gate judges the candidates of one improvement round against the suite.
type gate struct {
	suite *aunit.Suite
	best  int // passing tests of the current model
	tried int // candidates judged so far
}

// improves counts cand as tried and reports whether it passes more than
// best tests. A candidate that does not type-check is never accepted.
func (g *gate) improves(cand *ast.Module) bool {
	g.tried++
	model := aunit.Prepare(cand)
	if model.Err() != nil {
		return false
	}
	_, passed := model.RunAll(g.suite)
	return passed > g.best
}

// within reports whether inner is the same site as outer or beneath it.
func within(outer, inner mutation.Site) bool {
	if outer.Container != inner.Container {
		return false
	}
	if len(inner.Path) < len(outer.Path) {
		return false
	}
	for i := range outer.Path {
		if inner.Path[i] != outer.Path[i] {
			return false
		}
	}
	return true
}

// localize derives labeled observations from the suite and ranks the
// module's constraint sites. A test's expectation is the intent label: the
// valuation of an expect-true test should be accepted by the intended
// specification, an expect-false one rejected.
func (t *Tool) localize(mod *ast.Module, suite *aunit.Suite) ([]faultloc.RankedSite, error) {
	model := aunit.Prepare(mod)
	if err := model.Err(); err != nil {
		return nil, err
	}
	var failing, passing []faultloc.Observation
	results, _ := model.RunAll(suite)
	for _, r := range results {
		inst, err := r.Test.Instance(model.Info())
		if err != nil {
			continue
		}
		obs := faultloc.Observation{Inst: inst, WantSatisfied: r.Test.Expect}
		if r.Passed {
			passing = append(passing, obs)
		} else {
			failing = append(failing, obs)
		}
	}
	return faultloc.Localize(mod, failing, passing)
}

// Package faultloc ranks formula sites of an Alloy module by
// suspiciousness, in the spirit of FLACK's counterexample-driven fault
// localization. Evidence comes as polarity-labeled observations:
//
//   - An instance the intended specification should ACCEPT (a desired
//     scenario, a passing witness): constraints that evaluate to false on
//     it are over-restrictive suspects.
//   - An instance the intended specification should REJECT (an assertion
//     counterexample): constraints that evaluate to true on it failed to
//     exclude it and are under-restrictive suspects.
//
// Failing observations (where the module currently disagrees with the
// intent) raise suspicion; passing observations lower it, Tarantula-style.
package faultloc

import (
	"sort"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
	"specrepair/internal/analyzer"
	"specrepair/internal/instance"
	"specrepair/internal/mutation"
)

// Observation is one labeled instance.
type Observation struct {
	Inst *instance.Instance
	// WantSatisfied reports whether the intended specification should
	// accept the instance (true) or exclude it (false).
	WantSatisfied bool
}

// Accept labels an instance the intended spec should admit.
func Accept(inst *instance.Instance) Observation {
	return Observation{Inst: inst, WantSatisfied: true}
}

// Reject labels an instance the intended spec should exclude.
func Reject(inst *instance.Instance) Observation {
	return Observation{Inst: inst, WantSatisfied: false}
}

// RankedSite is a site with its suspiciousness score in [0, 1].
type RankedSite struct {
	Site  mutation.ScopedSite
	Score float64
	// FailGuilty and PassGuilty count observations on which the site's
	// formula looked guilty (false on accept-observations, true on
	// reject-observations) among the failing and passing groups.
	FailGuilty int
	PassGuilty int
}

// Localize scores the closed formula sites of mod against failing and
// passing observations using the Tarantula formula. Sites whose formulas
// cannot be evaluated on some instance are scored on the rest.
//
// The returned ranking is descending by score with deterministic
// tie-breaking (site enumeration order).
func Localize(mod *ast.Module, failing, passing []Observation) ([]RankedSite, error) {
	eng, err := mutation.NewEngine(mod)
	if err != nil {
		return nil, err
	}
	low, _, err := types.Lower(mod)
	if err != nil {
		return nil, err
	}

	var ranked []RankedSite
	for _, s := range eng.Sites() {
		if !s.IsFormula || len(s.Scope) > 0 {
			continue
		}
		// Skip the whole-body block sites: too coarse to be useful.
		if _, isBlock := s.Node.(*ast.Block); isBlock {
			continue
		}
		expr := types.RewriteCalls(low, s.Node.CloneExpr())
		guiltyOn := func(obs []Observation) int {
			guilty := 0
			for _, o := range obs {
				ev := &instance.Evaluator{Mod: low, Inst: o.Inst}
				v, err := ev.EvalFormula(expr, nil)
				if err != nil {
					continue
				}
				if v != o.WantSatisfied {
					guilty++
				}
			}
			return guilty
		}
		failGuilty := guiltyOn(failing)
		passGuilty := guiltyOn(passing)

		score := 0.0
		if failGuilty > 0 {
			failRate := float64(failGuilty) / float64(max(len(failing), 1))
			passRate := float64(passGuilty) / float64(max(len(passing), 1))
			score = failRate / (failRate + passRate)
		}
		ranked = append(ranked, RankedSite{
			Site: s, Score: score, FailGuilty: failGuilty, PassGuilty: passGuilty,
		})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Score > ranked[j].Score })
	return ranked, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// CollectInstances gathers labeled observations for a module from its own
// commands: counterexamples of failing checks become reject-observations
// (the intended spec must exclude them); models of "facts plus assertion"
// become accept-observations. This is the oracle-instance harvest ATR and
// BeAFix perform before repair.
func CollectInstances(a *analyzer.Analyzer, mod *ast.Module) (failing, passing []Observation, err error) {
	results, err := a.ExecuteAll(mod)
	if err != nil {
		return nil, nil, err
	}
	for i, res := range results {
		cmd := mod.Commands[i]
		if cmd.Kind != ast.CmdCheck {
			continue
		}
		if res.Sat && res.Instance != nil {
			failing = append(failing, Reject(res.Instance))
		}
		// A passing witness: facts plus the assertion itself.
		if as := mod.LookupAssert(cmd.Target); as != nil {
			// A header copy: the module is immutable, so the witness
			// shares every paragraph and swaps in its own command list.
			witness := *mod
			witness.Commands = []*ast.Command{{
				Kind:   ast.CmdRun,
				Name:   "witness$" + cmd.Target,
				Block:  as.Body.CloneExpr(),
				Scope:  cmd.Scope.Clone(),
				Expect: -1,
			}}
			wres, werr := a.ExecuteAll(&witness)
			if werr == nil && len(wres) == 1 && wres[0].Sat {
				passing = append(passing, Accept(wres[0].Instance))
			}
		}
	}
	return failing, passing, nil
}

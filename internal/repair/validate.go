package repair

import (
	"context"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/analyzer"
)

// Verdict is what a Validator made of one candidate.
type Verdict int

const (
	// Skipped: a duplicate, rejected by the admission screen, or a
	// candidate the analyzer could not judge.
	Skipped Verdict = iota
	// Failed: the oracle judged the candidate and some command fails.
	Failed
	// Passed: every command meets its expectation.
	Passed
)

// Validator is the candidate-validation step of one mutation search (BeAFix,
// ATR): it drops candidates already seen (by printed module), applies the
// caller's admission screen, and judges the rest on one incremental
// analyzer session, counting each judged candidate against the cap. Create
// one per Repair call.
type Validator struct {
	ctx    context.Context
	oracle *analyzer.Evaluator
	max    int
	stats  *Stats
	seen   map[string]bool
}

// NewValidator returns the validation step for a search rooted at base. It
// records CandidatesTried and AnalyzerCalls into stats and judges at most
// max candidates; ctx must be the context the oracle's analyzer is bound to.
func NewValidator(ctx context.Context, oracle *analyzer.Evaluator, base *ast.Module, max int, stats *Stats) *Validator {
	return &Validator{
		ctx:    ctx,
		oracle: oracle,
		max:    max,
		stats:  stats,
		seen:   map[string]bool{printer.Module(base): true},
	}
}

// Exhausted reports whether the cap on judged candidates is reached. Search
// loops check it before building each candidate.
func (v *Validator) Exhausted() bool { return v.stats.CandidatesTried >= v.max }

// Validate judges cand unless it is a duplicate or admit (when non-nil)
// rejects it; admit runs only on candidates not seen before. An analyzer
// failure on one candidate skips it; the returned error is non-nil only
// when the search's context is done, and then the search must stop.
func (v *Validator) Validate(cand *ast.Module, admit func(*ast.Module) bool) (Verdict, error) {
	key := printer.Module(cand)
	if v.seen[key] {
		return Skipped, nil
	}
	v.seen[key] = true
	if admit != nil && !admit(cand) {
		return Skipped, nil
	}
	v.stats.CandidatesTried++
	pass, err := v.oracle.PassesAll(cand)
	v.stats.AnalyzerCalls++
	switch {
	case err != nil:
		return Skipped, v.ctx.Err()
	case pass:
		return Passed, nil
	default:
		return Failed, nil
	}
}

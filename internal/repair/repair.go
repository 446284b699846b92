// Package repair defines the common contract implemented by every repair
// technique in the study — the four traditional tools (ARepair, ICEBAR,
// BeAFix, ATR) and the LLM-based ones (Single-Round, Multi-Round), which
// share one repair loop, internal/repair/llmrepair.
package repair

import (
	"context"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/analyzer"
	"specrepair/internal/aunit"
)

// Problem is one faulty specification to repair.
type Problem struct {
	// Name identifies the benchmark entry (e.g. "classroom/inv3_42").
	Name string
	// Faulty is the defective module. Tools must not modify it.
	Faulty *ast.Module
	// Tests is the AUnit suite accompanying the problem (used by the
	// test-based tools; may be nil for property-oracle-only problems).
	Tests *aunit.Suite
	// Hints carries the metadata the LLM prompt settings draw on. Zero
	// values mean the hint is unavailable.
	Hints Hints
}

// Hints mirrors the informational cues of the Single-Round prompt study:
// bug location, a fix description, and the oracle assertion to pass.
type Hints struct {
	// Location describes where the bug is (paragraph kind and name).
	Location string `json:"location,omitempty"`
	// FixDescription sketches the intended fix in prose.
	FixDescription string `json:"fixDescription,omitempty"`
	// PassAssertion names the assertion the fix must satisfy.
	PassAssertion string `json:"passAssertion,omitempty"`
}

// Stats aggregates the effort a technique spent.
type Stats struct {
	CandidatesTried int
	AnalyzerCalls   int
	TestRuns        int
	Iterations      int
}

// Add accumulates o into s, summing field-wise. The study runner uses it to
// aggregate per-job stats into per-technique totals.
func (s *Stats) Add(o Stats) {
	s.CandidatesTried += o.CandidatesTried
	s.AnalyzerCalls += o.AnalyzerCalls
	s.TestRuns += o.TestRuns
	s.Iterations += o.Iterations
}

// Outcome is a technique's result on one problem.
type Outcome struct {
	// Repaired reports success per the technique's own oracle (tests for
	// ARepair, property commands for the others). The study's REP metric
	// re-validates candidates against the ground truth independently.
	Repaired bool
	// Candidate is the best module produced (nil when the technique gave
	// up without producing anything).
	Candidate *ast.Module
	Stats     Stats
}

// Technique is a repair tool.
type Technique interface {
	// Name returns the technique's display name as used in the paper's
	// tables (e.g. "ARepair", "Multi-Round_Generic").
	Name() string
	// Repair attempts to fix the problem. When ctx is cancelled the
	// technique abandons the search and returns the context's error;
	// partial progress is discarded, never reported as a repair.
	Repair(ctx context.Context, p Problem) (Outcome, error)
}

// OracleAllCommandsPass reports whether every command of the module meets
// its expectation — the property-based repair oracle shared by ICEBAR,
// BeAFix, and ATR. It stops at the first failing command.
//
// Candidate-enumeration loops should not call this per candidate: they use
// analyzer.Evaluator, which answers the same question over one long-lived
// incremental SAT session shared by the whole candidate stream. ARepair has
// no analyzer oracle at all — its oracle is the AUnit test suite — and
// participates in incremental evaluation only through ICEBAR's wrapper.
func OracleAllCommandsPass(ctx context.Context, a *analyzer.Analyzer, mod *ast.Module) (bool, error) {
	return a.WithContext(ctx).PassesAll(mod)
}

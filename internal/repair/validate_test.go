package repair_test

import (
	"context"
	"errors"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
	"specrepair/internal/analyzer"
	"specrepair/internal/repair"
)

// TestValidatorCountsAndVerdicts pins the validation step's contract: the
// base and every candidate seen before are skipped uncounted, even when the
// admission screen rejected the earlier copy; a screened-out candidate is
// not counted; a judged one counts one candidate and one analyzer call; an
// analyzer failure skips the candidate without stopping the search; the cap
// is reached after max judged candidates.
func TestValidatorCountsAndVerdicts(t *testing.T) {
	ctx := context.Background()
	base := mustParse(t, faultySrc)
	an := analyzer.New(analyzer.Options{}).WithContext(ctx)
	var stats repair.Stats
	val := repair.NewValidator(ctx, an.Evaluator(types.NewBase(base)), base, 3, &stats)

	check := func(step string, got repair.Verdict, err error, want repair.Verdict, tried int) {
		t.Helper()
		if err != nil || got != want || stats.CandidatesTried != tried || stats.AnalyzerCalls != tried {
			t.Fatalf("%s: verdict %d, err %v, stats %+v; want verdict %d, %d tried", step, got, err, stats, want, tried)
		}
	}
	rejectAll := func(*ast.Module) bool { return false }

	v, err := val.Validate(mustParse(t, faultySrc), nil)
	check("base", v, err, repair.Skipped, 0)

	const extraFact = "\nfact Extra { some Node }\n"
	v, err = val.Validate(mustParse(t, faultySrc+extraFact), rejectAll)
	check("screened out", v, err, repair.Skipped, 0)
	v, err = val.Validate(mustParse(t, faultySrc+extraFact), nil)
	check("seen after screening", v, err, repair.Skipped, 0)

	v, err = val.Validate(mustParse(t, faultySrc+"\nfact Typo { some nxt }\n"), nil)
	check("analyzer failure", v, err, repair.Skipped, 1)

	v, err = val.Validate(mustParse(t, faultySrc+"\nfact Two { #Node > 1 }\n"), nil)
	check("failing", v, err, repair.Failed, 2)
	if val.Exhausted() {
		t.Fatal("exhausted after 2 of 3 candidates")
	}

	v, err = val.Validate(mustParse(t, groundTruthSrc), nil)
	check("passing", v, err, repair.Passed, 3)
	if !val.Exhausted() {
		t.Fatal("not exhausted after 3 of 3 candidates")
	}
}

// TestValidatorStopsOnContextError checks that a done context is the one
// error Validate returns.
func TestValidatorStopsOnContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	base := mustParse(t, faultySrc)
	an := analyzer.New(analyzer.Options{}).WithContext(ctx)
	var stats repair.Stats
	val := repair.NewValidator(ctx, an.Evaluator(types.NewBase(base)), base, 10, &stats)
	cancel()
	v, err := val.Validate(mustParse(t, groundTruthSrc), nil)
	if !errors.Is(err, context.Canceled) || v != repair.Skipped {
		t.Fatalf("verdict %d, err %v; want skipped with context.Canceled", v, err)
	}
}

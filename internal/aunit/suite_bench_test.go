package aunit_test

import (
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/bench"
)

// TestRunAllMatchesPerTestRun checks, on every generated benchmark entry
// that carries a suite, that running the suite against a model lowered once
// gives each test the same verdict and error as running it on its own.
func TestRunAllMatchesPerTestRun(t *testing.T) {
	g := bench.NewGenerator(nil)
	g.Scale = 40
	suites := []func() (*bench.Suite, error){g.Alloy4Fun, g.ARepair, g.Synthetic}
	checked := 0
	for _, gen := range suites {
		suite, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range suite.Specs {
			if sp.Tests == nil || sp.Tests.Len() == 0 {
				continue
			}
			for _, mod := range []*ast.Module{sp.Faulty, sp.GroundTruth} {
				results, passed := sp.Tests.RunAll(mod)
				wantPassed := 0
				for i, tc := range sp.Tests.Tests {
					want := tc.Run(mod)
					if want.Passed {
						wantPassed++
					}
					got := results[i]
					if got.Test != tc || got.Passed != want.Passed || errText(got.Err) != errText(want.Err) {
						t.Errorf("%s test %s: RunAll gave (%v, %v), Run gave (%v, %v)",
							sp.Name, tc.Name, got.Passed, got.Err, want.Passed, want.Err)
					}
				}
				if passed != wantPassed {
					t.Errorf("%s: RunAll counted %d passing, per-test runs %d", sp.Name, passed, wantPassed)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no benchmark entry carries a suite")
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

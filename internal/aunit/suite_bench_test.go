package aunit_test

import (
	"fmt"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/aunit"
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

// TestRunAllAllocsFlatInSuite guards the one evaluator a suite run shares:
// tests whose formulas evaluate without allocating run without allocating,
// so a suite of 40 such tests costs as many allocations as a suite of 4,
// although every test has a universe of its own.
func TestRunAllAllocsFlatInSuite(t *testing.T) {
	mod, err := parser.Parse(`
sig Node { next: set Node }
run {} for 3
`)
	if err != nil {
		t.Fatal(err)
	}
	model := aunit.Prepare(mod)
	suite := func(n int) *aunit.Suite {
		s := &aunit.Suite{}
		for i := 0; i < n; i++ {
			atoms := [][]string{{fmt.Sprint("N", i)}, {fmt.Sprint("M", i)}}
			s.Add(&aunit.Test{
				Name:      fmt.Sprint("t", i),
				Valuation: map[string][][]string{"Node": atoms},
				Formula:   "all a, b: Node | a in Node and b in Node",
				Expect:    true,
			})
		}
		return s
	}
	small, large := suite(4), suite(40)
	allocs := func(s *aunit.Suite) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, passed := model.RunAll(s); passed != s.Len() {
				t.Fatalf("%d of %d tests passed", passed, s.Len())
			}
		})
	}
	if a4, a40 := allocs(small), allocs(large); a40 != a4 {
		t.Errorf("RunAll: %.0f allocations for 40 tests, %.0f for 4; want equal", a40, a4)
	}
}

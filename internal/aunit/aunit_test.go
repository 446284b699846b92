package aunit

import (
	"reflect"
	"strings"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/analyzer"
	"specrepair/internal/bounds"
	"specrepair/internal/mutation"
)

const model = `
sig Node { next: set Node }
pred linked { all n: Node | some n.next }
run linked for 3
`

func mustParse(t *testing.T, src string) *ast.Module {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestRunPassingTest(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name: "cycle_is_linked",
		Valuation: map[string][][]string{
			"Node": {{"N0"}, {"N1"}},
			"next": {{"N0", "N1"}, {"N1", "N0"}},
		},
		Formula: "linked[]",
		Expect:  true,
	}
	// linked has no params; use pred body through a call-free formula too.
	test.Formula = "all n: Node | some n.next"
	if r := test.Run(mod); !r.Passed {
		t.Errorf("test should pass: %v", r.Err)
	}
}

func TestRunFailingTest(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name: "dangling_not_linked",
		Valuation: map[string][][]string{
			"Node": {{"N0"}, {"N1"}},
			"next": {{"N0", "N1"}},
		},
		Formula: "all n: Node | some n.next",
		Expect:  true, // N1 has no next: formula false, so test fails
	}
	if r := test.Run(mod); r.Passed {
		t.Error("test should fail")
	}
}

func TestExpectFalse(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name: "dangling_detected",
		Valuation: map[string][][]string{
			"Node": {{"N0"}, {"N1"}},
			"next": {{"N0", "N1"}},
		},
		Formula: "all n: Node | some n.next",
		Expect:  false,
	}
	if r := test.Run(mod); !r.Passed {
		t.Errorf("expect-false test should pass: %v", r.Err)
	}
}

func TestMissingRelationsAreEmpty(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name: "empty_next",
		Valuation: map[string][][]string{
			"Node": {{"N0"}},
		},
		Formula: "no next",
		Expect:  true,
	}
	if r := test.Run(mod); !r.Passed {
		t.Errorf("missing relation should default to empty: %v", r.Err)
	}
}

func TestPredCallInFormula(t *testing.T) {
	src := `
sig Node { next: set Node }
pred hasSucc[n: Node] { some n.next }
run hasSucc for 3
`
	mod := mustParse(t, src)
	test := &Test{
		Name: "call",
		Valuation: map[string][][]string{
			"Node": {{"N0"}, {"N1"}},
			"next": {{"N0", "N1"}},
		},
		Formula: "some n: Node | hasSucc[n]",
		Expect:  true,
	}
	if r := test.Run(mod); !r.Passed {
		t.Errorf("pred call formula failed: %v", r.Err)
	}
}

func TestSuiteRunAll(t *testing.T) {
	mod := mustParse(t, model)
	s := &Suite{}
	s.Add(&Test{
		Name:      "pass",
		Valuation: map[string][][]string{"Node": {{"N0"}}, "next": {{"N0", "N0"}}},
		Formula:   "some next",
		Expect:    true,
	})
	s.Add(&Test{
		Name:      "fail",
		Valuation: map[string][][]string{"Node": {{"N0"}}},
		Formula:   "some next",
		Expect:    true,
	})
	results, passed := s.RunAll(mod)
	if len(results) != 2 || passed != 1 {
		t.Errorf("RunAll = %d results, %d passed", len(results), passed)
	}
	if s.AllPass(mod) {
		t.Error("AllPass should be false")
	}
}

func TestBadFormulaReportsError(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name:      "broken",
		Valuation: map[string][][]string{"Node": {{"N0"}}},
		Formula:   "some Unknown",
		Expect:    true,
	}
	r := test.Run(mod)
	if r.Passed || r.Err == nil {
		t.Errorf("bad formula should error: %+v", r)
	}
	if !strings.Contains(r.Err.Error(), "broken") {
		t.Errorf("error should name the test: %v", r.Err)
	}
}

func TestFromInstanceRoundTrip(t *testing.T) {
	a := analyzer.New(analyzer.Options{})
	mod := mustParse(t, model)
	results, err := a.ExecuteAll(mod)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Sat {
		t.Fatal("expected instance")
	}
	test := FromInstance("from_run", results[0].Instance, "all n: Node | some n.next", true)
	if r := test.Run(mod); !r.Passed {
		t.Errorf("instance-derived test should pass on the source model: %v", r.Err)
	}
}

func TestSuiteClone(t *testing.T) {
	s := &Suite{}
	s.Add(&Test{Name: "a"})
	c := s.Clone()
	c.Add(&Test{Name: "b"})
	if s.Len() != 1 || c.Len() != 2 {
		t.Error("clone should not share backing slice growth")
	}
}

func TestModelThatDoesNotLowerFailsEveryTestByName(t *testing.T) {
	mod := mustParse(t, `
sig Node { next: set Node }
fact Broken { some Unknown }
`)
	s := &Suite{}
	for _, name := range []string{"first", "second", "third"} {
		s.Add(&Test{Name: name, Valuation: map[string][][]string{"Node": {{"N0"}}}, Formula: FactsFormula, Expect: true})
	}
	if Prepare(mod).Err() == nil {
		t.Fatal("model with an unknown relation lowered")
	}
	results, passed := s.RunAll(mod)
	if passed != 0 || len(results) != s.Len() {
		t.Fatalf("RunAll = %d results, %d passed; want %d, 0", len(results), passed, s.Len())
	}
	for i, r := range results {
		want := "test " + s.Tests[i].Name + ": model does not check: "
		if r.Passed || r.Err == nil || !strings.HasPrefix(r.Err.Error(), want) {
			t.Errorf("result %d = passed %v, err %v; want an error starting %q", i, r.Passed, r.Err, want)
		}
	}
}

func TestPreparedModelRunsRepeatIdentically(t *testing.T) {
	mod := mustParse(t, `
sig Node { next: set Node }
fact Acyclic { no n: Node | n in n.^next }
pred hasSucc[n: Node] { some n.next }
run hasSucc for 3
`)
	s := &Suite{}
	s.Add(&Test{Name: "facts_hold", Valuation: map[string][][]string{"Node": {{"N0"}, {"N1"}}, "next": {{"N0", "N1"}}}, Formula: FactsFormula, Expect: true})
	s.Add(&Test{Name: "facts_reject_cycle", Valuation: map[string][][]string{"Node": {{"N0"}}, "next": {{"N0", "N0"}}}, Formula: FactsFormula, Expect: false})
	s.Add(&Test{Name: "call", Valuation: map[string][][]string{"Node": {{"N0"}, {"N1"}}, "next": {{"N0", "N1"}}}, Formula: "some n: Node | hasSucc[n]", Expect: true})
	s.Add(&Test{Name: "wrong", Valuation: map[string][][]string{"Node": {{"N0"}}}, Formula: "some next", Expect: true})
	s.Add(&Test{Name: "broken", Valuation: map[string][][]string{"Node": {{"N0"}}}, Formula: "some Unknown", Expect: true})

	m := Prepare(mod)
	before := printer.Module(m.low)
	first, firstPassed := m.RunAll(s)
	second, secondPassed := m.RunAll(s)
	if firstPassed != 3 || secondPassed != firstPassed {
		t.Fatalf("passed %d then %d, want 3 both times", firstPassed, secondPassed)
	}
	for i := range first {
		if first[i].Passed != second[i].Passed || errText(first[i].Err) != errText(second[i].Err) {
			t.Errorf("test %s: first run (%v, %v), second run (%v, %v)", s.Tests[i].Name,
				first[i].Passed, first[i].Err, second[i].Passed, second[i].Err)
		}
	}
	if after := printer.Module(m.low); after != before {
		t.Errorf("running tests changed the lowered module:\n%s\n---\n%s", before, after)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBasePreparesLikePrepare runs a suite against every template-budget
// candidate of a model prepared cold and through a Base: the results match
// test for test, and the candidates whose tables are the base's share one
// map of relation defaults.
func TestBasePreparesLikePrepare(t *testing.T) {
	mod := mustParse(t, `
sig Node { next: set Node, prev: set Node }
fact Inverse { prev = ~next }
fact NoSelf { all n: Node | n not in n.next }
pred linked[n: Node] { some n.next and some n.prev }
run { some n: Node | linked[n] } for 3
`)
	suite := &Suite{}
	for i, formula := range []string{FactsFormula, "all n: Node | linked[n]", "some next"} {
		suite.Add(&Test{
			Name: "t" + string(rune('0'+i)),
			Valuation: map[string][][]string{
				"Node": {{"N0"}, {"N1"}},
				"next": {{"N0", "N1"}, {"N1", "N0"}},
				"prev": {{"N1", "N0"}, {"N0", "N1"}},
			},
			Formula: formula,
			Expect:  true,
		})
	}
	eng, err := mutation.NewEngine(mod)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBase(eng.Base())
	_, baseInfo, err := eng.Base().Lower(eng.Mod)
	if err != nil {
		t.Fatal(err)
	}
	var shared map[string]bounds.TupleSet
	n, sharing := 0, 0
	for _, s := range eng.Sites() {
		for _, c := range eng.Candidates(s, mutation.BudgetTemplates) {
			cand, err := eng.Apply(s.Site, c)
			if err != nil {
				t.Fatal(err)
			}
			cold, relative := Prepare(cand), b.Prepare(cand)
			want, wantPassed := cold.RunAll(suite)
			got, gotPassed := relative.RunAll(suite)
			if gotPassed != wantPassed || errText(relative.Err()) != errText(cold.Err()) {
				t.Fatalf("%s: %d passed (err %v) against a base, %d cold (err %v)", printer.Module(cand), gotPassed, relative.Err(), wantPassed, cold.Err())
			}
			for i := range want {
				if got[i].Passed != want[i].Passed || errText(got[i].Err) != errText(want[i].Err) {
					t.Fatalf("%s: test %s: %+v against a base, %+v cold", printer.Module(cand), want[i].Test.Name, got[i], want[i])
				}
			}
			n++
			if relative.Err() != nil || !relative.Info().SharesTables(baseInfo) {
				continue
			}
			if shared == nil {
				shared = relative.defaults
			} else if reflect.ValueOf(relative.defaults).UnsafePointer() != reflect.ValueOf(shared).UnsafePointer() {
				t.Fatalf("%s: a candidate sharing the base's tables has relation defaults of its own", printer.Module(cand))
			}
			sharing++
		}
	}
	if n == 0 || sharing < n/2 {
		t.Fatalf("%d of %d candidates share the base's relation defaults", sharing, n)
	}
}

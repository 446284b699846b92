package arepair

import (
	"context"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/aunit"
	"specrepair/internal/bench"
)

// arepairSpec returns one entry of the full-size ARepair benchmark.
func arepairSpec(t *testing.T, name string) *bench.Spec {
	t.Helper()
	suite, err := bench.NewGenerator(nil).ARepair()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range suite.Specs {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("no ARepair benchmark entry %q", name)
	return nil
}

func TestRepairsSingleFaultSpec(t *testing.T) {
	sp := arepairSpec(t, "dll/0000")
	if sp.Depth != 1 {
		t.Fatalf("%s has %d injected faults, want 1", sp.Name, sp.Depth)
	}
	if sp.Tests.AllPass(sp.Faulty) {
		t.Fatalf("%s passes its suite before repair", sp.Name)
	}
	out, err := New(Options{}).Repair(context.Background(), sp.Problem())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Repaired || out.Candidate == nil {
		t.Fatalf("%s not repaired: %+v", sp.Name, out.Stats)
	}
	if !sp.Tests.AllPass(out.Candidate) {
		t.Errorf("repair of %s fails its suite:\n%s", sp.Name, printer.Module(out.Candidate))
	}
	if printer.Module(out.Candidate) == printer.Module(sp.Faulty) {
		t.Errorf("repair of %s returned the faulty model unchanged", sp.Name)
	}
}

// TestRepairStatsPinned pins the search effort on fixed benchmark entries:
// one repaired in a single round, one that exhausts two rounds unrepaired.
// A change to how candidates are judged must not change how many are tried.
func TestRepairStatsPinned(t *testing.T) {
	for _, tc := range []struct {
		spec                        string
		repaired                    bool
		tried, testRuns, iterations int
	}{
		{"dll/0000", true, 18, 20, 1},
		{"Student/0009", false, 82, 84, 2},
	} {
		sp := arepairSpec(t, tc.spec)
		out, err := New(Options{}).Repair(context.Background(), sp.Problem())
		if err != nil {
			t.Fatal(err)
		}
		st := out.Stats
		if out.Repaired != tc.repaired || st.CandidatesTried != tc.tried || st.TestRuns != tc.testRuns || st.Iterations != tc.iterations {
			t.Errorf("%s: repaired %v, tried %d, test runs %d, iterations %d; want %v, %d, %d, %d",
				tc.spec, out.Repaired, st.CandidatesTried, st.TestRuns, st.Iterations,
				tc.repaired, tc.tried, tc.testRuns, tc.iterations)
		}
	}
}

func TestIllTypedCandidateCountedButNeverAccepted(t *testing.T) {
	parse := func(src string) *ast.Module {
		t.Helper()
		mod, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	// A mutant that substitutes a variable under a prime: it parses but
	// does not type-check.
	illTyped := parse(`sig Node { next: set Node }
fact Step { some n: Node | n' in n.next }`)
	wellTyped := parse(`sig Node { next: set Node }
fact Step { some n: Node | n in n.next }`)
	suite := &aunit.Suite{}
	suite.Add(&aunit.Test{Name: "self_loop", Valuation: map[string][][]string{
		"Node": {{"N0"}}, "next": {{"N0", "N0"}},
	}, Formula: aunit.FactsFormula, Expect: true})

	// With best = -1 even a model passing no test beats the current one,
	// so only the type gate keeps the ill-typed candidate out.
	g := &gate{suite: suite, best: -1}
	if g.improves(illTyped) {
		t.Error("ill-typed candidate accepted")
	}
	if g.tried != 1 {
		t.Errorf("tried = %d after one ill-typed candidate, want 1", g.tried)
	}
	if !g.improves(wellTyped) {
		t.Error("well-typed candidate rejected")
	}
	if g.tried != 2 {
		t.Errorf("tried = %d after two candidates, want 2", g.tried)
	}
}

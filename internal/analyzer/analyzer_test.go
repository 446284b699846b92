package analyzer

import (
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/types"
	"specrepair/internal/instance"
	"specrepair/internal/sat"
)

func mustParse(t *testing.T, src string) *ast.Module {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return mod
}

func run(t *testing.T, src string) []*Result {
	t.Helper()
	a := New(Options{})
	results, err := a.ExecuteAll(mustParse(t, src))
	if err != nil {
		t.Fatalf("ExecuteAll: %v", err)
	}
	return results
}

// verifyInstance replays the analyzer's model through the independent
// instance evaluator: every fact must hold in a satisfying instance.
func verifyInstance(t *testing.T, src string, res *Result) {
	t.Helper()
	if !res.Sat {
		return
	}
	mod := mustParse(t, src)
	low, _, err := types.Lower(mod)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	ev := &instance.Evaluator{Mod: low, Inst: res.Instance}
	for _, f := range low.Facts {
		ok, err := ev.EvalFormula(f.Body, nil)
		if err != nil {
			t.Fatalf("evaluating fact %s on instance: %v\n%s", f.Name, err, res.Instance)
		}
		if !ok {
			t.Errorf("instance violates fact %s:\n%s", f.Name, res.Instance)
		}
	}
}

func TestRunSimpleSat(t *testing.T) {
	src := `
sig Node { next: lone Node }
pred hasLink { some next }
run hasLink for 3
`
	res := run(t, src)[0]
	if !res.Sat {
		t.Fatalf("expected SAT, got %v", res.Status)
	}
	if res.Instance == nil || res.Instance.Rel("next").IsEmpty() {
		t.Errorf("instance should have a next tuple:\n%s", res.Instance)
	}
	verifyInstance(t, src, res)
}

func TestRunUnsat(t *testing.T) {
	src := `
sig Node {}
pred impossible { some Node and no Node }
run impossible for 3
`
	res := run(t, src)[0]
	if res.Sat {
		t.Fatalf("expected UNSAT:\n%s", res.Instance)
	}
}

func TestCheckValidAssertion(t *testing.T) {
	src := `
sig Node { next: lone Node }
fact NoSelf { all n: Node | n not in n.next }
assert NoSelfLoop { no n: Node | n in n.next }
check NoSelfLoop for 3
`
	res := run(t, src)[0]
	if res.Sat {
		t.Fatalf("valid assertion produced counterexample:\n%s", res.Instance)
	}
	if !res.Passed() {
		t.Error("check of valid assertion should pass")
	}
}

func TestCheckInvalidAssertionCounterexample(t *testing.T) {
	src := `
sig Node { next: lone Node }
assert NoSelfLoop { no n: Node | n in n.next }
check NoSelfLoop for 3
`
	res := run(t, src)[0]
	if !res.Sat {
		t.Fatal("expected counterexample (nothing prevents self loops)")
	}
	// The counterexample must actually violate the assertion.
	mod := mustParse(t, src)
	low, _, err := types.Lower(mod)
	if err != nil {
		t.Fatal(err)
	}
	ev := &instance.Evaluator{Mod: low, Inst: res.Instance}
	holds, err := ev.EvalFormula(low.Asserts[0].Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Errorf("counterexample does not violate the assertion:\n%s", res.Instance)
	}
}

func TestOneSigSemantics(t *testing.T) {
	src := `
one sig Root {}
sig Node {}
run {} for 3
`
	res := run(t, src)[0]
	if !res.Sat {
		t.Fatal("expected SAT")
	}
	if got := res.Instance.Rel("Root").Len(); got != 1 {
		t.Errorf("Root has %d atoms, want exactly 1", got)
	}
}

func TestAbstractSigPartition(t *testing.T) {
	src := `
abstract sig Color {}
one sig Red, Green extends Color {}
run { some Color } for 3
`
	res := run(t, src)[0]
	if !res.Sat {
		t.Fatal("expected SAT")
	}
	color := res.Instance.Rel("Color")
	red := res.Instance.Rel("Red")
	green := res.Instance.Rel("Green")
	if red.Len() != 1 || green.Len() != 1 {
		t.Fatalf("one-subsigs should have exactly one atom: red=%d green=%d", red.Len(), green.Len())
	}
	if !red.Union(green).Equal(color) {
		t.Errorf("abstract sig must equal union of children:\ncolor=%s red=%s green=%s",
			color.String(res.Instance.Universe), red.String(res.Instance.Universe), green.String(res.Instance.Universe))
	}
	if !red.Intersect(green).IsEmpty() {
		t.Error("sibling subsigs must be disjoint")
	}
}

func TestSubsigDisjointness(t *testing.T) {
	src := `
sig Animal {}
sig Cat extends Animal {}
sig Dog extends Animal {}
pred both { some c: Cat | c in Dog }
run both for 3
`
	res := run(t, src)[0]
	if res.Sat {
		t.Errorf("Cat and Dog must be disjoint:\n%s", res.Instance)
	}
}

func TestFieldMultiplicityLone(t *testing.T) {
	src := `
sig Node { next: lone Node }
pred twoNext { some n: Node | #n.next > 1 }
run twoNext for 3
`
	res := run(t, src)[0]
	if res.Sat {
		t.Errorf("lone field admitted two targets:\n%s", res.Instance)
	}
}

func TestFieldDefaultOne(t *testing.T) {
	// Default multiplicity of a unary field range is exactly one.
	src := `
sig Person { mother: Person }
pred orphan { some p: Person | no p.mother }
run orphan for 3
`
	res := run(t, src)[0]
	if res.Sat {
		t.Errorf("default-one field admitted an empty value:\n%s", res.Instance)
	}
}

func TestArrowMultiplicityLone(t *testing.T) {
	// lastKey: Room -> lone Key means each room maps to at most one key.
	src := `
sig Room {}
sig Key {}
one sig Desk { lastKey: Room -> lone Key }
pred twoKeys { some r: Room | #Desk.lastKey[r] > 1 }
run twoKeys for 3
`
	res := run(t, src)[0]
	if res.Sat {
		t.Errorf("arrow lone admitted two keys per room:\n%s", res.Instance)
	}
}

func TestTransitiveClosure(t *testing.T) {
	src := `
sig Node { next: lone Node }
fact SomeChain { some n1, n2: Node | n1 != n2 and n2 in n1.^next }
pred reachesSelf { some n: Node | n in n.^next }
run reachesSelf for 3
`
	results := run(t, src)
	if !results[0].Sat {
		t.Fatal("cycles should be possible")
	}
	verifyInstance(t, src, results[0])
}

func TestAcyclicityUnsat(t *testing.T) {
	src := `
sig Node { next: lone Node }
fact Acyclic { no n: Node | n in n.^next }
pred cycle { some n: Node | n in n.^next }
run cycle for 4
`
	res := run(t, src)[0]
	if res.Sat {
		t.Errorf("cycle found despite acyclicity fact:\n%s", res.Instance)
	}
}

func TestScopeExactly(t *testing.T) {
	src := `
sig Node {}
run { #Node = 3 } for exactly 3 Node
`
	res := run(t, src)[0]
	if !res.Sat {
		t.Fatal("exactly 3 Node should be satisfiable")
	}
	if got := res.Instance.Rel("Node").Len(); got != 3 {
		t.Errorf("Node has %d atoms, want 3", got)
	}
}

func TestScopeUpperBound(t *testing.T) {
	src := `
sig Node {}
run { #Node > 2 } for 2
`
	res := run(t, src)[0]
	if res.Sat {
		t.Errorf("scope 2 cannot hold 3 nodes:\n%s", res.Instance)
	}
}

func TestCardinalityComparisons(t *testing.T) {
	tests := []struct {
		formula string
		wantSat bool
	}{
		{"#Node = 2", true},
		{"#Node >= 1 and #Node =< 2", true},
		{"#Node > 3", false},
		{"#Node != #Node", false},
		{"#Node = #Edge", true},
	}
	for _, tt := range tests {
		src := "sig Node {}\nsig Edge {}\nrun { " + tt.formula + " } for 3"
		res := run(t, src)[0]
		if res.Sat != tt.wantSat {
			t.Errorf("%s: sat = %v, want %v", tt.formula, res.Sat, tt.wantSat)
		}
	}
}

func TestRunPredWithParams(t *testing.T) {
	src := `
sig Guest {}
sig Key {}
one sig Desk { holds: Guest -> Key }
pred give[g: Guest, k: Key] {
  g -> k in Desk.holds
}
run give for 3
`
	res := run(t, src)[0]
	if !res.Sat {
		t.Fatal("parameterized run should find witnesses")
	}
	verifyInstance(t, src, res)
}

func TestPrimedRelations(t *testing.T) {
	src := `
sig Guest { keys: set Key }
sig Key {}
pred acquire[g: Guest, k: Key] {
  k not in g.keys
  g.keys' = g.keys + k
}
run acquire for 3
`
	res := run(t, src)[0]
	if !res.Sat {
		t.Fatal("acquire should be satisfiable")
	}
	if _, ok := res.Instance.Rels["keys'"]; !ok {
		t.Error("instance should contain the primed relation keys'")
	}
}

func TestHotelModelFromPaper(t *testing.T) {
	// The faulty hotel model of Figure 1: "no g.gkeys" makes a second
	// check-in by the same guest impossible.
	src := `
abstract sig Key {}
sig RoomKey extends Key {}
sig Room { keys: set Key }
sig Guest { gkeys: set Key }
one sig FrontDesk {
  lastKey: Room -> lone RoomKey,
  occupant: Room -> lone Guest
}
pred checkIn[g: Guest, r: Room, k: RoomKey] {
  no FrontDesk.occupant[r]
  no g.gkeys
  FrontDesk.occupant' = FrontDesk.occupant + r->g
  g.gkeys' = g.gkeys + k
}
pred checkInWithKeys {
  some g: Guest, r: Room, k: RoomKey {
    some g.gkeys
    no FrontDesk.occupant[r]
    k not in g.gkeys
    FrontDesk.occupant' = FrontDesk.occupant + r->g
    g.gkeys' = g.gkeys + k
  }
}
run checkIn for 3
run checkInWithKeys for 3
`
	results := run(t, src)
	if !results[0].Sat {
		t.Error("basic checkIn should be satisfiable")
	}
	// A guest already holding keys can satisfy the *intended* behaviour
	// (checkInWithKeys) — the faulty "no g.gkeys" constraint forbids it in
	// checkIn. Both being analyzable is what the repair study relies on.
	if !results[1].Sat {
		t.Error("intended semantics should be satisfiable")
	}
	verifyInstance(t, src, results[0])
}

func TestEquisatIdentical(t *testing.T) {
	src := `
sig Node { next: lone Node }
fact Acyclic { no n: Node | n in n.^next }
assert NoCycle { no n: Node | n in n.^next }
check NoCycle for 3
run { some Node } for 3
`
	a := New(Options{})
	m1, m2 := mustParse(t, src), mustParse(t, src)
	eq, err := a.Equisat(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("identical modules must be equisatisfiable")
	}
}

func TestEquisatDetectsDifference(t *testing.T) {
	gt := `
sig Node { next: lone Node }
fact Acyclic { no n: Node | n in n.^next }
assert NoCycle { no n: Node | n in n.^next }
check NoCycle for 3
`
	broken := `
sig Node { next: lone Node }
fact Acyclic { some Node implies some Node }
assert NoCycle { no n: Node | n in n.^next }
check NoCycle for 3
`
	a := New(Options{})
	eq, err := a.Equisat(mustParse(t, gt), mustParse(t, broken))
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("modules with different check outcomes must not be equisatisfiable")
	}
}

func TestEquisatMalformedCandidate(t *testing.T) {
	gt := `
sig Node {}
run { some Node } for 3
`
	bad := `
sig Node {}
fact { some Bogus }
run { some Node } for 3
`
	a := New(Options{})
	eq, err := a.Equisat(mustParse(t, gt), mustParse(t, bad))
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("non-typechecking candidate must not count as a repair")
	}
}

func TestExpectAnnotation(t *testing.T) {
	src := `
sig Node {}
pred never { some Node and no Node }
run never for 3 expect 0
`
	res := run(t, src)[0]
	if !res.Passed() {
		t.Error("run ... expect 0 should pass when UNSAT")
	}
}

func TestStatusUnknownUnderTinyBudget(t *testing.T) {
	a := New(Options{MaxConflicts: 1})
	src := `
sig A { r: set A }
pred p {
  #A = 4
  all x, y: A | some x.r & y.r
  no x: A | x in x.r
  all x, y: A | x in y.r implies y not in x.r
}
run p for 4
`
	res, err := a.ExecuteAll(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status == sat.StatusUnknown {
		return // budget exhausted as expected for such a tiny budget
	}
	// Some instances may solve within one conflict; that is fine too.
}

func TestUnivAndIden(t *testing.T) {
	src := `
sig A {}
sig B {}
run { univ = A + B and (iden & A -> A) in A -> A } for 2
`
	res := run(t, src)[0]
	if !res.Sat {
		t.Error("univ/iden semantics should admit a model")
	}
}

func TestStatsPopulated(t *testing.T) {
	src := `
sig Node { next: lone Node }
run { some next } for 3
`
	res := run(t, src)[0]
	if res.Stats.RelVars == 0 || res.Stats.SolverVars == 0 || res.Stats.Clauses == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

// TestStatsArePerCommand runs two identical checks of one scope, which
// share a solver: each result reports its own solve's conflicts and
// decisions, so they sum to the solver's totals.
func TestStatsArePerCommand(t *testing.T) {
	src := `
sig Node { next: lone Node }
fact Links { all n: Node | n not in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 5
check NoSelf for 5
`
	s, err := New(Options{}).newSession(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	var conflicts, decisions int64
	for _, cmd := range s.low.Commands {
		r, err := s.run(cmd)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.Conflicts == 0 {
			t.Fatalf("%s spent no conflicts; the check proves nothing", cmd.Name)
		}
		conflicts += r.Stats.Conflicts
		decisions += r.Stats.Decisions
	}
	solver := s.state(s.low.Commands[0].Scope).solver
	if conflicts != solver.Conflicts || decisions != solver.Decisions {
		t.Errorf("per-command stats sum to %d conflicts and %d decisions, solver spent %d and %d",
			conflicts, decisions, solver.Conflicts, solver.Decisions)
	}
}

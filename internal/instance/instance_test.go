package instance

import (
	"fmt"
	"strings"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bounds"
)

// fixture builds a small concrete instance:
//
//	Node = {n0, n1, n2}, next = {(n0,n1), (n1,n2)}, Mark = {n0}
func fixture(t *testing.T) (*Evaluator, *Instance) {
	t.Helper()
	src := `
sig Node { next: set Node }
sig Mark in Node {}
pred reaches[a: Node, b: Node] { b in a.^next }
fun succs[a: Node]: set Node { a.next }
run {} for 3
`
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	low, _, err := types.Lower(mod)
	if err != nil {
		t.Fatal(err)
	}
	u, err := bounds.NewUniverse([]string{"Node$0", "Node$1", "Node$2"})
	if err != nil {
		t.Fatal(err)
	}
	inst := New(u)
	node := bounds.UnarySet(0, 1, 2)
	next := bounds.NewTupleSet(2)
	next.Add(bounds.Tuple{0, 1})
	next.Add(bounds.Tuple{1, 2})
	inst.Rels["Node"] = node
	inst.Rels["next"] = next
	inst.Rels["Mark"] = bounds.UnarySet(0)
	return &Evaluator{Mod: low, Inst: inst}, inst
}

func evalBool(t *testing.T, ev *Evaluator, src string) bool {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	e = types.RewriteCalls(ev.Mod, e)
	got, err := ev.EvalFormula(e, nil)
	if err != nil {
		t.Fatalf("EvalFormula(%q): %v", src, err)
	}
	return got
}

func TestEvalFormulas(t *testing.T) {
	ev, _ := fixture(t)
	tests := []struct {
		src  string
		want bool
	}{
		{"some Node", true},
		{"no Node", false},
		{"#Node = 3", true},
		{"#next = 2", true},
		{"one Mark", true},
		{"lone Mark", true},
		{"Mark in Node", true},
		{"Node in Mark", false},
		{"all n: Node | lone n.next", true},
		{"some n: Node | no n.next", true},
		{"no n: Node | n in n.next", true},
		{"some n: Node | n in n.^next", false},
		{"all n: Node - Mark | some m: Node | n in m.^next", true},
		{"Mark.next = Node - Mark - Node.next.next", true},
		{"some next.Node", true},
		{"~next = next", false},
		{"one n: Node | no n.next", true},
		{"lone n: Node | some n.next", false},
		{"all disj a, b: Node | a != b", true},
		{"some disj a, b, c: Node | Node = a + b + c", true},
		{"#(Node -> Node) = 9", true},
		{"next + ~next = ~(next + ~next)", true},
		{"Node <: next = next", true},
		{"next :> Mark = none -> none & next", true}, // both sides empty binary
		{"no next :> Mark", true},
		{"some next ++ (Node -> Mark)", true},
		{"(Node -> Mark).Mark = Node", true},
		{"reaches[Mark, Node - Mark - Node.next]", true}, // empty b: vacuous subset
		{"reaches[Node - Mark - Mark.next, Mark]", false},
		{"some n: Node | reaches[Mark, n]", true},
		{"succs[Mark] = Node.next & Node - Node.next.next", true},
		{"let twice = next.next | some twice", true},
		{"(some Mark) implies some Node else no Node", true},
		{"{n: Node | some n.next} = Node - next.Node - (Node - Node.next - Mark)", false},
		{"#{n: Node | some n.next} = 2", true},
		{"univ = Node", true},
		{"iden & next = none -> none", true},
		// Quantifier bindings. A nested quantifier that shadows an outer
		// name binds its own copy: the outer n is intact afterwards, and
		// the inner domain sees the outer value.
		{"all n: Mark | (some n: Node | no n.next) and n in Mark", true},
		{"all n: Node | some n: n.next | n not in Mark", false},
		{"all n: Node - Mark | one n: n.~next | n in Node", true},
		// A later declaration's domain reads an earlier variable.
		{"all x: Node, y: x.next | y in x.^next", true},
		{"all x: Node, y: x.next | x in Mark", false},
		{"some x: Node, y: x.next | no y.next", true},
		{"#{x: Node, y: x.next | some y.next} = 1", true},
		// disj skips assignments that repeat an earlier name's value.
		{"some disj a, b: Node | b in a.next", true},
		{"some disj a, b: Node | a in b.next and b in a.next", false},
		{"no disj a, b: Mark | a = a", true},
		{"some a, b: Mark | a = b", true},
		{"#{disj a, b: Node | a in Node} = 6", true},
		// Two-variable comprehensions.
		{"{a: Node, b: Node | b in a.next} = next", true},
		{"#{a: Node, b: a.^next | a in Mark} = 2", true},
		{"{a: Mark, b: Node | b in a.next} = Mark -> Mark.next", true},
		// Early stops. Domains are visited in atom order, so each of these
		// decides on Node$0 and Node$1 before Node$2, whose body would
		// fail on the unbound name Bogus.
		{"lone n: Node | (no n.next) implies some Bogus else some n.next", false},
		{"one n: Node | (no n.next) implies some Bogus else some n.next", false},
		{"some n: Node | (no n.next) implies some Bogus else some n.next", true},
		{"no n: Node | (no n.next) implies some Bogus else some n.next", false},
	}
	for _, tt := range tests {
		if got := evalBool(t, ev, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalExprSets(t *testing.T) {
	ev, inst := fixture(t)
	e, err := parser.ParseExpr("Mark.next")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvalExpr(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bounds.UnarySet(1)
	if !got.Equal(want) {
		t.Errorf("Mark.next = %s", got.String(inst.Universe))
	}
}

func TestEvalEnvBinding(t *testing.T) {
	ev, _ := fixture(t)
	e, err := parser.ParseExpr("x.next")
	if err != nil {
		t.Fatal(err)
	}
	env := Env{"x": bounds.UnarySet(0)}
	got, err := ev.EvalExpr(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(bounds.UnarySet(1)) {
		t.Errorf("x.next = %v", got.Tuples())
	}
}

func TestEvalErrors(t *testing.T) {
	ev, _ := fixture(t)
	for _, src := range []string{
		"some Unknown",
		"some x: set Node | some x", // higher-order
	} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := ev.EvalFormula(e, nil); err == nil {
			t.Errorf("eval(%q) should error", src)
		}
	}
}

// TestEvalScopes pins the scoping rules: call arguments are evaluated in
// the caller's scope and the body sees only its parameters, let values are
// evaluated before any let name is in scope, an inner binding shadows an
// outer one (disj included) only within its body, and @name skips every
// bound variable.
func TestEvalScopes(t *testing.T) {
	ev, _ := fixture(t)
	for _, src := range []string{
		// Arguments named like the callee's parameters, passed swapped.
		"all a: Mark, b: Node - Mark | reaches[a, b] and not reaches[b, a]",
		"all a, b: Node | reaches[b, a] iff a in b.^next",
		"some a, b: Node | reaches[b, a] and not reaches[a, b]",
		"all a: Node | succs[a] = a.next and (all a: a.next | succs[a] = a.next)",
		// let values see the enclosing a and b, not the ones the let binds.
		"all a: Mark | let a = a.next, b = a | b = Mark and a = Mark.next",
		"all a: Mark, b: Node - Mark | let b = a, a = b | b = Mark and a not in Mark",
		"all a: Node | let a = a.next | all b: Mark | reaches[b, b.next] and no a & Mark",
		// A nested quantifier shadows the outer name in its body only; its
		// domain still reads the outer one.
		"all n: Mark | (all n: n.next | n not in Mark) and n in Mark",
		"some n: Node | (one n: n.^next | some n.next) and n in Mark",
		// disj compares against the innermost binding of the earlier name.
		"all a: Mark | #{disj a, b: Node | b = Mark} = 2",
		"all a: Mark | no disj a, b: Node | a = b",
		"all b: Node - Mark | some disj a, b: Node | b = Mark",
		// @next names the relation even where next is bound.
		"all next: Mark | #next = 1 and #@next = 2 and next.@next = Mark.@next",
	} {
		if !evalBool(t, ev, src) {
			t.Errorf("eval(%q) = false, want true", src)
		}
	}
}

// TestEvalErrorTexts pins evaluation errors byte for byte.
func TestEvalErrorTexts(t *testing.T) {
	ev, _ := fixture(t)
	for _, tt := range []struct {
		src     string
		formula bool
		want    string
	}{
		{"Node", true, "1:1: expected formula, evaluated to bounds.TupleSet"},
		{"#Node", true, "1:1: expected formula, evaluated to int"},
		{"some Node", false, "1:1: expected relational expression, evaluated to bool"},
		{"#Node.next", false, "1:1: expected relational expression, evaluated to int"},
		{"no (some Node)", true, "1:5: expected relational expression, evaluated to bool"},
		{"some Node and Node", true, "1:15: expected formula, evaluated to bounds.TupleSet"},
		{"Node = 1", true, "1:1: mixing Int and relational operands"},
		{"(some Node) in Node", true, "1:2: expected relational left operand"},
		{"Node in (no Node)", true, "1:1: expected relational right operand"},
		{"let a = #Node | some a", true, "1:1: let binds relational values only"},
		{"reaches[Node]", true, "1:1: reaches expects 2 args, got 1"},
		{"some Unknown", true, `1:6: unbound name "Unknown" in instance`},
		{"some x: set Node | some x", true, "1:6: higher-order (set) quantification is not supported"},
		{"some Mark'", true, `1:6: no primed relation "Mark'" in instance`},
		{"all a: Node | a = 1", true, "1:15: mixing Int and relational operands"},
	} {
		e, err := parser.ParseExpr(tt.src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", tt.src, err)
		}
		e = types.RewriteCalls(ev.Mod, e)
		if tt.formula {
			_, err = ev.EvalFormula(e, nil)
		} else {
			_, err = ev.EvalExpr(e, nil)
		}
		if err == nil || err.Error() != tt.want {
			t.Errorf("eval(%q) error = %v, want %s", tt.src, err, tt.want)
		}
	}
}

// TestEvalAllocsFlatInDomain checks that binding a quantified variable
// allocates nothing per tuple: a formula that computes no set costs as many
// allocations over six atoms as over three.
func TestEvalAllocsFlatInDomain(t *testing.T) {
	ev, _ := fixture(t)
	e, err := parser.ParseExpr("all a, b: Node | a in Node and b in Node")
	if err != nil {
		t.Fatal(err)
	}
	var allocs [2]float64
	for i, n := range []int{3, 6} {
		atoms := make([]string, n)
		all := make([]int, n)
		for j := range atoms {
			atoms[j], all[j] = fmt.Sprintf("Node$%d", j), j
		}
		u, err := bounds.NewUniverse(atoms)
		if err != nil {
			t.Fatal(err)
		}
		inst := New(u)
		inst.Rels["Node"] = bounds.UnarySet(all...)
		ev := &Evaluator{Mod: ev.Mod, Inst: inst}
		allocs[i] = testing.AllocsPerRun(50, func() {
			if ok, err := ev.EvalFormula(e, nil); !ok || err != nil {
				t.Fatalf("over %d atoms: %v, %v", n, ok, err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations per evaluation grow with the domain: %v over 3 atoms, %v over 6", allocs[0], allocs[1])
	}
	t.Logf("%v allocations per evaluation", allocs[0])
}

func TestEvalPrimedRelation(t *testing.T) {
	ev, inst := fixture(t)
	next2 := bounds.NewTupleSet(2)
	next2.Add(bounds.Tuple{0, 2})
	inst.Rels["next'"] = next2
	if !evalBool(t, ev, "next' != next") {
		t.Error("primed relation should differ")
	}
	if !evalBool(t, ev, "Mark.next' = Node - Mark - Mark.next") {
		t.Error("primed join misbehaves")
	}
}

func TestInstanceCloneAndString(t *testing.T) {
	_, inst := fixture(t)
	c := inst.Clone()
	c.Rels["Node"] = bounds.UnarySet(0)
	if inst.Rel("Node").Len() != 3 {
		t.Error("clone shares relations")
	}
	s := inst.String()
	if !strings.Contains(s, "next = ") || !strings.Contains(s, "Node$0") {
		t.Errorf("String = %q", s)
	}
}

func TestEvalQuantifierEarlyExit(t *testing.T) {
	// some stops at the first witness even over large domains.
	ev, _ := fixture(t)
	if !evalBool(t, ev, "some a, b, c: Node | a = b and b = c") {
		t.Error("expected witness")
	}
}

func TestEvalBoxJoinOrder(t *testing.T) {
	// f[a, b] = b.(a.f): with a ternary helper relation via product.
	ev, _ := fixture(t)
	// (Node -> next)[m, x] where m picks first column.
	e, err := parser.ParseExpr("some (Mark -> next)[Mark]")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ev.EvalFormula(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("(Mark -> next)[Mark] should be non-empty")
	}
	_ = ast.Module{}
}

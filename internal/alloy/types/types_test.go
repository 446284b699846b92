package types

import (
	"strings"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
)

func mustParse(t *testing.T, src string) *ast.Module {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return mod
}

const hotel = `
abstract sig Key {}
sig RoomKey extends Key {}
sig Room { keys: set Key }
sig Guest { gkeys: set Key }
one sig FrontDesk {
  lastKey: Room -> lone RoomKey,
  occupant: Room -> lone Guest
}
fact HotelInvariant {
  all r: Room | some FrontDesk.lastKey[r]
}
pred checkIn[g: Guest, r: Room, k: RoomKey] {
  no g.gkeys
  FrontDesk.occupant' = FrontDesk.occupant + r->g
}
run checkIn for 3
`

func TestCheckHotel(t *testing.T) {
	mod := mustParse(t, hotel)
	info, err := Check(mod)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(info.SigOrder) != 5 {
		t.Errorf("SigOrder = %v", info.SigOrder)
	}
	lk := info.Fields["lastKey"]
	if lk == nil || lk.Arity != 3 {
		t.Fatalf("lastKey = %+v, want arity 3", lk)
	}
	if got := info.Fields["keys"]; got == nil || got.Arity != 2 {
		t.Errorf("keys = %+v, want arity 2", got)
	}
	if !info.Primed["occupant"] {
		t.Errorf("occupant should be recorded as primed: %v", info.Primed)
	}
	if info.Primed["lastKey"] {
		t.Errorf("lastKey should not be primed")
	}
}

func TestCheckArities(t *testing.T) {
	src := `
sig A { f: set B, g: B -> B }
sig B {}
pred ok[x: A] {
  some x.f
  x.g in B -> B
  #x.f > 1
  one x
}
run ok for 3
`
	mod := mustParse(t, src)
	info, err := CheckTyped(mod)
	if err != nil {
		t.Fatalf("CheckTyped: %v", err)
	}
	pred := mod.LookupPred("ok")
	blk := pred.Body.(*ast.Block)
	// x.g in B -> B: left side binary join of unary and ternary => arity 2.
	cmp := blk.Exprs[1].(*ast.Binary)
	if got := info.TypeOf[cmp.Left]; got.Arity != 2 {
		t.Errorf("x.g arity = %v, want 2", got)
	}
	if got := info.TypeOf[blk.Exprs[2]]; !got.Formula {
		t.Errorf("#x.f > 1 should be a formula, got %v", got)
	}
}

func TestCheckErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"unresolved", `sig A {} fact { some Bogus } run {} for 2`, "unresolved name"},
		{"join underflow", `sig A {} fact { some A.A } run {} for 2`, "underflow"},
		{"arity mismatch union", `sig A { f: set A } fact { some A + f } run {} for 2`, "same-arity"},
		{"transpose unary", `sig A {} fact { some ~A } run {} for 2`, "binary relation"},
		{"closure unary", `sig A {} fact { some ^A } run {} for 2`, "binary relation"},
		{"bad parent", `sig A extends Nope {} run {} for 2`, "unknown parent"},
		{"cycle", `sig A extends B {} sig B extends A {} run {} for 2`, "cycle"},
		{"cycle with sig fact", `sig A extends B {} { some A } sig B extends A {} run {} for 2`, "cycle"},
		{"dup sig", `sig A {} sig A {} run {} for 2`, "duplicate signature"},
		{"formula operand", `sig A {} fact { (some A) + A } run {} for 2`, ""},
		{"int compare rel", `sig A {} fact { A > A } run {} for 2`, "Int operands"},
		{"bad run target", `sig A {} run nope for 2`, "not a predicate"},
		{"bad check target", `sig A {} check nope for 2`, "not an assertion"},
		{"prime non relation", `sig A {} pred p[x: A] { some x' } run p for 2`, "prime"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mod := mustParse(t, tt.src)
			_, err := Check(mod)
			if err == nil {
				t.Fatalf("Check(%q) succeeded, want error", tt.src)
			}
			if tt.want != "" && !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %v, want substring %q", err, tt.want)
			}
		})
	}
}

func TestCheckPredCallRewrite(t *testing.T) {
	src := `
sig A { f: set A }
pred reach[x: A, y: A] { y in x.^f }
pred uses[x: A] { some y: A | reach[x, y] }
run uses for 3
`
	mod := mustParse(t, src)
	low, info, err := Lower(mod)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	found := false
	ast.Walk(low.LookupPred("uses").Body, func(e ast.Expr) bool {
		if c, ok := e.(*ast.Call); ok && c.Name == "reach" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("reach[x, y] was not rewritten to a Call")
	}
	_ = info
	// Original module must be untouched.
	ast.Walk(mod.LookupPred("uses").Body, func(e ast.Expr) bool {
		if _, ok := e.(*ast.Call); ok {
			t.Error("Lower mutated the original module")
		}
		return true
	})
}

func TestCheckArgCount(t *testing.T) {
	src := `
sig A {}
pred two[x: A, y: A] { x = y }
pred bad { some x: A | two[x] }
run bad for 2
`
	mod := mustParse(t, src)
	if _, err := Check(mod); err == nil || !strings.Contains(err.Error(), "expects 2 arguments") {
		t.Errorf("Check err = %v, want arg count error", err)
	}
}

func TestSigFactDesugar(t *testing.T) {
	src := `
sig Node { next: lone Node } { this not in next }
run {} for 3
`
	mod := mustParse(t, src)
	low, info, err := Lower(mod)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	var fact *ast.Fact
	for _, f := range low.Facts {
		if f.Name == "Node$fact" {
			fact = f
		}
	}
	if fact == nil {
		t.Fatalf("sig fact not desugared; facts: %v", len(low.Facts))
	}
	q, ok := fact.Body.(*ast.Quantified)
	if !ok || q.Quant != ast.QuantAll {
		t.Fatalf("desugared fact = %s", printer.Expr(fact.Body))
	}
	_ = info
}

func TestSigFactImplicitField(t *testing.T) {
	// A bare field reference inside a sig fact means this.field.
	src := `
sig Node { next: lone Node } { some next }
run {} for 3
`
	mod := mustParse(t, src)
	low, _, err := Lower(mod)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	var fact *ast.Fact
	for _, f := range low.Facts {
		if f.Name == "Node$fact" {
			fact = f
		}
	}
	if fact == nil {
		t.Fatal("missing desugared fact")
	}
	s := printer.Expr(fact.Body)
	if !strings.Contains(s, "this.next") {
		t.Errorf("implicit field not rewritten to this.next: %s", s)
	}
}

func TestFieldMergeAcrossSigs(t *testing.T) {
	src := `
sig A { keys: set C }
sig B { keys: set C }
sig C {}
fact { all a: A | some a.keys }
run {} for 3
`
	mod := mustParse(t, src)
	info, err := Check(mod)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	f := info.Fields["keys"]
	if f == nil || len(f.Sigs) != 2 {
		t.Fatalf("merged field = %+v, want 2 declaring sigs", f)
	}
}

func TestFieldMergeArityConflict(t *testing.T) {
	src := `
sig A { f: set C }
sig B { f: C -> C }
sig C {}
run {} for 2
`
	mod := mustParse(t, src)
	if _, err := Check(mod); err == nil || !strings.Contains(err.Error(), "redeclared with arity") {
		t.Errorf("err = %v, want arity conflict", err)
	}
}

func TestFunResultArity(t *testing.T) {
	src := `
sig A { f: set A }
fun succ[x: A]: set A { x.f }
fact { all x: A | succ[x] in A }
run {} for 3
`
	mod := mustParse(t, src)
	if _, err := Check(mod); err != nil {
		t.Fatalf("Check: %v", err)
	}
	bad := `
sig A { g: A -> A }
fun h[x: A]: set A { x.g }
run {} for 2
`
	mod = mustParse(t, bad)
	if _, err := Check(mod); err == nil {
		t.Error("want arity mismatch error for fun body")
	}
}

func TestLetAndIfElseTyping(t *testing.T) {
	src := `
sig A { f: set A }
pred p[x: A] {
  let s = x.f | some s
  (some x.f) implies x in A else x not in x.f
}
run p for 3
`
	mod := mustParse(t, src)
	if _, err := Check(mod); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestComprehensionTyping(t *testing.T) {
	src := `
sig A { f: set A }
fact { #{x: A | some x.f} >= 0 }
run {} for 3
`
	mod := mustParse(t, src)
	if _, err := Check(mod); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

package printer

import (
	"strings"
	"testing"

	"specrepair/internal/alloy/ast"
)

func id(name string) *ast.Ident { return &ast.Ident{Name: name} }

func TestExprMinimalParens(t *testing.T) {
	tests := []struct {
		name string
		expr ast.Expr
		want string
	}{
		{
			"left assoc needs no parens",
			&ast.Binary{Op: ast.BinDiff,
				Left:  &ast.Binary{Op: ast.BinDiff, Left: id("a"), Right: id("b")},
				Right: id("c")},
			"a - b - c",
		},
		{
			"right nested diff needs parens",
			&ast.Binary{Op: ast.BinDiff,
				Left:  id("a"),
				Right: &ast.Binary{Op: ast.BinDiff, Left: id("b"), Right: id("c")}},
			"a - (b - c)",
		},
		{
			"union under intersect needs parens",
			&ast.Binary{Op: ast.BinIntersect,
				Left:  &ast.Binary{Op: ast.BinUnion, Left: id("a"), Right: id("b")},
				Right: id("c")},
			"(a + b) & c",
		},
		{
			"join tight",
			&ast.Binary{Op: ast.BinJoin, Left: id("a"),
				Right: &ast.Binary{Op: ast.BinJoin, Left: id("b"), Right: id("c")}},
			"a.(b.c)",
		},
		{
			"transpose over join",
			&ast.Binary{Op: ast.BinJoin,
				Left:  &ast.Unary{Op: ast.UnTranspose, Sub: id("r")},
				Right: id("s")},
			"~r.s",
		},
		{
			"quantified body unparenthesized",
			&ast.Quantified{Quant: ast.QuantAll,
				Decls: []*ast.Decl{{Names: []string{"x"}, Mult: ast.MultDefault, Expr: id("S")}},
				Body:  &ast.Unary{Op: ast.UnSome, Sub: id("x")}},
			"all x: S | some x",
		},
		{
			"quantified as implies operand",
			&ast.Binary{Op: ast.BinImplies,
				Left: &ast.Unary{Op: ast.UnSome, Sub: id("S")},
				Right: &ast.Quantified{Quant: ast.QuantSome,
					Decls: []*ast.Decl{{Names: []string{"x"}, Mult: ast.MultDefault, Expr: id("S")}},
					Body:  &ast.Unary{Op: ast.UnSome, Sub: id("x")}}},
			"some S implies (some x: S | some x)",
		},
		{
			"arrow multiplicities",
			&ast.Binary{Op: ast.BinProduct, Left: id("Room"), Right: id("Key"), RightMult: ast.MultLone},
			"Room -> lone Key",
		},
		{
			"not in",
			&ast.Binary{Op: ast.BinNotIn, Left: id("a"), Right: id("b")},
			"a not in b",
		},
		{
			"at-prefixed ident",
			&ast.Ident{Name: "next", NoImplicit: true},
			"@next",
		},
		{
			"ifelse",
			&ast.IfElse{Cond: &ast.Unary{Op: ast.UnSome, Sub: id("a")},
				Then: &ast.Unary{Op: ast.UnNo, Sub: id("b")},
				Else: &ast.Unary{Op: ast.UnOne, Sub: id("c")}},
			"some a implies no b else one c",
		},
	}
	for _, tt := range tests {
		if got := Expr(tt.expr); got != tt.want {
			t.Errorf("%s: got %q, want %q", tt.name, got, tt.want)
		}
	}
}

func TestModuleLayout(t *testing.T) {
	mod := &ast.Module{
		Name: "demo",
		Sigs: []*ast.Sig{
			{Names: []string{"A"}, Abstract: true},
			{Names: []string{"B"}, Parent: "A", Fields: []*ast.Decl{
				{Names: []string{"f"}, Mult: ast.MultSet, Expr: id("A")},
			}},
		},
		Facts: []*ast.Fact{{Name: "F", Body: &ast.Block{Exprs: []ast.Expr{
			&ast.Unary{Op: ast.UnSome, Sub: id("A")},
		}}}},
		Commands: []*ast.Command{{
			Kind: ast.CmdRun, Name: "F", Target: "",
			Block:  &ast.Block{Exprs: []ast.Expr{&ast.Unary{Op: ast.UnSome, Sub: id("B")}}},
			Scope:  ast.Scope{Default: 3, Exact: map[string]int{"B": 2}},
			Expect: 1,
		}},
	}
	out := Module(mod)
	for _, want := range []string{
		"module demo",
		"abstract sig A {}",
		"sig B extends A {",
		"f: set A",
		"fact F {",
		"some A",
		"run { some B } for 3 but exactly 2 B expect 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("module output missing %q:\n%s", want, out)
		}
	}
}

func TestScopeRendering(t *testing.T) {
	tests := []struct {
		scope ast.Scope
		want  string
	}{
		{ast.Scope{}, ""},
		{ast.Scope{Default: 4}, " for 4"},
		{ast.Scope{Default: 4, PerSig: map[string]int{"A": 2}}, " for 4 but 2 A"},
		{ast.Scope{Exact: map[string]int{"A": 2}, PerSig: map[string]int{"B": 3}}, " for exactly 2 A, 3 B"},
		{ast.Scope{Bitwidth: 5}, " for 5 Int"},
	}
	for _, tt := range tests {
		cmd := &ast.Command{Kind: ast.CmdRun, Name: "show", Target: "show", Scope: tt.scope, Expect: -1}
		if got, want := Command(cmd), "run show"+tt.want; got != want {
			t.Errorf("Command with scope %+v = %q, want %q", tt.scope, got, want)
		}
	}
}

func TestCommandLabel(t *testing.T) {
	cmd := &ast.Command{Kind: ast.CmdCheck, Name: "sanity", Target: "NoSelf", Expect: -1}
	if got := Command(cmd); got != "sanity: check NoSelf" {
		t.Errorf("Command = %q", got)
	}
	cmd2 := &ast.Command{Kind: ast.CmdCheck, Name: "NoSelf", Target: "NoSelf", Expect: -1}
	if got := Command(cmd2); got != "check NoSelf" {
		t.Errorf("Command = %q", got)
	}
}

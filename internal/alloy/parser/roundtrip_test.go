package parser

import (
	"math/rand"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
)

// randomExpr builds a random well-formed formula/expression tree over a
// small vocabulary. Formulas and relational expressions are generated
// separately so the result is always printable and re-parseable.
type exprGen struct {
	rng  *rand.Rand
	vars []string
}

func (g *exprGen) rel(depth int, arity int) ast.Expr {
	if depth <= 0 {
		switch arity {
		case 1:
			names := []string{"A", "B", "C"}
			return &ast.Ident{Name: names[g.rng.Intn(len(names))]}
		default:
			names := []string{"r", "s"}
			return &ast.Ident{Name: names[g.rng.Intn(len(names))]}
		}
	}
	switch g.rng.Intn(7) {
	case 0:
		op := []ast.BinOp{ast.BinUnion, ast.BinDiff, ast.BinIntersect}[g.rng.Intn(3)]
		return &ast.Binary{Op: op, Left: g.rel(depth-1, arity), Right: g.rel(depth-1, arity)}
	case 1:
		if arity == 1 {
			// x.r : join unary with binary
			return &ast.Binary{Op: ast.BinJoin, Left: g.rel(depth-1, 1), Right: g.rel(depth-1, 2)}
		}
		return &ast.Binary{Op: ast.BinJoin, Left: g.rel(depth-1, 2), Right: g.rel(depth-1, 2)}
	case 2:
		if arity == 2 {
			return &ast.Unary{Op: ast.UnTranspose, Sub: g.rel(depth-1, 2)}
		}
		return g.rel(depth-1, arity)
	case 3:
		if arity == 2 {
			op := []ast.UnOp{ast.UnClosure, ast.UnReflClose}[g.rng.Intn(2)]
			return &ast.Unary{Op: op, Sub: g.rel(depth-1, 2)}
		}
		return g.rel(depth-1, arity)
	case 4:
		if arity == 2 {
			return &ast.Binary{Op: ast.BinProduct, Left: g.rel(depth-1, 1), Right: g.rel(depth-1, 1)}
		}
		return g.rel(depth-1, arity)
	case 5:
		if arity == 2 {
			op := []ast.BinOp{ast.BinDomRestr}[0]
			return &ast.Binary{Op: op, Left: g.rel(depth-1, 1), Right: g.rel(depth-1, 2)}
		}
		return &ast.Binary{Op: ast.BinRanRestr, Left: g.rel(depth-1, arity), Right: g.rel(depth-1, 1)}
	default:
		if arity == 2 {
			return &ast.Binary{Op: ast.BinOverride, Left: g.rel(depth-1, 2), Right: g.rel(depth-1, 2)}
		}
		return g.rel(depth-1, arity)
	}
}

func (g *exprGen) formula(depth int) ast.Expr {
	if depth <= 0 {
		op := []ast.UnOp{ast.UnNo, ast.UnSome, ast.UnLone, ast.UnOne}[g.rng.Intn(4)]
		return &ast.Unary{Op: op, Sub: g.rel(1, 1)}
	}
	switch g.rng.Intn(8) {
	case 0:
		op := []ast.BinOp{ast.BinAnd, ast.BinOr, ast.BinImplies, ast.BinIff}[g.rng.Intn(4)]
		return &ast.Binary{Op: op, Left: g.formula(depth - 1), Right: g.formula(depth - 1)}
	case 1:
		return &ast.Unary{Op: ast.UnNot, Sub: g.formula(depth - 1)}
	case 2:
		op := []ast.BinOp{ast.BinIn, ast.BinNotIn, ast.BinEq, ast.BinNotEq}[g.rng.Intn(4)]
		arity := 1 + g.rng.Intn(2)
		return &ast.Binary{Op: op, Left: g.rel(depth-1, arity), Right: g.rel(depth-1, arity)}
	case 3:
		q := []ast.Quant{ast.QuantAll, ast.QuantSome, ast.QuantNo, ast.QuantLone, ast.QuantOne}[g.rng.Intn(5)]
		name := g.vars[g.rng.Intn(len(g.vars))]
		return &ast.Quantified{
			Quant: q,
			Decls: []*ast.Decl{{Names: []string{name}, Mult: ast.MultDefault, Expr: g.rel(depth-1, 1)}},
			Body:  g.formula(depth - 1),
		}
	case 4:
		op := []ast.BinOp{ast.BinGt, ast.BinLt, ast.BinGtEq, ast.BinLtEq, ast.BinEq}[g.rng.Intn(5)]
		return &ast.Binary{
			Op:    op,
			Left:  &ast.Unary{Op: ast.UnCard, Sub: g.rel(depth-1, 1+g.rng.Intn(2))},
			Right: &ast.IntLit{Value: g.rng.Intn(4)},
		}
	case 5:
		return &ast.IfElse{Cond: g.formula(depth - 1), Then: g.formula(depth - 1), Else: g.formula(depth - 1)}
	case 6:
		name := g.vars[g.rng.Intn(len(g.vars))]
		return &ast.Let{Names: []string{name}, Values: []ast.Expr{g.rel(depth-1, 1)},
			Body: g.formula(depth - 1)}
	default:
		op := []ast.UnOp{ast.UnNo, ast.UnSome, ast.UnLone, ast.UnOne}[g.rng.Intn(4)]
		return &ast.Unary{Op: op, Sub: g.rel(depth-1, 1+g.rng.Intn(2))}
	}
}

// TestPrintParseFixpointRandom checks that printing any generated formula
// and re-parsing it yields a tree that prints identically — the printer's
// precedence handling is exactly inverse to the parser's.
func TestPrintParseFixpointRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := &exprGen{rng: rng, vars: []string{"x", "y", "z"}}
	for i := 0; i < 1500; i++ {
		e := g.formula(4)
		printed := printer.Expr(e)
		parsed, err := ParseExpr(printed)
		if err != nil {
			t.Fatalf("iter %d: %q does not re-parse: %v", i, printed, err)
		}
		again := printer.Expr(parsed)
		if printed != again {
			t.Fatalf("iter %d: print/parse not a fixpoint:\n  first:  %q\n  second: %q", i, printed, again)
		}
	}
}

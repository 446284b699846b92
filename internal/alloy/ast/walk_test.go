package ast

import (
	"testing"

	"specrepair/internal/alloy/token"
)

func id(name string) *Ident { return &Ident{Name: name} }

func TestWalkPreOrder(t *testing.T) {
	// some (a + b.c)
	e := &Unary{
		Op: UnSome,
		Sub: &Binary{
			Op:    BinUnion,
			Left:  id("a"),
			Right: &Binary{Op: BinJoin, Left: id("b"), Right: id("c")},
		},
	}
	var names []string
	Walk(e, func(x Expr) bool {
		if i, ok := x.(*Ident); ok {
			names = append(names, i.Name)
		}
		return true
	})
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Errorf("names = %v", names)
	}
	nodes := 0
	Walk(e, func(Expr) bool { nodes++; return true })
	if nodes != 6 {
		t.Errorf("Walk visited %d nodes, want 6", nodes)
	}
}

func TestWalkPrune(t *testing.T) {
	e := &Binary{Op: BinAnd, Left: &Unary{Op: UnSome, Sub: id("x")}, Right: id("y")}
	var seen int
	Walk(e, func(x Expr) bool {
		seen++
		_, isUnary := x.(*Unary)
		return !isUnary // don't descend into the unary
	})
	if seen != 3 { // binary, unary, y — but not x
		t.Errorf("seen = %d, want 3", seen)
	}
}

func TestRewriteReplacesAndPreservesOriginal(t *testing.T) {
	orig := &Binary{Op: BinUnion, Left: id("a"), Right: id("b")}
	out := Rewrite(orig, func(e Expr) Expr {
		if i, ok := e.(*Ident); ok && i.Name == "a" {
			return id("z")
		}
		return e
	})
	ob := out.(*Binary)
	if ob.Left.(*Ident).Name != "z" {
		t.Errorf("rewrite did not replace: %v", ob.Left)
	}
	if orig.Left.(*Ident).Name != "a" {
		t.Errorf("rewrite mutated original")
	}
	if ob.Right != orig.Right {
		t.Errorf("unchanged subtree should be shared")
	}
}

func TestRewritePreservesArrowMults(t *testing.T) {
	orig := &Binary{Op: BinProduct, Left: id("A"), Right: id("B"), RightMult: MultLone}
	out := Rewrite(orig, func(e Expr) Expr {
		if i, ok := e.(*Ident); ok && i.Name == "A" {
			return id("C")
		}
		return e
	})
	if got := out.(*Binary).RightMult; got != MultLone {
		t.Errorf("RightMult = %v, want lone", got)
	}
}

func TestRewriteQuantifiedDecls(t *testing.T) {
	q := &Quantified{
		Quant: QuantAll,
		Decls: []*Decl{{Names: []string{"x"}, Mult: MultDefault, Expr: id("S")}},
		Body:  &Unary{Op: UnSome, Sub: id("x")},
	}
	out := Rewrite(q, func(e Expr) Expr {
		if i, ok := e.(*Ident); ok && i.Name == "S" {
			return id("T")
		}
		return e
	})
	oq := out.(*Quantified)
	if oq.Decls[0].Expr.(*Ident).Name != "T" {
		t.Errorf("decl expr not rewritten")
	}
	if q.Decls[0].Expr.(*Ident).Name != "S" {
		t.Errorf("original decl mutated")
	}
}

func TestModuleLookups(t *testing.T) {
	m := &Module{
		Sigs:    []*Sig{{Names: []string{"A", "B"}}},
		Preds:   []*Pred{{Name: "p"}},
		Funs:    []*Fun{{Name: "f", Result: id("A"), Body: id("A")}},
		Asserts: []*Assert{{Name: "chk", Body: &Block{}}},
	}
	if m.LookupSig("B") == nil || m.LookupSig("C") != nil {
		t.Error("LookupSig broken")
	}
	if m.LookupPred("p") == nil || m.LookupPred("q") != nil {
		t.Error("LookupPred broken")
	}
	if m.LookupFun("f") == nil || m.LookupAssert("chk") == nil {
		t.Error("LookupFun/LookupAssert broken")
	}
}

func TestPosPropagation(t *testing.T) {
	p := token.Pos{Line: 3, Col: 7}
	e := &Unary{Op: UnNo, Sub: id("x"), OpPos: p}
	if e.Pos() != p {
		t.Errorf("Pos = %v", e.Pos())
	}
	b := &Binary{Op: BinEq, Left: &Ident{Name: "a", IdentPos: p}, Right: id("b")}
	if b.Pos() != p {
		t.Errorf("binary Pos = %v", b.Pos())
	}
}

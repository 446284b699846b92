package ast

// The child protocol. NumChildren, Child and WithChild are the only code
// that knows each node type's child layout: the direct sub-expressions of a
// node in source order, declaration bounding expressions counting as
// children and a binder's body (Quantified, Comprehension, Let) coming last.
// Walk, Rewrite and every path-addressed edit go through them.

// NumChildren returns the number of direct sub-expressions of expr.
func NumChildren(expr Expr) int {
	switch e := expr.(type) {
	case *Unary, *Prime:
		return 1
	case *Binary:
		return 2
	case *IfElse:
		return 3
	case *BoxJoin:
		return 1 + len(e.Args)
	case *Quantified:
		return len(e.Decls) + 1
	case *Comprehension:
		return len(e.Decls) + 1
	case *Let:
		return len(e.Values) + 1
	case *Block:
		return len(e.Exprs)
	case *Call:
		return len(e.Args)
	default: // *Ident, *Const, *IntLit
		return 0
	}
}

// Child returns the i-th direct sub-expression of expr, for
// 0 <= i < NumChildren(expr). It does not allocate.
func Child(expr Expr, i int) Expr {
	switch e := expr.(type) {
	case *Unary:
		return e.Sub
	case *Prime:
		return e.Sub
	case *Binary:
		if i == 0 {
			return e.Left
		}
		return e.Right
	case *IfElse:
		switch i {
		case 0:
			return e.Cond
		case 1:
			return e.Then
		}
		return e.Else
	case *BoxJoin:
		if i == 0 {
			return e.Target
		}
		return e.Args[i-1]
	case *Quantified:
		if i < len(e.Decls) {
			return e.Decls[i].Expr
		}
		return e.Body
	case *Comprehension:
		if i < len(e.Decls) {
			return e.Decls[i].Expr
		}
		return e.Body
	case *Let:
		if i < len(e.Values) {
			return e.Values[i]
		}
		return e.Body
	case *Block:
		return e.Exprs[i]
	case *Call:
		return e.Args[i]
	}
	panic("ast: Child of a leaf")
}

// WithChild returns a new node equal to expr except that its i-th direct
// sub-expression is kid, for 0 <= i < NumChildren(expr). Every other child,
// declaration and name is shared with expr, which is left as it is.
func WithChild(expr Expr, i int, kid Expr) Expr {
	switch e := expr.(type) {
	case *Unary:
		c := *e
		c.Sub = kid
		return &c
	case *Prime:
		c := *e
		c.Sub = kid
		return &c
	case *Binary:
		c := *e
		if i == 0 {
			c.Left = kid
		} else {
			c.Right = kid
		}
		return &c
	case *IfElse:
		c := *e
		switch i {
		case 0:
			c.Cond = kid
		case 1:
			c.Then = kid
		default:
			c.Else = kid
		}
		return &c
	case *BoxJoin:
		c := *e
		if i == 0 {
			c.Target = kid
		} else {
			c.Args = withElem(e.Args, i-1, kid)
		}
		return &c
	case *Quantified:
		c := *e
		if i < len(e.Decls) {
			c.Decls = withDeclExpr(e.Decls, i, kid)
		} else {
			c.Body = kid
		}
		return &c
	case *Comprehension:
		c := *e
		if i < len(e.Decls) {
			c.Decls = withDeclExpr(e.Decls, i, kid)
		} else {
			c.Body = kid
		}
		return &c
	case *Let:
		c := *e
		if i < len(e.Values) {
			c.Values = withElem(e.Values, i, kid)
		} else {
			c.Body = kid
		}
		return &c
	case *Block:
		c := *e
		c.Exprs = withElem(e.Exprs, i, kid)
		return &c
	case *Call:
		c := *e
		c.Args = withElem(e.Args, i, kid)
		return &c
	}
	panic("ast: WithChild of a leaf")
}

// withElem returns a copy of list with element i replaced.
func withElem(list []Expr, i int, x Expr) []Expr {
	out := append([]Expr(nil), list...)
	out[i] = x
	return out
}

// withDeclExpr returns a copy of decls whose i-th declaration is a copy
// bounded by x.
func withDeclExpr(decls []*Decl, i int, x Expr) []*Decl {
	out := append([]*Decl(nil), decls...)
	d := *decls[i]
	d.Expr = x
	out[i] = &d
	return out
}

// Walk calls fn for expr and every expression beneath it, in pre-order.
// If fn returns false for a node, its children are not visited.
func Walk(expr Expr, fn func(Expr) bool) {
	if expr == nil || !fn(expr) {
		return
	}
	for i := range NumChildren(expr) {
		Walk(Child(expr, i), fn)
	}
}

// Rewrite applies fn bottom-up to every expression under expr and returns the
// rewritten tree. fn receives each node after its children were rewritten; it
// may return the node unchanged or a replacement. The input tree is not
// modified: parents of replaced children are rebuilt with WithChild, and
// every unchanged subtree is shared.
func Rewrite(expr Expr, fn func(Expr) Expr) Expr {
	if expr == nil {
		return nil
	}
	out := expr
	for i := range NumChildren(expr) {
		kid := Child(expr, i)
		if nk := Rewrite(kid, fn); nk != kid {
			out = WithChild(out, i, nk)
		}
	}
	return fn(out)
}

package mutation

import (
	"sort"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
)

// Engine enumerates sites with scope information and generates candidate
// replacement expressions using the module's checked types.
type Engine struct {
	// Mod is the checked input module with its signature facts desugared
	// (types.Info.Module). It shares paragraphs with the input, so like
	// every module it must not be modified.
	Mod  *ast.Module
	Info *types.Info
	// sites caches the enumeration.
	sites []ScopedSite
}

// ScopedSite is a site plus the quantified variables visible at it.
type ScopedSite struct {
	Site
	// Scope maps visible variable names to their arity.
	Scope map[string]int
	// IsFormula reports whether the node is a boolean formula.
	IsFormula bool
	// Arity is the relational arity when the node is relational (-1 for
	// formulas and integer expressions).
	Arity int
}

// NewEngine type-checks mod, recording per-node types. It returns an error
// when the module does not type-check (nothing can be mutated soundly then).
func NewEngine(mod *ast.Module) (*Engine, error) {
	info, err := types.CheckTyped(mod)
	if err != nil {
		return nil, err
	}
	e := &Engine{Mod: info.Module, Info: info}
	e.enumerate()
	return e, nil
}

func (e *Engine) enumerate() {
	collect := func(c Container, body ast.Expr, baseScope map[string]int) {
		var rec func(x ast.Expr, path []int, scope map[string]int)
		rec = func(x ast.Expr, path []int, scope map[string]int) {
			t, ok := e.Info.TypeOf[x]
			ss := ScopedSite{
				Site:  Site{Container: c, Path: append([]int(nil), path...), Node: x},
				Scope: scope,
				Arity: -1,
			}
			if ok {
				ss.IsFormula = t.Formula
				if !t.Formula && !t.Int {
					ss.Arity = t.Arity
				}
			}
			e.sites = append(e.sites, ss)

			kids := ast.Children(x)
			inner := scope
			// Children that are quantifier bodies see the bound variables.
			switch q := x.(type) {
			case *ast.Quantified:
				// Children are the decl bound expressions (outer scope)
				// followed by the body (inner scope).
				inner = extendScope(e.Info, scope, q.Decls)
				for i, kid := range kids {
					if i == len(kids)-1 {
						rec(kid, append(path, i), inner)
					} else {
						rec(kid, append(path, i), scope)
					}
				}
				return
			case *ast.Comprehension:
				inner = extendScope(e.Info, scope, q.Decls)
				for i, kid := range kids {
					if i == len(kids)-1 {
						rec(kid, append(path, i), inner)
					} else {
						rec(kid, append(path, i), scope)
					}
				}
				return
			case *ast.Let:
				inner = copyScope(scope)
				for i, n := range q.Names {
					if t, ok := e.Info.TypeOf[q.Values[i]]; ok && !t.Formula && !t.Int {
						inner[n] = t.Arity
					}
				}
				for i, kid := range kids {
					if i == len(kids)-1 {
						rec(kid, append(path, i), inner)
					} else {
						rec(kid, append(path, i), scope)
					}
				}
				return
			}
			for i, kid := range kids {
				rec(kid, append(path, i), scope)
			}
		}
		rec(body, nil, baseScope)
	}

	for i, f := range e.Mod.Facts {
		collect(Container{Kind: InFact, Index: i, Name: f.Name}, f.Body, map[string]int{})
	}
	for i, p := range e.Mod.Preds {
		scope := extendScope(e.Info, map[string]int{}, p.Params)
		collect(Container{Kind: InPred, Index: i, Name: p.Name}, p.Body, scope)
	}
	for i, fn := range e.Mod.Funs {
		scope := extendScope(e.Info, map[string]int{}, fn.Params)
		collect(Container{Kind: InFun, Index: i, Name: fn.Name}, fn.Body, scope)
	}
}

func copyScope(s map[string]int) map[string]int {
	out := make(map[string]int, len(s)+2)
	for k, v := range s {
		out[k] = v
	}
	return out
}

func extendScope(info *types.Info, s map[string]int, decls []*ast.Decl) map[string]int {
	out := copyScope(s)
	for _, d := range decls {
		arity := 1
		if t, ok := info.TypeOf[d.Expr]; ok && !t.Formula && !t.Int {
			arity = t.Arity
		}
		for _, n := range d.Names {
			out[n] = arity
		}
	}
	return out
}

// Sites returns all scoped sites, outermost first.
func (e *Engine) Sites() []ScopedSite { return e.sites }

// FormulaSites returns only the formula-valued sites.
func (e *Engine) FormulaSites() []ScopedSite {
	var out []ScopedSite
	for _, s := range e.sites {
		if s.IsFormula {
			out = append(out, s)
		}
	}
	return out
}

// Apply replaces the node at the site in the engine's module, returning a
// fresh module.
func (e *Engine) Apply(s Site, repl ast.Expr) (*ast.Module, error) {
	return Apply(e.Mod, s, repl)
}

// Budget tunes how aggressive candidate generation is.
type Budget int

// Budgets.
const (
	// BudgetOperators flips operators, quantifiers, and negations only.
	BudgetOperators Budget = iota + 1
	// BudgetRelations additionally substitutes same-arity relations and
	// in-scope variables for leaf expressions.
	BudgetRelations
	// BudgetTemplates additionally instantiates small structural templates
	// (union/diff/intersect with another relation, transpose, closures).
	BudgetTemplates
)

// Candidates generates replacement expressions for the node at the site.
// Results are deduplicated, exclude the original expression, and appear in
// deterministic order.
func (e *Engine) Candidates(s ScopedSite, budget Budget) []ast.Expr {
	var out []ast.Expr
	add := func(x ast.Expr) { out = append(out, x) }

	node := s.Node
	switch x := node.(type) {
	case *ast.Binary:
		for _, op := range swapOps(x.Op) {
			add(&ast.Binary{Op: op, Left: x.Left.CloneExpr(), Right: x.Right.CloneExpr(),
				LeftMult: x.LeftMult, RightMult: x.RightMult})
		}
		// Operand swap for non-commutative relational operators.
		switch x.Op {
		case ast.BinDiff, ast.BinJoin, ast.BinIn, ast.BinNotIn:
			add(&ast.Binary{Op: x.Op, Left: x.Right.CloneExpr(), Right: x.Left.CloneExpr()})
		}
	case *ast.Unary:
		for _, op := range swapUnary(x.Op) {
			add(&ast.Unary{Op: op, Sub: x.Sub.CloneExpr(), OpPos: x.OpPos})
		}
		if x.Op == ast.UnNot {
			add(x.Sub.CloneExpr()) // drop negation
		}
		if x.Op == ast.UnClosure || x.Op == ast.UnReflClose || x.Op == ast.UnTranspose {
			add(x.Sub.CloneExpr()) // drop the operator
		}
	case *ast.Quantified:
		for _, q := range []ast.Quant{ast.QuantAll, ast.QuantSome, ast.QuantNo, ast.QuantLone, ast.QuantOne} {
			if q == x.Quant {
				continue
			}
			c := x.CloneExpr().(*ast.Quantified)
			c.Quant = q
			add(c)
		}
	case *ast.IntLit:
		add(&ast.IntLit{Value: x.Value + 1, IntPos: x.IntPos})
		if x.Value > 0 {
			add(&ast.IntLit{Value: x.Value - 1, IntPos: x.IntPos})
		}
	}

	if s.IsFormula {
		if _, isNot := node.(*ast.Unary); !isNot {
			add(&ast.Unary{Op: ast.UnNot, Sub: node.CloneExpr()})
		}
	}

	if budget >= BudgetRelations && s.Arity >= 1 {
		orig := printer.Expr(node)
		for _, rel := range relationsOfArity(e.Info, s.Arity) {
			if rel != orig {
				add(&ast.Ident{Name: rel})
			}
		}
		var vars []string
		for v, arity := range s.Scope {
			if arity == s.Arity {
				vars = append(vars, v)
			}
		}
		sort.Strings(vars)
		for _, v := range vars {
			if v != orig {
				add(&ast.Ident{Name: v})
			}
		}
	}

	if budget >= BudgetTemplates && s.IsFormula {
		// Membership templates: a multiplicity formula "no e" is often an
		// over-restriction of the intended "x not in e" for some variable
		// in scope (the paper's hotel bug is exactly this shape) — and the
		// reverse, so the template space is closed under inversion.
		if u, ok := node.(*ast.Unary); ok {
			switch u.Op {
			case ast.UnNo, ast.UnSome, ast.UnLone, ast.UnOne:
				if t, ok := e.Info.TypeOf[u.Sub]; ok && !t.Formula && !t.Int && t.Arity == 1 {
					var vars []string
					for v, arity := range s.Scope {
						if arity == 1 {
							vars = append(vars, v)
						}
					}
					sort.Strings(vars)
					for _, v := range vars {
						add(&ast.Binary{Op: ast.BinIn, Left: &ast.Ident{Name: v}, Right: u.Sub.CloneExpr()})
						add(&ast.Binary{Op: ast.BinNotIn, Left: &ast.Ident{Name: v}, Right: u.Sub.CloneExpr()})
					}
				}
			}
		}
		if b, ok := node.(*ast.Binary); ok && (b.Op == ast.BinIn || b.Op == ast.BinNotIn) {
			if _, isVar := b.Left.(*ast.Ident); isVar {
				if t, ok := e.Info.TypeOf[b.Right]; ok && !t.Formula && !t.Int && t.Arity == 1 {
					for _, op := range []ast.UnOp{ast.UnNo, ast.UnSome, ast.UnLone, ast.UnOne} {
						add(&ast.Unary{Op: op, Sub: b.Right.CloneExpr()})
					}
				}
			}
		}
	}

	if budget >= BudgetTemplates && s.Arity >= 1 {
		if s.Arity == 2 {
			add(&ast.Unary{Op: ast.UnTranspose, Sub: node.CloneExpr()})
			add(&ast.Unary{Op: ast.UnClosure, Sub: node.CloneExpr()})
		}
		for _, rel := range relationsOfArity(e.Info, s.Arity) {
			r := &ast.Ident{Name: rel}
			add(&ast.Binary{Op: ast.BinUnion, Left: node.CloneExpr(), Right: r})
			add(&ast.Binary{Op: ast.BinDiff, Left: node.CloneExpr(), Right: r})
			add(&ast.Binary{Op: ast.BinIntersect, Left: node.CloneExpr(), Right: r})
		}
		for v, arity := range s.Scope {
			if arity == s.Arity {
				r := &ast.Ident{Name: v}
				add(&ast.Binary{Op: ast.BinUnion, Left: node.CloneExpr(), Right: r})
				add(&ast.Binary{Op: ast.BinDiff, Left: node.CloneExpr(), Right: r})
			}
		}
	}

	// Deduplicate by canonical printing, drop the original, and order by
	// the printed form. Keys are unique after deduplication, so sorting on
	// them needs no tie-break.
	type keyed struct {
		key  string
		expr ast.Expr
	}
	seen := map[string]bool{printer.Expr(node): true}
	var uniq []keyed
	for _, c := range out {
		key := printer.Expr(c)
		if seen[key] {
			continue
		}
		seen[key] = true
		uniq = append(uniq, keyed{key, c})
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].key < uniq[j].key })
	exprs := make([]ast.Expr, len(uniq))
	for i, u := range uniq {
		exprs[i] = u.expr
	}
	return exprs
}

func swapOps(op ast.BinOp) []ast.BinOp {
	classes := [][]ast.BinOp{
		{ast.BinAnd, ast.BinOr, ast.BinImplies, ast.BinIff},
		{ast.BinIn, ast.BinNotIn},
		{ast.BinEq, ast.BinNotEq},
		{ast.BinLt, ast.BinGt, ast.BinLtEq, ast.BinGtEq},
		{ast.BinUnion, ast.BinDiff, ast.BinIntersect},
	}
	for _, class := range classes {
		for _, c := range class {
			if c == op {
				var out []ast.BinOp
				for _, o := range class {
					if o != op {
						out = append(out, o)
					}
				}
				return out
			}
		}
	}
	return nil
}

func swapUnary(op ast.UnOp) []ast.UnOp {
	switch op {
	case ast.UnNo, ast.UnSome, ast.UnLone, ast.UnOne:
		var out []ast.UnOp
		for _, o := range []ast.UnOp{ast.UnNo, ast.UnSome, ast.UnLone, ast.UnOne} {
			if o != op {
				out = append(out, o)
			}
		}
		return out
	case ast.UnClosure:
		return []ast.UnOp{ast.UnReflClose}
	case ast.UnReflClose:
		return []ast.UnOp{ast.UnClosure}
	default:
		return nil
	}
}

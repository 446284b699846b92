// Package types implements name resolution and arity checking for the Alloy
// subset, plus lowering of a module into the form consumed by the analyzer.
//
// The checker is arity-based rather than implementing Alloy's full relational
// type system: it resolves every identifier, verifies operator arity
// compatibility, rewrites bracket applications of predicates and functions
// into Call nodes, and desugars appended signature facts. That is sufficient
// for bounded analysis, for the repair tools (which need to know the arity
// and kind of every node they mutate), and for the similarity metrics.
//
// One documented deviation from Alloy: fields sharing a name across
// signatures denote a single relation whose domain is the union of the
// declaring signatures (Alloy overloads them as distinct relations resolved
// by type). Joined access — g.keys, r.keys — behaves identically under both
// readings for well-typed models.
package types

import (
	"errors"
	"fmt"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/token"
)

// Type describes the checked type of an expression.
type Type struct {
	Arity   int  // relational arity; 0 when Formula or Int
	Formula bool // boolean formula
	Int     bool // integer expression
}

// Rel returns a relational type of the given arity.
func Rel(arity int) Type { return Type{Arity: arity} }

// FormulaType is the type of boolean formulas.
var FormulaType = Type{Formula: true}

// IntType is the type of integer expressions.
var IntType = Type{Int: true}

// String renders the type for diagnostics.
func (t Type) String() string {
	switch {
	case t.Formula:
		return "formula"
	case t.Int:
		return "Int"
	default:
		return fmt.Sprintf("rel/%d", t.Arity)
	}
}

// Field describes a (possibly merged) field relation.
type Field struct {
	Name  string
	Sigs  []string // declaring signatures, in declaration order
	Arity int      // total arity including the implicit source column
	Decls []*ast.Decl
}

// Info is the result of checking a module.
type Info struct {
	// Module is the checked module with its signature facts desugared: the
	// input itself when it has none, otherwise a copy that shares every
	// paragraph except the signatures that carried a fact, and appends one
	// "S$fact" fact per such signature name.
	Module *ast.Module
	Sigs   map[string]*ast.Sig
	// SigOrder lists signature names in declaration order.
	SigOrder []string
	Fields   map[string]*Field
	// FieldOrder lists field names in first-declaration order.
	FieldOrder []string
	// TypeOf maps every checked expression node of Module to its type. Only
	// CheckTyped fills it; it is nil after Check and Lower.
	TypeOf map[ast.Expr]Type
	// Primed lists the names of relations that appear primed anywhere in
	// the module; the analyzer allocates shadow relations for them.
	Primed map[string]bool
}

// CheckError is a type-check error with a position.
type CheckError struct {
	Pos token.Pos
	Msg string
}

// Error implements error.
func (e *CheckError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return e.Msg
}

type checker struct {
	mod  *ast.Module
	info *Info
	errs []error
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &CheckError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Check resolves and arity-checks the module. It never modifies mod:
// appended signature facts are desugared into the returned Info's Module
// (see Info.Module), and bracket applications of predicates and functions
// are left as they are (Lower rewrites them into Call nodes).
func Check(mod *ast.Module) (*Info, error) {
	return check(mod, nil)
}

// CheckTyped is Check that also records the type of every expression node
// in Info.TypeOf, for callers that read per-node types.
func CheckTyped(mod *ast.Module) (*Info, error) {
	return check(mod, map[ast.Expr]Type{})
}

// check runs the checker; a non-nil typeOf switches on per-node recording.
func check(mod *ast.Module, typeOf map[ast.Expr]Type) (*Info, error) {
	c := &checker{
		mod: mod,
		info: &Info{
			Module: mod,
			Sigs:   map[string]*ast.Sig{},
			Fields: map[string]*Field{},
			TypeOf: typeOf,
			Primed: map[string]bool{},
		},
	}
	c.collectSigs()
	c.collectFields()
	if len(c.errs) > 0 {
		// Desugaring walks extends chains, which may be cyclic here.
		return c.info, errors.Join(c.errs...)
	}
	c.desugarSigFacts()
	c.checkParagraphs()
	if len(c.errs) > 0 {
		return c.info, errors.Join(c.errs...)
	}
	return c.info, nil
}

func (c *checker) collectSigs() {
	for _, s := range c.mod.Sigs {
		for _, name := range s.Names {
			if _, dup := c.info.Sigs[name]; dup {
				c.errorf(s.Pos(), "duplicate signature %q", name)
				continue
			}
			c.info.Sigs[name] = s
			c.info.SigOrder = append(c.info.SigOrder, name)
		}
	}
	// Validate parents and detect extends cycles.
	for _, s := range c.mod.Sigs {
		if s.Parent != "" {
			if _, ok := c.info.Sigs[s.Parent]; !ok {
				c.errorf(s.Pos(), "unknown parent signature %q", s.Parent)
			}
		}
		for _, sup := range s.Subset {
			if _, ok := c.info.Sigs[sup]; !ok {
				c.errorf(s.Pos(), "unknown superset signature %q", sup)
			}
		}
	}
	for name := range c.info.Sigs {
		seen := map[string]bool{}
		cur := name
		for cur != "" {
			if seen[cur] {
				c.errorf(c.info.Sigs[name].Pos(), "signature extends cycle involving %q", name)
				break
			}
			seen[cur] = true
			parent := c.info.Sigs[cur]
			if parent == nil {
				break
			}
			cur = parent.Parent
		}
	}
}

func (c *checker) collectFields() {
	n := 0
	for _, s := range c.mod.Sigs {
		for _, fd := range s.Fields {
			n += len(fd.Names)
		}
	}
	if n > 0 {
		c.info.FieldOrder = make([]string, 0, n)
	}
	for _, s := range c.mod.Sigs {
		for _, fd := range s.Fields {
			ft := c.checkExpr(fd.Expr, nil)
			if ft.Formula || ft.Int {
				c.errorf(fd.Pos(), "field range must be relational, got %s", ft)
				continue
			}
			arity := 1 + ft.Arity
			for _, owner := range s.Names {
				for _, fname := range fd.Names {
					f := c.info.Fields[fname]
					if f == nil {
						f = &Field{Name: fname, Arity: arity}
						c.info.Fields[fname] = f
						c.info.FieldOrder = append(c.info.FieldOrder, fname)
					}
					if f.Arity != arity {
						c.errorf(fd.Pos(), "field %q redeclared with arity %d (was %d)", fname, arity, f.Arity)
						continue
					}
					f.Sigs = append(f.Sigs, owner)
					f.Decls = append(f.Decls, fd)
				}
			}
		}
	}
}

// desugarSigFacts rewrites each appended signature fact into an ordinary
// fact "all this: S | body", with bare references to S's own fields f
// replaced by this.f. The input module is left alone: the result is a copy
// with its own Sigs and Facts slices and a fact-less copy of each such
// signature, which becomes c.mod and Info.Module.
func (c *checker) desugarSigFacts() {
	var sigs []*ast.Sig
	var facts []*ast.Fact
	for i, s := range c.mod.Sigs {
		if s.Fact == nil {
			continue
		}
		if sigs == nil {
			sigs = append([]*ast.Sig(nil), c.mod.Sigs...)
			facts = append([]*ast.Fact(nil), c.mod.Facts...)
		}
		own := map[string]bool{}
		for cur := s; cur != nil; cur = c.info.Sigs[cur.Parent] {
			for _, fd := range cur.Fields {
				for _, n := range fd.Names {
					own[n] = true
				}
			}
			if cur.Parent == "" {
				break
			}
		}
		body := ast.Rewrite(s.Fact, func(e ast.Expr) ast.Expr {
			id, ok := e.(*ast.Ident)
			if !ok || !own[id.Name] || id.NoImplicit {
				return e
			}
			return &ast.Binary{
				Op:    ast.BinJoin,
				Left:  &ast.Ident{Name: "this", IdentPos: id.IdentPos},
				Right: id,
			}
		})
		for _, name := range s.Names {
			fact := &ast.Fact{
				Name: name + "$fact",
				Body: &ast.Quantified{
					Quant: ast.QuantAll,
					Decls: []*ast.Decl{{
						Names: []string{"this"},
						Mult:  ast.MultDefault,
						Expr:  &ast.Ident{Name: name, IdentPos: s.Pos()},
					}},
					Body:     body.CloneExpr(),
					QuantPos: s.Pos(),
				},
				FactPos: s.Pos(),
			}
			facts = append(facts, fact)
		}
		bare := *s
		bare.Fact = nil
		sigs[i] = &bare
		for _, name := range s.Names {
			if c.info.Sigs[name] == s {
				c.info.Sigs[name] = &bare
			}
		}
	}
	if sigs == nil {
		return
	}
	mod := *c.mod
	mod.Sigs, mod.Facts = sigs, facts
	c.mod, c.info.Module = &mod, &mod
}

func (c *checker) checkParagraphs() {
	for _, f := range c.mod.Facts {
		c.requireFormula(f.Body, nil, "fact body")
	}
	for _, p := range c.mod.Preds {
		env := c.paramEnv(p.Params)
		c.requireFormula(p.Body, env, "predicate body")
	}
	for _, f := range c.mod.Funs {
		env := c.paramEnv(f.Params)
		rt := c.checkExpr(f.Result, nil)
		bt := c.checkExpr(f.Body, env)
		if !rt.Formula && !bt.Formula && !rt.Int && !bt.Int && rt.Arity != bt.Arity {
			c.errorf(f.Pos(), "function %s body arity %d does not match declared result arity %d",
				f.Name, bt.Arity, rt.Arity)
		}
	}
	for _, a := range c.mod.Asserts {
		c.requireFormula(a.Body, nil, "assertion body")
	}
	for _, cmd := range c.mod.Commands {
		switch cmd.Kind {
		case ast.CmdRun:
			if cmd.Target != "" && c.mod.LookupPred(cmd.Target) == nil {
				c.errorf(cmd.Pos(), "run target %q is not a predicate", cmd.Target)
			}
		case ast.CmdCheck:
			if cmd.Target != "" && c.mod.LookupAssert(cmd.Target) == nil {
				c.errorf(cmd.Pos(), "check target %q is not an assertion", cmd.Target)
			}
		}
		if cmd.Block != nil {
			c.requireFormula(cmd.Block, nil, "command block")
		}
	}
}

func (c *checker) paramEnv(params []*ast.Decl) map[string]Type {
	env := map[string]Type{}
	for _, d := range params {
		t := c.checkExpr(d.Expr, env)
		if t.Formula || t.Int {
			c.errorf(d.Pos(), "parameter bound must be relational, got %s", t)
			t = Rel(1)
		}
		for _, n := range d.Names {
			env[n] = Rel(t.Arity)
		}
	}
	return env
}

func (c *checker) requireFormula(e ast.Expr, env map[string]Type, what string) {
	t := c.checkExpr(e, env)
	if !t.Formula {
		c.errorf(e.Pos(), "%s must be a formula, got %s", what, t)
	}
}

func copyEnv(env map[string]Type) map[string]Type {
	out := make(map[string]Type, len(env)+2)
	for k, v := range env {
		out[k] = v
	}
	return out
}

// checkExpr types e under env, the variables in scope. env is only read
// (binders extend a copy), so a nil env is the empty scope.
func (c *checker) checkExpr(e ast.Expr, env map[string]Type) Type {
	t := c.check(e, env)
	if c.info.TypeOf != nil {
		c.info.TypeOf[e] = t
	}
	return t
}

func (c *checker) check(e ast.Expr, env map[string]Type) Type {
	switch x := e.(type) {
	case *ast.Ident:
		if t, ok := env[x.Name]; ok {
			return t
		}
		if _, ok := c.info.Sigs[x.Name]; ok {
			return Rel(1)
		}
		if f, ok := c.info.Fields[x.Name]; ok {
			return Rel(f.Arity)
		}
		if x.Name == "Int" {
			return Rel(1)
		}
		c.errorf(x.Pos(), "unresolved name %q", x.Name)
		return Rel(1)
	case *ast.Const:
		switch x.Kind {
		case ast.ConstNone, ast.ConstUniv:
			return Rel(1)
		default:
			return Rel(2)
		}
	case *ast.IntLit:
		return IntType
	case *ast.Prime:
		id, ok := x.Sub.(*ast.Ident)
		if !ok {
			c.errorf(x.Pos(), "prime (') applies only to relation names")
			return c.checkExpr(x.Sub, env)
		}
		t := c.checkExpr(x.Sub, env)
		_, isVar := env[id.Name]
		_, isSig := c.info.Sigs[id.Name]
		_, isField := c.info.Fields[id.Name]
		if !isVar && (isSig || isField) {
			c.info.Primed[id.Name] = true
		} else {
			c.errorf(x.Pos(), "prime (') applies only to signatures and fields, not %q", id.Name)
		}
		return t
	case *ast.Unary:
		return c.checkUnary(x, env)
	case *ast.Binary:
		return c.checkBinary(x, env)
	case *ast.BoxJoin:
		// Pred/fun application?
		if id, ok := x.Target.(*ast.Ident); ok {
			if _, isVar := env[id.Name]; !isVar {
				if p := c.mod.LookupPred(id.Name); p != nil {
					return c.checkApply(id, x.Args, len(flatParams(p.Params)), env, FormulaType)
				}
				if f := c.mod.LookupFun(id.Name); f != nil {
					rt := c.checkExpr(f.Result, nil)
					return c.checkApply(id, x.Args, len(flatParams(f.Params)), env, rt)
				}
			}
		}
		t := c.checkExpr(x.Target, env)
		for _, a := range x.Args {
			at := c.checkExpr(a, env)
			if at.Formula || at.Int {
				c.errorf(a.Pos(), "box join argument must be relational, got %s", at)
				return Rel(1)
			}
			if t.Formula || t.Int {
				c.errorf(x.Pos(), "cannot apply box join to %s", t)
				return Rel(1)
			}
			na := t.Arity + at.Arity - 2
			if na < 1 {
				c.errorf(x.Pos(), "box join arity underflow")
				return Rel(1)
			}
			t = Rel(na)
		}
		return t
	case *ast.Call:
		// Already rewritten; re-check args.
		if p := c.mod.LookupPred(x.Name); p != nil {
			for _, a := range x.Args {
				c.checkExpr(a, env)
			}
			return FormulaType
		}
		if f := c.mod.LookupFun(x.Name); f != nil {
			for _, a := range x.Args {
				c.checkExpr(a, env)
			}
			return c.checkExpr(f.Result, nil)
		}
		c.errorf(x.Pos(), "unresolved call target %q", x.Name)
		return FormulaType
	case *ast.Quantified:
		inner := copyEnv(env)
		for _, d := range x.Decls {
			bt := c.checkExpr(d.Expr, inner)
			if bt.Formula || bt.Int {
				c.errorf(d.Pos(), "quantifier bound must be relational, got %s", bt)
				bt = Rel(1)
			}
			for _, n := range d.Names {
				inner[n] = Rel(bt.Arity)
			}
		}
		c.requireFormula(x.Body, inner, "quantified body")
		return FormulaType
	case *ast.Comprehension:
		inner := copyEnv(env)
		total := 0
		for _, d := range x.Decls {
			bt := c.checkExpr(d.Expr, inner)
			if bt.Formula || bt.Int || bt.Arity != 1 {
				c.errorf(d.Pos(), "comprehension binds unary variables, got %s", bt)
				bt = Rel(1)
			}
			for _, n := range d.Names {
				inner[n] = Rel(1)
				total++
			}
		}
		c.requireFormula(x.Body, inner, "comprehension body")
		return Rel(total)
	case *ast.Let:
		inner := copyEnv(env)
		for i, n := range x.Names {
			inner[n] = c.checkExpr(x.Values[i], env)
		}
		return c.checkExpr(x.Body, inner)
	case *ast.IfElse:
		c.requireFormula(x.Cond, env, "condition")
		tt := c.checkExpr(x.Then, env)
		et := c.checkExpr(x.Else, env)
		switch {
		case tt.Formula && et.Formula:
			return FormulaType
		case tt.Int && et.Int:
			return IntType
		case !tt.Formula && !et.Formula && !tt.Int && !et.Int && tt.Arity == et.Arity:
			return tt
		default:
			c.errorf(x.Pos(), "if-else branches have incompatible types %s and %s", tt, et)
			return FormulaType
		}
	case *ast.Block:
		for _, sub := range x.Exprs {
			c.requireFormula(sub, env, "block element")
		}
		return FormulaType
	default:
		c.errorf(e.Pos(), "unsupported expression %T", e)
		return FormulaType
	}
}

func flatParams(params []*ast.Decl) []string {
	var names []string
	for _, d := range params {
		names = append(names, d.Names...)
	}
	return names
}

// checkApply validates a bracket application of a predicate or function and
// returns its result type. The BoxJoin node itself stays; Lower's
// RewriteCalls turns it into a Call.
func (c *checker) checkApply(id *ast.Ident, args []ast.Expr, want int, env map[string]Type, result Type) Type {
	if len(args) != want {
		c.errorf(id.Pos(), "%s expects %d arguments, got %d", id.Name, want, len(args))
	}
	for _, a := range args {
		at := c.checkExpr(a, env)
		if at.Formula {
			c.errorf(a.Pos(), "argument to %s must be an expression", id.Name)
		}
	}
	return result
}

// RewriteCalls returns a copy of expr with every bracket application whose
// target names a predicate or function of mod rewritten into a Call node.
func RewriteCalls(mod *ast.Module, expr ast.Expr) ast.Expr {
	return ast.Rewrite(expr, func(e ast.Expr) ast.Expr {
		bj, ok := e.(*ast.BoxJoin)
		if !ok {
			return e
		}
		id, ok := bj.Target.(*ast.Ident)
		if !ok {
			return e
		}
		if mod.LookupPred(id.Name) == nil && mod.LookupFun(id.Name) == nil {
			return e
		}
		return &ast.Call{Name: id.Name, Args: bj.Args, NamePos: id.Pos()}
	})
}

// Lower desugars signature facts, rewrites pred/fun bracket applications
// into Call nodes everywhere, checks the result, and returns the lowered
// module with its Info. It never modifies mod: a paragraph is copied only
// when its body holds a call or it is a signature with a fact, and every
// other paragraph of the lowered module is mod's own, by pointer.
func Lower(mod *ast.Module) (*ast.Module, *Info, error) {
	low := *mod
	low.Sigs = lowerEach(mod, mod.Sigs, func(s *ast.Sig) *ast.Expr { return &s.Fact })
	low.Facts = lowerEach(mod, mod.Facts, func(f *ast.Fact) *ast.Expr { return &f.Body })
	low.Preds = lowerEach(mod, mod.Preds, func(p *ast.Pred) *ast.Expr { return &p.Body })
	low.Funs = lowerEach(mod, mod.Funs, func(fn *ast.Fun) *ast.Expr { return &fn.Body })
	low.Asserts = lowerEach(mod, mod.Asserts, func(a *ast.Assert) *ast.Expr { return &a.Body })
	low.Commands = lowerEach(mod, mod.Commands, func(cmd *ast.Command) *ast.Expr { return &cmd.Block })
	info, err := Check(&low)
	if err != nil {
		return nil, nil, err
	}
	return info.Module, info, nil
}

// lowerEach returns list with every paragraph whose body (the field that
// body points into) holds a call replaced by a copy with the calls
// rewritten. The list is copied on the first replacement; neither it nor
// its paragraphs are written.
func lowerEach[T any](mod *ast.Module, list []*T, body func(*T) *ast.Expr) []*T {
	out, copied := list, false
	for i, p := range list {
		old := *body(p)
		rewritten := RewriteCalls(mod, old)
		if rewritten == old {
			continue
		}
		if !copied {
			out, copied = append([]*T(nil), list...), true
		}
		np := *p
		*body(&np) = rewritten
		out[i] = &np
	}
	return out
}

// checkUnary and checkBinary are split out to keep check readable.

func (c *checker) checkUnary(x *ast.Unary, env map[string]Type) Type {
	st := c.checkExpr(x.Sub, env)
	switch x.Op {
	case ast.UnTranspose:
		if st.Arity != 2 || st.Formula || st.Int {
			c.errorf(x.Pos(), "transpose requires a binary relation, got %s", st)
		}
		return Rel(2)
	case ast.UnClosure, ast.UnReflClose:
		if st.Arity != 2 || st.Formula || st.Int {
			c.errorf(x.Pos(), "closure requires a binary relation, got %s", st)
		}
		return Rel(2)
	case ast.UnCard:
		if st.Formula || st.Int {
			c.errorf(x.Pos(), "cardinality requires a relational expression, got %s", st)
		}
		return IntType
	case ast.UnNot:
		if !st.Formula {
			c.errorf(x.Pos(), "not requires a formula, got %s", st)
		}
		return FormulaType
	case ast.UnNo, ast.UnSome, ast.UnLone, ast.UnOne, ast.UnSet:
		if st.Formula || st.Int {
			c.errorf(x.Pos(), "%s requires a relational expression, got %s", x.Op, st)
		}
		return FormulaType
	default:
		c.errorf(x.Pos(), "unknown unary operator")
		return FormulaType
	}
}

func (c *checker) checkBinary(x *ast.Binary, env map[string]Type) Type {
	lt := c.checkExpr(x.Left, env)
	rt := c.checkExpr(x.Right, env)
	rel := func(t Type) bool { return !t.Formula && !t.Int }
	switch x.Op {
	case ast.BinJoin:
		if !rel(lt) || !rel(rt) {
			c.errorf(x.Pos(), "join requires relational operands, got %s and %s", lt, rt)
			return Rel(1)
		}
		n := lt.Arity + rt.Arity - 2
		if n < 1 {
			c.errorf(x.Pos(), "join of arity %d and %d underflows", lt.Arity, rt.Arity)
			return Rel(1)
		}
		return Rel(n)
	case ast.BinProduct:
		if !rel(lt) || !rel(rt) {
			c.errorf(x.Pos(), "product requires relational operands, got %s and %s", lt, rt)
			return Rel(2)
		}
		return Rel(lt.Arity + rt.Arity)
	case ast.BinUnion, ast.BinDiff, ast.BinIntersect, ast.BinOverride:
		if !rel(lt) || !rel(rt) || lt.Arity != rt.Arity {
			c.errorf(x.Pos(), "%s requires same-arity relational operands, got %s and %s", x.Op, lt, rt)
			return lt
		}
		return lt
	case ast.BinDomRestr:
		if !rel(lt) || lt.Arity != 1 || !rel(rt) {
			c.errorf(x.Pos(), "domain restriction requires set <: relation, got %s and %s", lt, rt)
		}
		return rt
	case ast.BinRanRestr:
		if !rel(rt) || rt.Arity != 1 || !rel(lt) {
			c.errorf(x.Pos(), "range restriction requires relation :> set, got %s and %s", lt, rt)
		}
		return lt
	case ast.BinIn, ast.BinNotIn:
		if !rel(lt) || !rel(rt) || lt.Arity != rt.Arity {
			c.errorf(x.Pos(), "in requires same-arity relational operands, got %s and %s", lt, rt)
		}
		return FormulaType
	case ast.BinEq, ast.BinNotEq:
		switch {
		case lt.Int && rt.Int:
			return FormulaType
		case rel(lt) && rel(rt) && lt.Arity == rt.Arity:
			return FormulaType
		default:
			c.errorf(x.Pos(), "= requires comparable operands, got %s and %s", lt, rt)
			return FormulaType
		}
	case ast.BinLt, ast.BinGt, ast.BinLtEq, ast.BinGtEq:
		if !lt.Int || !rt.Int {
			c.errorf(x.Pos(), "integer comparison requires Int operands, got %s and %s", lt, rt)
		}
		return FormulaType
	case ast.BinAnd, ast.BinOr, ast.BinImplies, ast.BinIff:
		if !lt.Formula || !rt.Formula {
			c.errorf(x.Pos(), "%s requires formula operands, got %s and %s", x.Op, lt, rt)
		}
		return FormulaType
	default:
		c.errorf(x.Pos(), "unknown binary operator")
		return FormulaType
	}
}

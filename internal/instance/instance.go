// Package instance represents concrete relational instances (models or
// counterexamples found by the analyzer) and provides a big-step evaluator
// for arbitrary expressions and formulas against an instance. The evaluator
// is what AUnit test execution, ICEBAR's counterexample checks, and ATR's
// instance difference analysis are built on.
package instance

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/bounds"
)

// Instance is a concrete valuation of every relation over a universe.
type Instance struct {
	Universe *bounds.Universe
	Rels     map[string]bounds.TupleSet
}

// New returns an empty instance over the universe.
func New(u *bounds.Universe) *Instance {
	return &Instance{Universe: u, Rels: map[string]bounds.TupleSet{}}
}

// Clone returns a copy whose Rels map is independent of the original's.
// Tuple sets are immutable values, so the copy shares them.
func (in *Instance) Clone() *Instance {
	c := &Instance{Universe: in.Universe, Rels: make(map[string]bounds.TupleSet, len(in.Rels))}
	maps.Copy(c.Rels, in.Rels)
	return c
}

// Rel returns the tuple set of the named relation (empty if absent).
func (in *Instance) Rel(name string) bounds.TupleSet {
	if ts, ok := in.Rels[name]; ok {
		return ts
	}
	return bounds.TupleSet{}
}

// String renders the instance deterministically for diagnostics and test
// oracles.
func (in *Instance) String() string {
	names := make([]string, 0, len(in.Rels))
	for n := range in.Rels {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s = %s\n", n, in.Rels[n].String(in.Universe))
	}
	return b.String()
}

// Env maps bound variable names to their values.
type Env map[string]bounds.TupleSet

// clone copies the environment.
func (e Env) clone() Env {
	out := make(Env, len(e)+2)
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Evaluator evaluates expressions against an instance. Mod must be a lowered
// module (predicate and function applications rewritten to Call nodes) so
// that calls can be inlined by parameter binding.
type Evaluator struct {
	Mod  *ast.Module
	Inst *Instance
}

// EvalFormula evaluates a formula to a boolean.
func (ev *Evaluator) EvalFormula(e ast.Expr, env Env) (bool, error) {
	if env == nil {
		env = Env{}
	}
	v, err := ev.eval(e, env)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("%s: expected formula, evaluated to %T", pos(e), v)
	}
	return b, nil
}

// EvalExpr evaluates a relational expression to a tuple set.
func (ev *Evaluator) EvalExpr(e ast.Expr, env Env) (bounds.TupleSet, error) {
	if env == nil {
		env = Env{}
	}
	v, err := ev.eval(e, env)
	if err != nil {
		return bounds.TupleSet{}, err
	}
	ts, ok := v.(bounds.TupleSet)
	if !ok {
		return bounds.TupleSet{}, fmt.Errorf("%s: expected relational expression, evaluated to %T", pos(e), v)
	}
	return ts, nil
}

func pos(e ast.Expr) string { return e.Pos().String() }

func (ev *Evaluator) univAtoms() []int {
	out := make([]int, ev.Inst.Universe.Size())
	for i := range out {
		out[i] = i
	}
	return out
}

// eval returns bool, int, or bounds.TupleSet.
func (ev *Evaluator) eval(e ast.Expr, env Env) (any, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := env[x.Name]; ok && !x.NoImplicit {
			return v, nil
		}
		if ts, ok := ev.Inst.Rels[x.Name]; ok {
			return ts, nil
		}
		return nil, fmt.Errorf("%s: unbound name %q in instance", pos(e), x.Name)
	case *ast.Const:
		switch x.Kind {
		case ast.ConstNone:
			return bounds.NewTupleSet(1), nil
		case ast.ConstUniv:
			return ev.univSet()
		default:
			return bounds.Iden(ev.univAtoms()), nil
		}
	case *ast.IntLit:
		return x.Value, nil
	case *ast.Prime:
		id, ok := x.Sub.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("%s: prime applies to relation names", pos(e))
		}
		if ts, ok := ev.Inst.Rels[id.Name+"'"]; ok {
			return ts, nil
		}
		return nil, fmt.Errorf("%s: no primed relation %q in instance", pos(e), id.Name+"'")
	case *ast.Unary:
		return ev.evalUnary(x, env)
	case *ast.Binary:
		return ev.evalBinary(x, env)
	case *ast.BoxJoin:
		cur, err := ev.EvalExpr(x.Target, env)
		if err != nil {
			return nil, err
		}
		for _, a := range x.Args {
			av, err := ev.EvalExpr(a, env)
			if err != nil {
				return nil, err
			}
			cur = av.Join(cur)
		}
		return cur, nil
	case *ast.Call:
		return ev.evalCall(x, env)
	case *ast.Quantified:
		return ev.evalQuantified(x, env)
	case *ast.Comprehension:
		return ev.evalComprehension(x, env)
	case *ast.Let:
		inner := env.clone()
		for i, n := range x.Names {
			v, err := ev.eval(x.Values[i], env)
			if err != nil {
				return nil, err
			}
			ts, ok := v.(bounds.TupleSet)
			if !ok {
				return nil, fmt.Errorf("%s: let binds relational values only", pos(e))
			}
			inner[n] = ts
		}
		return ev.eval(x.Body, inner)
	case *ast.IfElse:
		c, err := ev.EvalFormula(x.Cond, env)
		if err != nil {
			return nil, err
		}
		if c {
			return ev.eval(x.Then, env)
		}
		return ev.eval(x.Else, env)
	case *ast.Block:
		for _, sub := range x.Exprs {
			b, err := ev.EvalFormula(sub, env)
			if err != nil {
				return nil, err
			}
			if !b {
				return false, nil
			}
		}
		return true, nil
	default:
		return nil, fmt.Errorf("%s: cannot evaluate %T", pos(e), e)
	}
}

// univSet returns the union of all top-level signature valuations.
func (ev *Evaluator) univSet() (any, error) {
	out := bounds.NewTupleSet(1)
	for _, s := range ev.Mod.Sigs {
		for _, n := range s.Names {
			if s.Parent != "" {
				continue
			}
			if ts, ok := ev.Inst.Rels[n]; ok {
				out = out.Union(ts)
			}
		}
	}
	return out, nil
}

func (ev *Evaluator) evalUnary(x *ast.Unary, env Env) (any, error) {
	switch x.Op {
	case ast.UnNot:
		b, err := ev.EvalFormula(x.Sub, env)
		if err != nil {
			return nil, err
		}
		return !b, nil
	}
	ts, err := ev.EvalExpr(x.Sub, env)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.UnTranspose:
		return ts.Transpose(), nil
	case ast.UnClosure:
		return ts.Closure(), nil
	case ast.UnReflClose:
		return ts.ReflClosure(ev.univAtoms()), nil
	case ast.UnCard:
		return ts.Len(), nil
	case ast.UnNo:
		return ts.IsEmpty(), nil
	case ast.UnSome:
		return !ts.IsEmpty(), nil
	case ast.UnLone:
		return ts.Len() <= 1, nil
	case ast.UnOne:
		return ts.Len() == 1, nil
	case ast.UnSet:
		return true, nil
	default:
		return nil, fmt.Errorf("%s: cannot evaluate unary %s", pos(x), x.Op)
	}
}

func (ev *Evaluator) evalBinary(x *ast.Binary, env Env) (any, error) {
	switch x.Op {
	case ast.BinAnd:
		l, err := ev.EvalFormula(x.Left, env)
		if err != nil {
			return nil, err
		}
		if !l {
			return false, nil
		}
		return ev.EvalFormula(x.Right, env)
	case ast.BinOr:
		l, err := ev.EvalFormula(x.Left, env)
		if err != nil {
			return nil, err
		}
		if l {
			return true, nil
		}
		return ev.EvalFormula(x.Right, env)
	case ast.BinImplies:
		l, err := ev.EvalFormula(x.Left, env)
		if err != nil {
			return nil, err
		}
		if !l {
			return true, nil
		}
		return ev.EvalFormula(x.Right, env)
	case ast.BinIff:
		l, err := ev.EvalFormula(x.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := ev.EvalFormula(x.Right, env)
		if err != nil {
			return nil, err
		}
		return l == r, nil
	}

	lv, err := ev.eval(x.Left, env)
	if err != nil {
		return nil, err
	}
	rv, err := ev.eval(x.Right, env)
	if err != nil {
		return nil, err
	}

	li, lIsInt := lv.(int)
	ri, rIsInt := rv.(int)
	if lIsInt || rIsInt {
		if !lIsInt || !rIsInt {
			return nil, fmt.Errorf("%s: mixing Int and relational operands", pos(x))
		}
		switch x.Op {
		case ast.BinEq:
			return li == ri, nil
		case ast.BinNotEq:
			return li != ri, nil
		case ast.BinLt:
			return li < ri, nil
		case ast.BinGt:
			return li > ri, nil
		case ast.BinLtEq:
			return li <= ri, nil
		case ast.BinGtEq:
			return li >= ri, nil
		default:
			return nil, fmt.Errorf("%s: unsupported Int operator %s", pos(x), x.Op)
		}
	}

	l, ok := lv.(bounds.TupleSet)
	if !ok {
		return nil, fmt.Errorf("%s: expected relational left operand", pos(x))
	}
	r, ok := rv.(bounds.TupleSet)
	if !ok {
		return nil, fmt.Errorf("%s: expected relational right operand", pos(x))
	}
	switch x.Op {
	case ast.BinJoin:
		return l.Join(r), nil
	case ast.BinProduct:
		return l.Product(r), nil
	case ast.BinUnion:
		return l.Union(r), nil
	case ast.BinDiff:
		return l.Diff(r), nil
	case ast.BinIntersect:
		return l.Intersect(r), nil
	case ast.BinOverride:
		return l.Override(r), nil
	case ast.BinDomRestr:
		return r.DomRestr(l), nil
	case ast.BinRanRestr:
		return l.RanRestr(r), nil
	case ast.BinIn:
		return l.SubsetOf(r), nil
	case ast.BinNotIn:
		return !l.SubsetOf(r), nil
	case ast.BinEq:
		return l.Equal(r), nil
	case ast.BinNotEq:
		return !l.Equal(r), nil
	default:
		return nil, fmt.Errorf("%s: cannot evaluate binary %s", pos(x), x.Op)
	}
}

func (ev *Evaluator) evalCall(x *ast.Call, env Env) (any, error) {
	var params []*ast.Decl
	var body ast.Expr
	if p := ev.Mod.LookupPred(x.Name); p != nil {
		params, body = p.Params, p.Body
	} else if f := ev.Mod.LookupFun(x.Name); f != nil {
		params, body = f.Params, f.Body
	} else {
		return nil, fmt.Errorf("%s: unknown call target %q", pos(x), x.Name)
	}
	names := []string{}
	for _, d := range params {
		names = append(names, d.Names...)
	}
	if len(names) != len(x.Args) {
		return nil, fmt.Errorf("%s: %s expects %d args, got %d", pos(x), x.Name, len(names), len(x.Args))
	}
	inner := Env{}
	for i, n := range names {
		v, err := ev.EvalExpr(x.Args[i], env)
		if err != nil {
			return nil, err
		}
		inner[n] = v
	}
	return ev.eval(body, inner)
}

// bindings enumerates all assignments of the quantifier declarations,
// calling fn with the environment for each. fn returns false to stop early.
func (ev *Evaluator) bindings(decls []*ast.Decl, env Env, fn func(Env) (bool, error)) error {
	type binding struct {
		name string
		expr ast.Expr
		disj []string // earlier names in the same disj decl
	}
	var flat []binding
	for _, d := range decls {
		if d.Mult == ast.MultSet {
			return fmt.Errorf("%s: higher-order (set) quantification is not supported", d.Pos())
		}
		var earlier []string
		for _, n := range d.Names {
			b := binding{name: n, expr: d.Expr}
			if d.Disj {
				b.disj = append([]string(nil), earlier...)
			}
			earlier = append(earlier, n)
			flat = append(flat, b)
		}
	}
	// Each level copies its env once and rebinds its own name per tuple: fn
	// and deeper levels read the copy but never keep or write it, and a
	// deeper level that shadows the name writes its own copy.
	var rec func(i int, env Env) (bool, error)
	rec = func(i int, env Env) (bool, error) {
		if i == len(flat) {
			return fn(env)
		}
		b := flat[i]
		dom, err := ev.EvalExpr(b.expr, env)
		if err != nil {
			return false, err
		}
		var inner Env
		for _, single := range dom.Singletons() {
			if len(b.disj) > 0 {
				distinct := true
				for _, other := range b.disj {
					if env[other].Equal(single) {
						distinct = false
						break
					}
				}
				if !distinct {
					continue
				}
			}
			if inner == nil {
				inner = env.clone()
			}
			inner[b.name] = single
			cont, err := rec(i+1, inner)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0, env)
	return err
}

func (ev *Evaluator) evalQuantified(x *ast.Quantified, env Env) (any, error) {
	count := 0
	failed := false
	err := ev.bindings(x.Decls, env, func(inner Env) (bool, error) {
		b, err := ev.EvalFormula(x.Body, inner)
		if err != nil {
			return false, err
		}
		if b {
			count++
			// some can stop at 1; lone/one can stop at 2.
			if x.Quant == ast.QuantSome || ((x.Quant == ast.QuantLone || x.Quant == ast.QuantOne) && count > 1) {
				return false, nil
			}
			if x.Quant == ast.QuantNo {
				return false, nil
			}
		} else if x.Quant == ast.QuantAll {
			failed = true
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	switch x.Quant {
	case ast.QuantAll:
		return !failed, nil
	case ast.QuantSome:
		return count > 0, nil
	case ast.QuantNo:
		return count == 0, nil
	case ast.QuantLone:
		return count <= 1, nil
	case ast.QuantOne:
		return count == 1, nil
	default:
		return nil, fmt.Errorf("%s: unknown quantifier", pos(x))
	}
}

func (ev *Evaluator) evalComprehension(x *ast.Comprehension, env Env) (any, error) {
	total := 0
	for _, d := range x.Decls {
		total += len(d.Names)
	}
	var names []string
	for _, d := range x.Decls {
		names = append(names, d.Names...)
	}
	var keys []uint64
	err := ev.bindings(x.Decls, env, func(inner Env) (bool, error) {
		b, err := ev.EvalFormula(x.Body, inner)
		if err != nil {
			return false, err
		}
		if b {
			t := make(bounds.Tuple, 0, total)
			for _, n := range names {
				tuples := inner[n].Tuples()
				t = append(t, tuples[0]...)
			}
			keys = append(keys, t.Key())
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return bounds.FromKeys(total, keys), nil
}

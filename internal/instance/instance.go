// Package instance represents concrete relational instances (models or
// counterexamples found by the analyzer) and provides a big-step evaluator
// for arbitrary expressions and formulas against an instance. The evaluator
// is what AUnit test execution, ICEBAR's counterexample checks, and ATR's
// instance difference analysis are built on.
package instance

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/bounds"
)

// Instance is a concrete valuation of every relation over a universe.
type Instance struct {
	Universe *bounds.Universe
	Rels     map[string]bounds.TupleSet
	// Base, when non-nil, values the relations that Rels gives no tuples: a
	// name Base binds takes Base's value, so a model's declared arity wins
	// over an empty valuation's, and every other name keeps Rels's. Either
	// map may be shared with other instances (an AUnit test's instances share
	// its resolved valuation and their model's defaults), so code that
	// modifies an instance must Clone it first.
	Base map[string]bounds.TupleSet
}

// New returns an empty instance over the universe.
func New(u *bounds.Universe) *Instance {
	return &Instance{Universe: u, Rels: map[string]bounds.TupleSet{}}
}

// Clone returns a copy with one Rels map of its own that holds every
// relation's value, and no Base. Tuple sets are immutable values, so the
// copy shares them.
func (in *Instance) Clone() *Instance {
	c := &Instance{Universe: in.Universe, Rels: make(map[string]bounds.TupleSet, len(in.Rels)+len(in.Base))}
	maps.Copy(c.Rels, in.Rels)
	for name := range in.Base {
		c.Rels[name] = in.Rel(name)
	}
	return c
}

// lookup returns the named relation's value and whether the instance binds
// it.
func (in *Instance) lookup(name string) (bounds.TupleSet, bool) {
	ts, ok := in.Rels[name]
	if in.Base != nil && ts.IsEmpty() {
		if b, found := in.Base[name]; found {
			return b, true
		}
	}
	return ts, ok
}

// Rel returns the tuple set of the named relation (empty if absent).
func (in *Instance) Rel(name string) bounds.TupleSet {
	ts, _ := in.lookup(name)
	return ts
}

// Names returns the names of every bound relation, sorted.
func (in *Instance) Names() []string {
	names := make([]string, 0, len(in.Rels)+len(in.Base))
	for n := range in.Rels {
		names = append(names, n)
	}
	for n := range in.Base {
		names = append(names, n)
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// String renders the instance deterministically for diagnostics and test
// oracles.
func (in *Instance) String() string {
	var b strings.Builder
	for _, n := range in.Names() {
		fmt.Fprintf(&b, "%s = %s\n", n, in.Rel(n).String(in.Universe))
	}
	return b.String()
}

// Env maps bound variable names to their values.
type Env map[string]bounds.TupleSet

// Evaluator evaluates expressions against an instance. Mod must be a lowered
// module (predicate and function applications rewritten to Call nodes) so
// that calls can be inlined by parameter binding. An Evaluator keeps scratch
// state between calls, so it must not be used from two goroutines at once;
// one evaluator may run any number of evaluations, against any instances.
//
// Formulas need not be type-checked (an AUnit test's formula is not): an
// operand whose arity an operator rejects, such as the closure of a set,
// is an evaluation error.
type Evaluator struct {
	Mod  *ast.Module
	Inst *Instance

	// slots is the scope: every name bound so far, innermost last. Lookups
	// see the slots from base up; a call moves base to its parameters, so
	// its body sees nothing of its caller's scope. A slot with no name holds
	// a value computed for a binding that is not in scope yet.
	slots []slot
	base  int
	// atoms lists the atom indices of atomsOf, the universe they were
	// listed for, for iden and reflexive closure.
	atoms   []int
	atomsOf *bounds.Universe
}

type slot struct {
	name string
	val  bounds.TupleSet
}

// kind tags what a value holds.
type kind uint8

const (
	kindBool kind = iota
	kindInt
	kindSet
)

// value is the result of evaluating an expression: a formula's truth, an
// integer, or a relational expression's tuple set, as its kind says.
type value struct {
	kind kind
	b    bool
	n    int
	ts   bounds.TupleSet
}

func boolean(b bool) value          { return value{kind: kindBool, b: b} }
func integer(n int) value           { return value{kind: kindInt, n: n} }
func set(ts bounds.TupleSet) value  { return value{kind: kindSet, ts: ts} }
func fail(err error) (value, error) { return value{}, err }
func failf(format string, args ...any) (value, error) {
	return value{}, fmt.Errorf(format, args...)
}

// typeName names the Go type of the value's payload, as error texts do.
func (v value) typeName() string {
	switch v.kind {
	case kindBool:
		return "bool"
	case kindInt:
		return "int"
	default:
		return "bounds.TupleSet"
	}
}

// EvalFormula evaluates a formula to a boolean.
func (ev *Evaluator) EvalFormula(e ast.Expr, env Env) (bool, error) {
	ev.enter(env)
	return ev.formula(e)
}

// EvalExpr evaluates a relational expression to a tuple set.
func (ev *Evaluator) EvalExpr(e ast.Expr, env Env) (bounds.TupleSet, error) {
	ev.enter(env)
	return ev.expr(e)
}

// enter starts an evaluation whose scope is env.
func (ev *Evaluator) enter(env Env) {
	if ev.slots == nil {
		// Room for the names most formulas bind, so that a fresh
		// evaluator's stack is one allocation.
		ev.slots = make([]slot, 0, 8)
	}
	ev.slots, ev.base = ev.slots[:0], 0
	for name, ts := range env {
		ev.slots = append(ev.slots, slot{name: name, val: ts})
	}
}

func (ev *Evaluator) formula(e ast.Expr) (bool, error) {
	v, err := ev.eval(e)
	if err != nil {
		return false, err
	}
	if v.kind != kindBool {
		return false, fmt.Errorf("%s: expected formula, evaluated to %s", pos(e), v.typeName())
	}
	return v.b, nil
}

func (ev *Evaluator) expr(e ast.Expr) (bounds.TupleSet, error) {
	v, err := ev.eval(e)
	if err != nil {
		return bounds.TupleSet{}, err
	}
	if v.kind != kindSet {
		return bounds.TupleSet{}, fmt.Errorf("%s: expected relational expression, evaluated to %s", pos(e), v.typeName())
	}
	return v.ts, nil
}

// find returns the innermost visible binding of name among the slots below
// top.
func (ev *Evaluator) find(name string, top int) (bounds.TupleSet, bool) {
	for i := top - 1; i >= ev.base; i-- {
		if ev.slots[i].name == name {
			return ev.slots[i].val, true
		}
	}
	return bounds.TupleSet{}, false
}

func pos(e ast.Expr) string { return e.Pos().String() }

func (ev *Evaluator) univAtoms() []int {
	if u := ev.Inst.Universe; ev.atomsOf != u {
		ev.atoms = ev.atoms[:0]
		for i := range u.Size() {
			ev.atoms = append(ev.atoms, i)
		}
		ev.atomsOf = u
	}
	return ev.atoms
}

func (ev *Evaluator) eval(e ast.Expr) (value, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if !x.NoImplicit {
			if ts, ok := ev.find(x.Name, len(ev.slots)); ok {
				return set(ts), nil
			}
		}
		if ts, ok := ev.Inst.lookup(x.Name); ok {
			return set(ts), nil
		}
		return failf("%s: unbound name %q in instance", pos(e), x.Name)
	case *ast.Const:
		switch x.Kind {
		case ast.ConstNone:
			return set(bounds.NewTupleSet(1)), nil
		case ast.ConstUniv:
			return set(ev.univSet()), nil
		default:
			return set(bounds.Iden(ev.univAtoms())), nil
		}
	case *ast.IntLit:
		return integer(x.Value), nil
	case *ast.Prime:
		id, ok := x.Sub.(*ast.Ident)
		if !ok {
			return failf("%s: prime applies to relation names", pos(e))
		}
		if ts, ok := ev.Inst.lookup(id.Name + "'"); ok {
			return set(ts), nil
		}
		return failf("%s: no primed relation %q in instance", pos(e), id.Name+"'")
	case *ast.Unary:
		return ev.evalUnary(x)
	case *ast.Binary:
		return ev.evalBinary(x)
	case *ast.BoxJoin:
		cur, err := ev.expr(x.Target)
		if err != nil {
			return fail(err)
		}
		for _, a := range x.Args {
			av, err := ev.expr(a)
			if err != nil {
				return fail(err)
			}
			if cur, err = join(x, av, cur); err != nil {
				return fail(err)
			}
		}
		return set(cur), nil
	case *ast.Call:
		return ev.evalCall(x)
	case *ast.Quantified:
		return ev.evalQuantified(x)
	case *ast.Comprehension:
		return ev.evalComprehension(x)
	case *ast.Let:
		// Every value is computed in the enclosing scope, in an unnamed
		// slot, and the names come into scope together for the body.
		mark := len(ev.slots)
		for i := range x.Names {
			v, err := ev.eval(x.Values[i])
			if err == nil && v.kind != kindSet {
				err = fmt.Errorf("%s: let binds relational values only", pos(e))
			}
			if err != nil {
				ev.slots = ev.slots[:mark]
				return fail(err)
			}
			ev.slots = append(ev.slots, slot{val: v.ts})
		}
		for i, n := range x.Names {
			ev.slots[mark+i].name = n
		}
		v, err := ev.eval(x.Body)
		ev.slots = ev.slots[:mark]
		return v, err
	case *ast.IfElse:
		c, err := ev.formula(x.Cond)
		if err != nil {
			return fail(err)
		}
		if c {
			return ev.eval(x.Then)
		}
		return ev.eval(x.Else)
	case *ast.Block:
		for _, sub := range x.Exprs {
			b, err := ev.formula(sub)
			if err != nil {
				return fail(err)
			}
			if !b {
				return boolean(false), nil
			}
		}
		return boolean(true), nil
	default:
		return failf("%s: cannot evaluate %T", pos(e), e)
	}
}

// univSet returns the union of all top-level signature valuations.
func (ev *Evaluator) univSet() bounds.TupleSet {
	out := bounds.NewTupleSet(1)
	for _, s := range ev.Mod.Sigs {
		for _, n := range s.Names {
			if s.Parent != "" {
				continue
			}
			if ts, ok := ev.Inst.lookup(n); ok {
				out = out.Union(ts)
			}
		}
	}
	return out
}

func (ev *Evaluator) evalUnary(x *ast.Unary) (value, error) {
	if x.Op == ast.UnNot {
		b, err := ev.formula(x.Sub)
		if err != nil {
			return fail(err)
		}
		return boolean(!b), nil
	}
	ts, err := ev.expr(x.Sub)
	if err != nil {
		return fail(err)
	}
	switch x.Op {
	case ast.UnTranspose:
		if ts.Arity() != 2 {
			return failf("%s: transpose of non-binary set", pos(x))
		}
		return set(ts.Transpose()), nil
	case ast.UnClosure, ast.UnReflClose:
		if ts.Arity() != 2 {
			return failf("%s: closure of non-binary set", pos(x))
		}
		if x.Op == ast.UnClosure {
			return set(ts.Closure()), nil
		}
		return set(ts.ReflClosure(ev.univAtoms())), nil
	case ast.UnCard:
		return integer(ts.Len()), nil
	case ast.UnNo:
		return boolean(ts.IsEmpty()), nil
	case ast.UnSome:
		return boolean(!ts.IsEmpty()), nil
	case ast.UnLone:
		return boolean(ts.Len() <= 1), nil
	case ast.UnOne:
		return boolean(ts.Len() == 1), nil
	case ast.UnSet:
		return boolean(true), nil
	default:
		return failf("%s: cannot evaluate unary %s", pos(x), x.Op)
	}
}

func (ev *Evaluator) evalBinary(x *ast.Binary) (value, error) {
	switch x.Op {
	case ast.BinAnd, ast.BinOr, ast.BinImplies:
		l, err := ev.formula(x.Left)
		if err != nil {
			return fail(err)
		}
		switch {
		case x.Op == ast.BinAnd && !l:
			return boolean(false), nil
		case x.Op == ast.BinOr && l:
			return boolean(true), nil
		case x.Op == ast.BinImplies && !l:
			return boolean(true), nil
		}
		r, err := ev.formula(x.Right)
		if err != nil {
			return fail(err)
		}
		return boolean(r), nil
	case ast.BinIff:
		l, err := ev.formula(x.Left)
		if err != nil {
			return fail(err)
		}
		r, err := ev.formula(x.Right)
		if err != nil {
			return fail(err)
		}
		return boolean(l == r), nil
	}

	lv, err := ev.eval(x.Left)
	if err != nil {
		return fail(err)
	}
	rv, err := ev.eval(x.Right)
	if err != nil {
		return fail(err)
	}

	if lv.kind == kindInt || rv.kind == kindInt {
		if lv.kind != rv.kind {
			return failf("%s: mixing Int and relational operands", pos(x))
		}
		li, ri := lv.n, rv.n
		switch x.Op {
		case ast.BinEq:
			return boolean(li == ri), nil
		case ast.BinNotEq:
			return boolean(li != ri), nil
		case ast.BinLt:
			return boolean(li < ri), nil
		case ast.BinGt:
			return boolean(li > ri), nil
		case ast.BinLtEq:
			return boolean(li <= ri), nil
		case ast.BinGtEq:
			return boolean(li >= ri), nil
		default:
			return failf("%s: unsupported Int operator %s", pos(x), x.Op)
		}
	}

	if lv.kind != kindSet {
		return failf("%s: expected relational left operand", pos(x))
	}
	if rv.kind != kindSet {
		return failf("%s: expected relational right operand", pos(x))
	}
	l, r := lv.ts, rv.ts
	switch x.Op {
	case ast.BinJoin:
		ts, err := join(x, l, r)
		if err != nil {
			return fail(err)
		}
		return set(ts), nil
	case ast.BinProduct:
		if n := l.Arity() + r.Arity(); n > bounds.MaxArity {
			return failf("%s: product arity %d exceeds max %d", pos(x), n, bounds.MaxArity)
		}
		return set(l.Product(r)), nil
	case ast.BinUnion:
		return set(l.Union(r)), nil
	case ast.BinDiff:
		return set(l.Diff(r)), nil
	case ast.BinIntersect:
		return set(l.Intersect(r)), nil
	case ast.BinOverride:
		return set(l.Override(r)), nil
	case ast.BinDomRestr:
		if l.Arity() != 1 {
			return failf("%s: domain restriction by non-unary set", pos(x))
		}
		return set(r.DomRestr(l)), nil
	case ast.BinRanRestr:
		if r.Arity() != 1 {
			return failf("%s: range restriction by non-unary set", pos(x))
		}
		return set(l.RanRestr(r)), nil
	case ast.BinIn:
		return boolean(l.SubsetOf(r)), nil
	case ast.BinNotIn:
		return boolean(!l.SubsetOf(r)), nil
	case ast.BinEq:
		return boolean(l.Equal(r)), nil
	case ast.BinNotEq:
		return boolean(!l.Equal(r)), nil
	default:
		return failf("%s: cannot evaluate binary %s", pos(x), x.Op)
	}
}

// join returns l.r for the join at x, or an error when the operands'
// arities leave no column, where the bounds algebra would panic.
func join(x ast.Expr, l, r bounds.TupleSet) (bounds.TupleSet, error) {
	if l.Arity()+r.Arity() < 3 {
		return bounds.TupleSet{}, fmt.Errorf("%s: join arity underflow", pos(x))
	}
	return l.Join(r), nil
}

// evalCall evaluates every argument in the caller's scope, then runs the
// body in a frame that sees only the parameters bound to them.
func (ev *Evaluator) evalCall(x *ast.Call) (value, error) {
	var params []*ast.Decl
	var body ast.Expr
	if p := ev.Mod.LookupPred(x.Name); p != nil {
		params, body = p.Params, p.Body
	} else if f := ev.Mod.LookupFun(x.Name); f != nil {
		params, body = f.Params, f.Body
	} else {
		return failf("%s: unknown call target %q", pos(x), x.Name)
	}
	arity := 0
	for _, d := range params {
		arity += len(d.Names)
	}
	if arity != len(x.Args) {
		return failf("%s: %s expects %d args, got %d", pos(x), x.Name, arity, len(x.Args))
	}
	mark, base := len(ev.slots), ev.base
	for _, a := range x.Args {
		ts, err := ev.expr(a)
		if err != nil {
			ev.slots = ev.slots[:mark]
			return fail(err)
		}
		ev.slots = append(ev.slots, slot{val: ts})
	}
	i := mark
	for _, d := range params {
		for _, n := range d.Names {
			ev.slots[i].name = n
			i++
		}
	}
	ev.base = mark
	v, err := ev.eval(body)
	ev.slots, ev.base = ev.slots[:mark], base
	return v, err
}

// bindings enumerates all assignments of the quantifier declarations,
// calling visit once the scope binds each. visit returns false to stop
// early.
func (ev *Evaluator) bindings(decls []*ast.Decl, visit func() (bool, error)) error {
	for _, d := range decls {
		if d.Mult == ast.MultSet {
			return fmt.Errorf("%s: higher-order (set) quantification is not supported", d.Pos())
		}
	}
	_, err := ev.bind(decls, 0, 0, visit)
	return err
}

// bind binds name n of decls[d] and every later name. Each name gets one
// slot, rewritten for each tuple of its domain; the domain is evaluated in
// the scope of the names before it. A disj name skips tuples equal to the
// value of an earlier name of its declaration.
func (ev *Evaluator) bind(decls []*ast.Decl, d, n int, visit func() (bool, error)) (bool, error) {
	if d == len(decls) {
		return visit()
	}
	decl := decls[d]
	if n == len(decl.Names) {
		return ev.bind(decls, d+1, 0, visit)
	}
	dom, err := ev.expr(decl.Expr)
	if err != nil {
		return false, err
	}
	at := len(ev.slots)
	ev.slots = append(ev.slots, slot{name: decl.Names[n]})
	for i := range dom.Len() {
		single := dom.Singleton(i)
		if decl.Disj && ev.repeats(decl.Names[:n], at, single) {
			continue
		}
		ev.slots[at].val = single
		cont, err := ev.bind(decls, d, n+1, visit)
		if err != nil || !cont {
			ev.slots = ev.slots[:at]
			return cont, err
		}
	}
	ev.slots = ev.slots[:at]
	return true, nil
}

// repeats reports whether any of the names is bound below top to single.
func (ev *Evaluator) repeats(names []string, top int, single bounds.TupleSet) bool {
	for _, other := range names {
		if v, _ := ev.find(other, top); v.Equal(single) {
			return true
		}
	}
	return false
}

func (ev *Evaluator) evalQuantified(x *ast.Quantified) (value, error) {
	count := 0
	failed := false
	err := ev.bindings(x.Decls, func() (bool, error) {
		b, err := ev.formula(x.Body)
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
		return fail(err)
	}
	switch x.Quant {
	case ast.QuantAll:
		return boolean(!failed), nil
	case ast.QuantSome:
		return boolean(count > 0), nil
	case ast.QuantNo:
		return boolean(count == 0), nil
	case ast.QuantLone:
		return boolean(count <= 1), nil
	case ast.QuantOne:
		return boolean(count == 1), nil
	default:
		return failf("%s: unknown quantifier", pos(x))
	}
}

func (ev *Evaluator) evalComprehension(x *ast.Comprehension) (value, error) {
	total := 0
	for _, d := range x.Decls {
		total += len(d.Names)
	}
	var keys []uint64
	var t bounds.Tuple
	err := ev.bindings(x.Decls, func() (bool, error) {
		b, err := ev.formula(x.Body)
		if err != nil {
			return false, err
		}
		if b {
			// The tuple concatenates the atoms of each name's value.
			t = t[:0]
			for _, d := range x.Decls {
				for _, n := range d.Names {
					v, _ := ev.find(n, len(ev.slots))
					k := v.Key(0)
					for i := range int(k >> 56) {
						t = append(t, int(k>>(8*i)&0xff)-1)
					}
				}
			}
			keys = append(keys, t.Key())
		}
		return true, nil
	})
	if err != nil {
		return fail(err)
	}
	return set(bounds.FromKeys(total, keys)), nil
}

package translate

import (
	"context"
	"fmt"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bounds"
	"specrepair/internal/instance"
	"specrepair/internal/sat"
)

// Env binds quantified variables and inlined parameters to matrices.
type Env map[string]Matrix

func (e Env) clone() Env {
	out := make(Env, len(e)+2)
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Translator compiles formulas of one module (lowered, checked) under fixed
// bounds into circuit nodes, allocating one boolean variable per undetermined
// relation tuple.
type Translator struct {
	Info   *types.Info
	Bounds *bounds.Bounds

	numVars  int
	relVars  map[string]map[uint64]int // relation -> tuple key -> var
	varRel   []string                  // var -> relation name
	varTuple []uint64                  // var -> tuple key
	matrices map[string]Matrix

	// callMod, when non-nil, overrides Info.Module for resolving pred/fun
	// call targets. The incremental analyzer points it at each candidate
	// module so that calls inline the candidate's (possibly mutated) bodies
	// while relation variables stay those of the shared base translation.
	callMod *ast.Module

	// ctx, when non-nil, aborts long translations: the entry points and the
	// grounding recursion poll it and return its error once it is done.
	// Grounding is the only place translation time can blow up combinatorially
	// (nested quantifiers over large scopes), so per-node checks elsewhere
	// would be pure overhead.
	ctx context.Context

	// closureMemo caches the matrices of environment-independent (reflexive)
	// transitive closures, keyed by operator and printed operand. Closure is
	// the most expensive matrix operation (iterated squaring), its operands
	// are almost always plain relations, and a long-lived translator sees
	// the same closure in every candidate of a repair stream. Cached
	// matrices are shared, never mutated (all matrix operations return new
	// matrices), and reusing their circuit nodes lets the CNF builder's
	// per-node memo skip re-encoding them too.
	closureMemo map[string]Matrix
}

// SetCallModule overrides the module used to resolve pred/fun calls during
// translation (nil restores the default, Info.Module). Only name lookup is
// affected; bounds and relation variables are unchanged.
func (tr *Translator) SetCallModule(m *ast.Module) { tr.callMod = m }

// SetContext installs a cancellation context (nil disables checks). A cancelled
// translation returns the context's error; the translator itself stays valid.
func (tr *Translator) SetContext(ctx context.Context) { tr.ctx = ctx }

func (tr *Translator) ctxErr() error {
	if tr.ctx != nil {
		return tr.ctx.Err()
	}
	return nil
}

// New allocates relation variables for every relation in the bounds.
func New(info *types.Info, b *bounds.Bounds) *Translator {
	tr := &Translator{
		Info:        info,
		Bounds:      b,
		relVars:     map[string]map[uint64]int{},
		matrices:    map[string]Matrix{},
		closureMemo: map[string]Matrix{},
	}
	// Deterministic relation order: sigs, then fields, then primed shadows.
	var names []string
	names = append(names, info.SigOrder...)
	names = append(names, info.FieldOrder...)
	for _, n := range append(append([]string(nil), info.SigOrder...), info.FieldOrder...) {
		if info.Primed[n] {
			names = append(names, n+"'")
		}
	}
	for _, name := range names {
		rb, ok := b.Rels[name]
		if !ok {
			continue
		}
		vars := map[uint64]int{}
		m := Matrix{arity: rb.Arity, keys: make([]uint64, 0, rb.Upper.Len()), nodes: make([]Node, 0, rb.Upper.Len())}
		for _, t := range rb.Upper.Tuples() {
			if rb.Lower.Contains(t) {
				m.add(t.Key(), TrueNode)
				continue
			}
			v := tr.numVars
			tr.numVars++
			tr.varRel = append(tr.varRel, name)
			tr.varTuple = append(tr.varTuple, t.Key())
			vars[t.Key()] = v
			m.add(t.Key(), Var(v))
		}
		tr.relVars[name] = vars
		tr.matrices[name] = m
	}
	return tr
}

// NumVars returns the number of relation variables allocated.
func (tr *Translator) NumVars() int { return tr.numVars }

// RelMatrix returns the matrix of a relation.
func (tr *Translator) RelMatrix(name string) (Matrix, bool) {
	m, ok := tr.matrices[name]
	return m, ok
}

// Formula translates a formula to a circuit node.
func (tr *Translator) Formula(e ast.Expr, env Env) (Node, error) {
	if err := tr.ctxErr(); err != nil {
		return nil, err
	}
	if env == nil {
		env = Env{}
	}
	v, err := tr.translate(e, env)
	if err != nil {
		return nil, err
	}
	n, ok := v.(Node)
	if !ok {
		return nil, fmt.Errorf("%s: expected formula", e.Pos())
	}
	return n, nil
}

// Expr translates a relational expression to a matrix.
func (tr *Translator) Expr(e ast.Expr, env Env) (Matrix, error) {
	if err := tr.ctxErr(); err != nil {
		return Matrix{}, err
	}
	if env == nil {
		env = Env{}
	}
	v, err := tr.translate(e, env)
	if err != nil {
		return Matrix{}, err
	}
	m, ok := v.(Matrix)
	if !ok {
		return Matrix{}, fmt.Errorf("%s: expected relational expression", e.Pos())
	}
	return m, nil
}

// intCount is the translation of an integer expression: the cardinality of a
// matrix, or a literal.
type intCount struct {
	nodes []Node // nil when literal
	lit   int
	isLit bool
}

func (tr *Translator) translate(e ast.Expr, env Env) (any, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if m, ok := env[x.Name]; ok && !x.NoImplicit {
			return m, nil
		}
		if m, ok := tr.matrices[x.Name]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("%s: unbound name %q", e.Pos(), x.Name)
	case *ast.Const:
		switch x.Kind {
		case ast.ConstNone:
			return NewMatrix(1), nil
		case ast.ConstUniv:
			return tr.univMatrix(), nil
		default:
			return tr.idenMatrix(), nil
		}
	case *ast.IntLit:
		return intCount{lit: x.Value, isLit: true}, nil
	case *ast.Prime:
		id, ok := x.Sub.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("%s: prime applies to relation names", e.Pos())
		}
		if m, ok := tr.matrices[id.Name+"'"]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("%s: no primed relation %q", e.Pos(), id.Name)
	case *ast.Unary:
		return tr.translateUnary(x, env)
	case *ast.Binary:
		return tr.translateBinary(x, env)
	case *ast.BoxJoin:
		cur, err := tr.Expr(x.Target, env)
		if err != nil {
			return nil, err
		}
		for _, a := range x.Args {
			am, err := tr.Expr(a, env)
			if err != nil {
				return nil, err
			}
			cur = am.Join(cur)
		}
		return cur, nil
	case *ast.Call:
		return tr.translateCall(x, env)
	case *ast.Quantified:
		return tr.translateQuantified(x, env)
	case *ast.Comprehension:
		return tr.translateComprehension(x, env)
	case *ast.Let:
		inner := env.clone()
		for i, n := range x.Names {
			m, err := tr.Expr(x.Values[i], env)
			if err != nil {
				return nil, err
			}
			inner[n] = m
		}
		return tr.translate(x.Body, inner)
	case *ast.IfElse:
		c, err := tr.Formula(x.Cond, env)
		if err != nil {
			return nil, err
		}
		tv, err := tr.translate(x.Then, env)
		if err != nil {
			return nil, err
		}
		ev, err := tr.translate(x.Else, env)
		if err != nil {
			return nil, err
		}
		tn, tIsNode := tv.(Node)
		en, eIsNode := ev.(Node)
		if tIsNode && eIsNode {
			return Ite(c, tn, en), nil
		}
		tm, tIsMat := tv.(Matrix)
		em, eIsMat := ev.(Matrix)
		if tIsMat && eIsMat {
			return tm.Ite(c, em), nil
		}
		return nil, fmt.Errorf("%s: incompatible if-else branches", e.Pos())
	case *ast.Block:
		var parts []Node
		for _, sub := range x.Exprs {
			n, err := tr.Formula(sub, env)
			if err != nil {
				return nil, err
			}
			parts = append(parts, n)
		}
		return And(parts...), nil
	default:
		return nil, fmt.Errorf("%s: cannot translate %T", e.Pos(), e)
	}
}

func (tr *Translator) univMatrix() Matrix {
	out := NewMatrix(1)
	for _, name := range tr.Info.SigOrder {
		if tr.Bounds.TopOf[name] != name {
			continue
		}
		out = out.Union(tr.matrices[name])
	}
	return out
}

func (tr *Translator) idenMatrix() Matrix {
	u := tr.univMatrix()
	out := Matrix{arity: 2, keys: make([]uint64, 0, u.Len()), nodes: make([]Node, 0, u.Len())}
	for i, k := range u.keys {
		out.add(header(2)|(k&0xff)<<8|k&0xff, u.nodes[i])
	}
	return out
}

// closureKey returns the memo key for a closure expression, and whether the
// expression is cacheable: its operand must not reference any
// environment-bound name (a quantified variable or inlined parameter would
// make the matrix depend on the enclosing instantiation) and must not
// contain pred/fun calls (their inlined bodies follow the per-candidate
// call module, not the translator).
func (tr *Translator) closureKey(x *ast.Unary, env Env) (string, bool) {
	cacheable := true
	ast.Walk(x.Sub, func(e ast.Expr) bool {
		switch y := e.(type) {
		case *ast.Call:
			cacheable = false
		case *ast.Ident:
			if _, bound := env[y.Name]; bound {
				cacheable = false
			}
		}
		return cacheable
	})
	if !cacheable {
		return "", false
	}
	op := "^"
	if x.Op == ast.UnReflClose {
		op = "*"
	}
	return op + printer.Expr(x.Sub), true
}

func (tr *Translator) translateUnary(x *ast.Unary, env Env) (any, error) {
	if x.Op == ast.UnNot {
		n, err := tr.Formula(x.Sub, env)
		if err != nil {
			return nil, err
		}
		return Not(n), nil
	}
	if x.Op == ast.UnCard {
		m, err := tr.Expr(x.Sub, env)
		if err != nil {
			return nil, err
		}
		return intCount{nodes: m.Nodes()}, nil
	}
	if x.Op == ast.UnClosure || x.Op == ast.UnReflClose {
		if key, ok := tr.closureKey(x, env); ok {
			if m, hit := tr.closureMemo[key]; hit {
				return m, nil
			}
			sub, err := tr.Expr(x.Sub, env)
			if err != nil {
				return nil, err
			}
			var m Matrix
			if x.Op == ast.UnClosure {
				m = sub.Closure()
			} else {
				m = sub.ReflClosure(tr.Bounds.AllAtoms())
			}
			tr.closureMemo[key] = m
			return m, nil
		}
	}
	m, err := tr.Expr(x.Sub, env)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.UnTranspose:
		return m.Transpose(), nil
	case ast.UnClosure:
		return m.Closure(), nil
	case ast.UnReflClose:
		return m.ReflClosure(tr.Bounds.AllAtoms()), nil
	case ast.UnNo:
		return m.None(), nil
	case ast.UnSome:
		return m.Some(), nil
	case ast.UnLone:
		return m.Lone(), nil
	case ast.UnOne:
		return m.One(), nil
	case ast.UnSet:
		return TrueNode, nil
	default:
		return nil, fmt.Errorf("%s: cannot translate unary %s", x.Pos(), x.Op)
	}
}

func (tr *Translator) translateBinary(x *ast.Binary, env Env) (any, error) {
	switch x.Op {
	case ast.BinAnd, ast.BinOr, ast.BinImplies, ast.BinIff:
		l, err := tr.Formula(x.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := tr.Formula(x.Right, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case ast.BinAnd:
			return And(l, r), nil
		case ast.BinOr:
			return Or(l, r), nil
		case ast.BinImplies:
			return Implies(l, r), nil
		default:
			return Iff(l, r), nil
		}
	}

	lv, err := tr.translate(x.Left, env)
	if err != nil {
		return nil, err
	}
	rv, err := tr.translate(x.Right, env)
	if err != nil {
		return nil, err
	}

	lc, lIsInt := lv.(intCount)
	rc, rIsInt := rv.(intCount)
	if lIsInt || rIsInt {
		if !lIsInt || !rIsInt {
			return nil, fmt.Errorf("%s: mixing Int and relational operands", x.Pos())
		}
		return tr.intCompare(x.Op, lc, rc, x.Pos().String())
	}

	l, ok := lv.(Matrix)
	if !ok {
		return nil, fmt.Errorf("%s: expected relational left operand", x.Pos())
	}
	r, ok := rv.(Matrix)
	if !ok {
		return nil, fmt.Errorf("%s: expected relational right operand", x.Pos())
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
		return Not(l.SubsetOf(r)), nil
	case ast.BinEq:
		return l.EqualTo(r), nil
	case ast.BinNotEq:
		return Not(l.EqualTo(r)), nil
	default:
		return nil, fmt.Errorf("%s: cannot translate binary %s", x.Pos(), x.Op)
	}
}

// intCompare encodes comparisons between integer counts.
func (tr *Translator) intCompare(op ast.BinOp, l, r intCount, where string) (Node, error) {
	// atLeast(c, j): formula "count c >= j".
	atLeast := func(c intCount, j int) Node {
		if c.isLit {
			if c.lit >= j {
				return TrueNode
			}
			return FalseNode
		}
		return atLeastNodes(c.nodes, j)
	}
	maxOf := func(c intCount) int {
		if c.isLit {
			return c.lit
		}
		return len(c.nodes)
	}
	n := maxOf(l)
	if m := maxOf(r); m > n {
		n = m
	}
	// l >= r  iff  for every j, r >= j implies l >= j.
	geq := func(a, b intCount) Node {
		var parts []Node
		for j := 1; j <= n+1; j++ {
			parts = append(parts, Implies(atLeast(b, j), atLeast(a, j)))
		}
		return And(parts...)
	}
	switch op {
	case ast.BinEq:
		return And(geq(l, r), geq(r, l)), nil
	case ast.BinNotEq:
		return Not(And(geq(l, r), geq(r, l))), nil
	case ast.BinLtEq:
		return geq(r, l), nil
	case ast.BinGtEq:
		return geq(l, r), nil
	case ast.BinLt:
		return Not(geq(l, r)), nil
	case ast.BinGt:
		return Not(geq(r, l)), nil
	default:
		return nil, fmt.Errorf("%s: unsupported Int operator %s", where, op)
	}
}

func (tr *Translator) translateCall(x *ast.Call, env Env) (any, error) {
	mod := tr.callMod
	if mod == nil {
		mod = tr.Info.Module
	}
	var params []*ast.Decl
	var body ast.Expr
	if p := mod.LookupPred(x.Name); p != nil {
		params, body = p.Params, p.Body
	} else if f := mod.LookupFun(x.Name); f != nil {
		params, body = f.Params, f.Body
	} else {
		return nil, fmt.Errorf("%s: unknown call target %q", x.Pos(), x.Name)
	}
	var names []string
	for _, d := range params {
		names = append(names, d.Names...)
	}
	if len(names) != len(x.Args) {
		return nil, fmt.Errorf("%s: %s expects %d args, got %d", x.Pos(), x.Name, len(names), len(x.Args))
	}
	inner := Env{}
	for i, n := range names {
		m, err := tr.Expr(x.Args[i], env)
		if err != nil {
			return nil, err
		}
		inner[n] = m
	}
	return tr.translate(body, inner)
}

// groundBinding is one grounded assignment of quantifier variables: the
// guard collects decl membership conditions.
type groundBinding struct {
	env   Env
	guard Node
}

// ground enumerates all bindings of the declarations over their upper
// bounds. Each decl bound is re-translated under the partial environment so
// dependent bounds (y: x.f) work.
func (tr *Translator) ground(decls []*ast.Decl, env Env) ([]groundBinding, error) {
	// slot is one quantified variable; disj lists the flat positions of the
	// earlier variables of its decl when the decl is disjoint.
	type slot struct {
		name string
		expr ast.Expr
		disj []int
	}
	var flat []slot
	for _, d := range decls {
		if d.Mult == ast.MultSet {
			return nil, fmt.Errorf("%s: higher-order (set) quantification is not supported", d.Pos())
		}
		first := len(flat)
		for _, n := range d.Names {
			s := slot{name: n, expr: d.Expr}
			if d.Disj {
				for p := first; p < len(flat); p++ {
					s.disj = append(s.disj, p)
				}
			}
			flat = append(flat, s)
		}
	}
	out := []groundBinding{}
	// chosen[p] is the tuple key bound at flat position p; rec(i) reads only
	// positions below i, which its callers have set.
	chosen := make([]uint64, len(flat))
	var rec func(i int, env Env, guard Node) error
	rec = func(i int, env Env, guard Node) error {
		if err := tr.ctxErr(); err != nil {
			return err
		}
		if i == len(flat) {
			out = append(out, groundBinding{env: env, guard: guard})
			return nil
		}
		s := flat[i]
		dom, err := tr.Expr(s.expr, env)
		if err != nil {
			return err
		}
	tuples:
		for j, k := range dom.keys {
			for _, p := range s.disj {
				if chosen[p] == k {
					continue tuples
				}
			}
			inner := env.clone()
			inner[s.name] = singletonKey(k)
			chosen[i] = k
			if err := rec(i+1, inner, And(guard, dom.nodes[j])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, env, TrueNode); err != nil {
		return nil, err
	}
	return out, nil
}

func (tr *Translator) translateQuantified(x *ast.Quantified, env Env) (any, error) {
	bindings, err := tr.ground(x.Decls, env)
	if err != nil {
		return nil, err
	}
	// For each grounded binding translate the body once; "holds" is
	// guard AND body, used by the counting quantifiers.
	bodies := make([]Node, len(bindings))
	holds := make([]Node, len(bindings))
	for i, b := range bindings {
		body, err := tr.Formula(x.Body, b.env)
		if err != nil {
			return nil, err
		}
		bodies[i] = body
		holds[i] = And(b.guard, body)
	}
	switch x.Quant {
	case ast.QuantAll:
		// all x | body == AND over bindings (guard -> body).
		parts := make([]Node, 0, len(bindings))
		for i, b := range bindings {
			parts = append(parts, Implies(b.guard, bodies[i]))
		}
		return And(parts...), nil
	case ast.QuantSome:
		return Or(holds...), nil
	case ast.QuantNo:
		return Not(Or(holds...)), nil
	case ast.QuantLone:
		return loneOf(holds), nil
	case ast.QuantOne:
		return And(Or(holds...), loneOf(holds)), nil
	default:
		return nil, fmt.Errorf("%s: unknown quantifier", x.Pos())
	}
}

func loneOf(nodes []Node) Node {
	var pairs []Node
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			pairs = append(pairs, Not(And(nodes[i], nodes[j])))
		}
	}
	return And(pairs...)
}

func (tr *Translator) translateComprehension(x *ast.Comprehension, env Env) (any, error) {
	bindings, err := tr.ground(x.Decls, env)
	if err != nil {
		return nil, err
	}
	var names []string
	total := 0
	for _, d := range x.Decls {
		names = append(names, d.Names...)
		total += len(d.Names)
	}
	es := make([]entry, 0, len(bindings))
	for _, b := range bindings {
		body, err := tr.Formula(x.Body, b.env)
		if err != nil {
			return nil, err
		}
		// The binding's tuple concatenates each variable's singleton tuple.
		var key uint64
		arity := 0
		for _, n := range names {
			k := b.env[n].keys[0]
			key |= (k & lanes(keyArity(k))) << (8 * arity)
			arity += keyArity(k)
		}
		es = append(es, entry{header(arity) | key, And(b.guard, body)})
	}
	return collect(total, es), nil
}

// Decode extracts a concrete instance from a SAT model.
func (tr *Translator) Decode(model []sat.Tribool) *instance.Instance {
	inst := instance.New(tr.Bounds.Universe)
	for name, rb := range tr.Bounds.Rels {
		var keys []uint64
		for key, v := range tr.relVars[name] {
			if v < len(model) && model[v] == sat.True {
				keys = append(keys, key)
			}
		}
		inst.Rels[name] = rb.Lower.Union(bounds.FromKeys(rb.Lower.Arity(), keys))
	}
	return inst
}

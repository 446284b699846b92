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

// Translator compiles formulas of one module (lowered, checked) under fixed
// bounds into circuit nodes, allocating one boolean variable per undetermined
// relation tuple.
type Translator struct {
	Info   *types.Info
	Bounds *bounds.Bounds
	// Circuit is the arena every node of the translator's formulas and
	// matrices lives in; it grows for as long as the translator is used.
	*Circuit

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

	// env is the slot stack of bound names: quantified variables, let names
	// and inlined call parameters, innermost last. A name resolves to its
	// topmost binding at or above base, the first slot of the current call
	// frame, so a called body sees only its parameters. The entry points
	// start from an empty stack; an error may leave bindings behind.
	env  []binding
	base int
}

// binding is one slot of the environment stack. A slot with an empty name
// holds a let value or call argument whose name is not in scope yet.
type binding struct {
	name string
	m    Matrix
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
		Circuit:     &Circuit{},
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
		m := Matrix{c: tr.Circuit, arity: rb.Arity, keys: make([]uint64, 0, rb.Upper.Len()), nodes: make([]Node, 0, rb.Upper.Len())}
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

// Formula translates a closed formula to a circuit node.
func (tr *Translator) Formula(e ast.Expr) (Node, error) {
	if err := tr.ctxErr(); err != nil {
		return FalseNode, err
	}
	tr.env, tr.base = tr.env[:0], 0
	return tr.formula(e)
}

// Expr translates a closed relational expression to a matrix.
func (tr *Translator) Expr(e ast.Expr) (Matrix, error) {
	if err := tr.ctxErr(); err != nil {
		return Matrix{}, err
	}
	tr.env, tr.base = tr.env[:0], 0
	return tr.expr(e)
}

func (tr *Translator) formula(e ast.Expr) (Node, error) {
	v, err := tr.translate(e)
	if err != nil {
		return FalseNode, err
	}
	if v.kind != kindFormula {
		return FalseNode, fmt.Errorf("%s: expected formula", e.Pos())
	}
	return v.node, nil
}

func (tr *Translator) expr(e ast.Expr) (Matrix, error) {
	v, err := tr.translate(e)
	if err != nil {
		return Matrix{}, err
	}
	if v.kind != kindMatrix {
		return Matrix{}, fmt.Errorf("%s: expected relational expression", e.Pos())
	}
	return v.m, nil
}

// lookup returns the innermost binding of name in the current frame.
func (tr *Translator) lookup(name string) (Matrix, bool) {
	for i := len(tr.env) - 1; i >= tr.base; i-- {
		if tr.env[i].name == name {
			return tr.env[i].m, true
		}
	}
	return Matrix{}, false
}

// kind tells what an expression translated to.
type kind uint8

const (
	kindFormula kind = iota // a circuit node
	kindMatrix              // a relational expression's matrix
	kindCount               // the cardinality of a matrix
	kindInt                 // an integer literal
)

// value is the translation of an expression: the node of a formula, the
// matrix of a relational expression or of a cardinality (whose entries
// are counted), or an integer literal.
type value struct {
	kind kind
	node Node
	m    Matrix
	lit  int
}

func formulaValue(n Node) value  { return value{kind: kindFormula, node: n} }
func matrixValue(m Matrix) value { return value{kind: kindMatrix, m: m} }

// isInt reports whether v is an integer expression.
func (v value) isInt() bool { return v.kind == kindCount || v.kind == kindInt }

func (tr *Translator) translate(e ast.Expr) (value, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if !x.NoImplicit {
			if m, ok := tr.lookup(x.Name); ok {
				return matrixValue(m), nil
			}
		}
		if m, ok := tr.matrices[x.Name]; ok {
			return matrixValue(m), nil
		}
		return value{}, fmt.Errorf("%s: unbound name %q", e.Pos(), x.Name)
	case *ast.Const:
		switch x.Kind {
		case ast.ConstNone:
			return matrixValue(tr.NewMatrix(1)), nil
		case ast.ConstUniv:
			return matrixValue(tr.univMatrix()), nil
		default:
			return matrixValue(tr.idenMatrix()), nil
		}
	case *ast.IntLit:
		return value{kind: kindInt, lit: x.Value}, nil
	case *ast.Prime:
		id, ok := x.Sub.(*ast.Ident)
		if !ok {
			return value{}, fmt.Errorf("%s: prime applies to relation names", e.Pos())
		}
		if m, ok := tr.matrices[id.Name+"'"]; ok {
			return matrixValue(m), nil
		}
		return value{}, fmt.Errorf("%s: no primed relation %q", e.Pos(), id.Name)
	case *ast.Unary:
		return tr.translateUnary(x)
	case *ast.Binary:
		return tr.translateBinary(x)
	case *ast.BoxJoin:
		cur, err := tr.expr(x.Target)
		if err != nil {
			return value{}, err
		}
		for _, a := range x.Args {
			am, err := tr.expr(a)
			if err != nil {
				return value{}, err
			}
			cur = am.Join(cur)
		}
		return matrixValue(cur), nil
	case *ast.Call:
		return tr.translateCall(x)
	case *ast.Quantified:
		return tr.translateQuantified(x)
	case *ast.Comprehension:
		return tr.translateComprehension(x)
	case *ast.Let:
		// Every value is computed in the enclosing scope, so the names come
		// into scope only once all of them are.
		mark := len(tr.env)
		for i := range x.Names {
			m, err := tr.expr(x.Values[i])
			if err != nil {
				return value{}, err
			}
			tr.env = append(tr.env, binding{m: m})
		}
		for i, n := range x.Names {
			tr.env[mark+i].name = n
		}
		v, err := tr.translate(x.Body)
		tr.env = tr.env[:mark]
		return v, err
	case *ast.IfElse:
		c, err := tr.formula(x.Cond)
		if err != nil {
			return value{}, err
		}
		tv, err := tr.translate(x.Then)
		if err != nil {
			return value{}, err
		}
		ev, err := tr.translate(x.Else)
		if err != nil {
			return value{}, err
		}
		switch {
		case tv.kind == kindFormula && ev.kind == kindFormula:
			return formulaValue(tr.Ite(c, tv.node, ev.node)), nil
		case tv.kind == kindMatrix && ev.kind == kindMatrix:
			return matrixValue(tv.m.Ite(c, ev.m)), nil
		}
		return value{}, fmt.Errorf("%s: incompatible if-else branches", e.Pos())
	case *ast.Block:
		base := len(tr.scratch)
		for _, sub := range x.Exprs {
			n, err := tr.formula(sub)
			if err != nil {
				return value{}, err
			}
			tr.scratch = append(tr.scratch, n)
		}
		n := tr.And(tr.scratch[base:]...)
		tr.scratch = tr.scratch[:base]
		return formulaValue(n), nil
	default:
		return value{}, fmt.Errorf("%s: cannot translate %T", e.Pos(), e)
	}
}

func (tr *Translator) univMatrix() Matrix {
	out := tr.NewMatrix(1)
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
	out := Matrix{c: tr.Circuit, arity: 2, keys: make([]uint64, 0, u.Len()), nodes: make([]Node, 0, u.Len())}
	for i, k := range u.keys {
		out.add(header(2)|(k&0xff)<<8|k&0xff, u.nodes[i])
	}
	return out
}

// closureKey returns the memo key for a closure expression, and whether the
// expression is cacheable: its operand must not reference any name bound in
// the current frame (a quantified variable or inlined parameter would make
// the matrix depend on the enclosing instantiation) and must not contain
// pred/fun calls (their inlined bodies follow the per-candidate call
// module, not the translator).
func (tr *Translator) closureKey(x *ast.Unary) (string, bool) {
	cacheable := true
	ast.Walk(x.Sub, func(e ast.Expr) bool {
		switch y := e.(type) {
		case *ast.Call:
			cacheable = false
		case *ast.Ident:
			if _, bound := tr.lookup(y.Name); bound {
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

func (tr *Translator) translateUnary(x *ast.Unary) (value, error) {
	if x.Op == ast.UnNot {
		n, err := tr.formula(x.Sub)
		if err != nil {
			return value{}, err
		}
		return formulaValue(Not(n)), nil
	}
	if x.Op == ast.UnCard {
		m, err := tr.expr(x.Sub)
		if err != nil {
			return value{}, err
		}
		return value{kind: kindCount, m: m}, nil
	}
	if x.Op == ast.UnClosure || x.Op == ast.UnReflClose {
		if key, ok := tr.closureKey(x); ok {
			if m, hit := tr.closureMemo[key]; hit {
				return matrixValue(m), nil
			}
			sub, err := tr.expr(x.Sub)
			if err != nil {
				return value{}, err
			}
			var m Matrix
			if x.Op == ast.UnClosure {
				m = sub.Closure()
			} else {
				m = sub.ReflClosure(tr.Bounds.AllAtoms())
			}
			tr.closureMemo[key] = m
			return matrixValue(m), nil
		}
	}
	m, err := tr.expr(x.Sub)
	if err != nil {
		return value{}, err
	}
	switch x.Op {
	case ast.UnTranspose:
		return matrixValue(m.Transpose()), nil
	case ast.UnClosure:
		return matrixValue(m.Closure()), nil
	case ast.UnReflClose:
		return matrixValue(m.ReflClosure(tr.Bounds.AllAtoms())), nil
	case ast.UnNo:
		return formulaValue(m.None()), nil
	case ast.UnSome:
		return formulaValue(m.Some()), nil
	case ast.UnLone:
		return formulaValue(m.Lone()), nil
	case ast.UnOne:
		return formulaValue(m.One()), nil
	case ast.UnSet:
		return formulaValue(TrueNode), nil
	default:
		return value{}, fmt.Errorf("%s: cannot translate unary %s", x.Pos(), x.Op)
	}
}

func (tr *Translator) translateBinary(x *ast.Binary) (value, error) {
	switch x.Op {
	case ast.BinAnd, ast.BinOr, ast.BinImplies, ast.BinIff:
		l, err := tr.formula(x.Left)
		if err != nil {
			return value{}, err
		}
		r, err := tr.formula(x.Right)
		if err != nil {
			return value{}, err
		}
		switch x.Op {
		case ast.BinAnd:
			return formulaValue(tr.And(l, r)), nil
		case ast.BinOr:
			return formulaValue(tr.Or(l, r)), nil
		case ast.BinImplies:
			return formulaValue(tr.Implies(l, r)), nil
		default:
			return formulaValue(tr.Iff(l, r)), nil
		}
	}

	lv, err := tr.translate(x.Left)
	if err != nil {
		return value{}, err
	}
	rv, err := tr.translate(x.Right)
	if err != nil {
		return value{}, err
	}

	if lv.isInt() || rv.isInt() {
		if !lv.isInt() || !rv.isInt() {
			return value{}, fmt.Errorf("%s: mixing Int and relational operands", x.Pos())
		}
		n, err := tr.intCompare(x.Op, lv, rv, x.Pos().String())
		return formulaValue(n), err
	}

	if lv.kind != kindMatrix {
		return value{}, fmt.Errorf("%s: expected relational left operand", x.Pos())
	}
	if rv.kind != kindMatrix {
		return value{}, fmt.Errorf("%s: expected relational right operand", x.Pos())
	}
	l, r := lv.m, rv.m
	switch x.Op {
	case ast.BinJoin:
		return matrixValue(l.Join(r)), nil
	case ast.BinProduct:
		return matrixValue(l.Product(r)), nil
	case ast.BinUnion:
		return matrixValue(l.Union(r)), nil
	case ast.BinDiff:
		return matrixValue(l.Diff(r)), nil
	case ast.BinIntersect:
		return matrixValue(l.Intersect(r)), nil
	case ast.BinOverride:
		return matrixValue(l.Override(r)), nil
	case ast.BinDomRestr:
		return matrixValue(r.DomRestr(l)), nil
	case ast.BinRanRestr:
		return matrixValue(l.RanRestr(r)), nil
	case ast.BinIn:
		return formulaValue(l.SubsetOf(r)), nil
	case ast.BinNotIn:
		return formulaValue(Not(l.SubsetOf(r))), nil
	case ast.BinEq:
		return formulaValue(l.EqualTo(r)), nil
	case ast.BinNotEq:
		return formulaValue(Not(l.EqualTo(r))), nil
	default:
		return value{}, fmt.Errorf("%s: cannot translate binary %s", x.Pos(), x.Op)
	}
}

// intCompare encodes comparisons between integer values: cardinalities and
// literals.
func (tr *Translator) intCompare(op ast.BinOp, l, r value, where string) (Node, error) {
	// atLeast(c, j): formula "c >= j".
	atLeast := func(c value, j int) Node {
		if c.kind == kindInt {
			if c.lit >= j {
				return TrueNode
			}
			return FalseNode
		}
		return tr.atLeast(c.m.nodes, j)
	}
	maxOf := func(c value) int {
		if c.kind == kindInt {
			return c.lit
		}
		return len(c.m.nodes)
	}
	n := max(maxOf(l), maxOf(r))
	// l >= r  iff  for every j, r >= j implies l >= j.
	geq := func(a, b value) Node {
		base := len(tr.scratch)
		for j := 1; j <= n+1; j++ {
			part := tr.Implies(atLeast(b, j), atLeast(a, j))
			tr.scratch = append(tr.scratch, part)
		}
		g := tr.And(tr.scratch[base:]...)
		tr.scratch = tr.scratch[:base]
		return g
	}
	switch op {
	case ast.BinEq:
		return tr.And(geq(l, r), geq(r, l)), nil
	case ast.BinNotEq:
		return Not(tr.And(geq(l, r), geq(r, l))), nil
	case ast.BinLtEq:
		return geq(r, l), nil
	case ast.BinGtEq:
		return geq(l, r), nil
	case ast.BinLt:
		return Not(geq(l, r)), nil
	case ast.BinGt:
		return Not(geq(r, l)), nil
	default:
		return FalseNode, fmt.Errorf("%s: unsupported Int operator %s", where, op)
	}
}

// translateCall inlines a pred or fun body: the arguments are computed in
// the caller's scope, and the body runs in a frame that sees only its
// parameters.
func (tr *Translator) translateCall(x *ast.Call) (value, error) {
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
		return value{}, fmt.Errorf("%s: unknown call target %q", x.Pos(), x.Name)
	}
	names := 0
	for _, d := range params {
		names += len(d.Names)
	}
	if names != len(x.Args) {
		return value{}, fmt.Errorf("%s: %s expects %d args, got %d", x.Pos(), x.Name, names, len(x.Args))
	}
	mark := len(tr.env)
	for _, a := range x.Args {
		m, err := tr.expr(a)
		if err != nil {
			return value{}, err
		}
		tr.env = append(tr.env, binding{m: m})
	}
	i := mark
	for _, d := range params {
		for _, n := range d.Names {
			tr.env[i].name = n
			i++
		}
	}
	base := tr.base
	tr.base = mark
	v, err := tr.translate(body)
	tr.env, tr.base = tr.env[:mark], base
	return v, err
}

// grounding is the bindings of a quantifier's variables over their upper
// bounds: binding i gives names[j] the tuple keys[i*len(names)+j], and its
// guard guards[i] is the condition that each tuple is in its bound.
type grounding struct {
	names  []string
	keys   []uint64
	guards []Node
}

// bind pushes the names of g onto the environment stack, one slot each,
// and returns the first slot; set fills them with a binding's tuples.
func (tr *Translator) bind(g *grounding) int {
	mark := len(tr.env)
	for _, n := range g.names {
		tr.env = append(tr.env, binding{name: n})
	}
	return mark
}

// set binds the names of g, pushed at mark, to the tuples of binding i.
func (tr *Translator) set(g *grounding, mark, i int) {
	n := len(g.names)
	for j := range g.names {
		tr.env[mark+j].m = singleton(tr.Circuit, g.keys[i*n+j:])
	}
}

// ground enumerates all bindings of the declarations over their upper
// bounds. Each decl bound is translated with the earlier variables bound
// to their tuples, so dependent bounds (y: x.f) work.
func (tr *Translator) ground(decls []*ast.Decl) (*grounding, error) {
	// slot is one quantified variable; a variable of a disjoint decl must
	// differ from those at flat positions disj up to its own, the earlier
	// variables of its decl.
	type slot struct {
		expr ast.Expr
		disj int
	}
	g := &grounding{}
	var flat []slot
	for _, d := range decls {
		if d.Mult == ast.MultSet {
			return nil, fmt.Errorf("%s: higher-order (set) quantification is not supported", d.Pos())
		}
		first := len(flat)
		for _, n := range d.Names {
			s := slot{expr: d.Expr, disj: len(flat)}
			if d.Disj {
				s.disj = first
			}
			flat = append(flat, s)
			g.names = append(g.names, n)
		}
	}
	// chosen[p] is the tuple key bound at flat position p; rec(i) reads only
	// positions below i, which its callers have set.
	chosen := make([]uint64, len(flat))
	var rec func(i int, guard Node) error
	rec = func(i int, guard Node) error {
		if err := tr.ctxErr(); err != nil {
			return err
		}
		if i == len(flat) {
			g.keys = append(g.keys, chosen...)
			g.guards = append(g.guards, guard)
			return nil
		}
		s := flat[i]
		dom, err := tr.expr(s.expr)
		if err != nil {
			return err
		}
		top := len(tr.env)
		tr.env = append(tr.env, binding{name: g.names[i]})
	tuples:
		for j, k := range dom.keys {
			for _, p := range chosen[s.disj:i] {
				if p == k {
					continue tuples
				}
			}
			tr.env[top].m = singleton(tr.Circuit, dom.keys[j:])
			chosen[i] = k
			if err := rec(i+1, tr.And(guard, dom.nodes[j])); err != nil {
				return err
			}
		}
		tr.env = tr.env[:top]
		return nil
	}
	if err := rec(0, TrueNode); err != nil {
		return nil, err
	}
	return g, nil
}

func (tr *Translator) translateQuantified(x *ast.Quantified) (value, error) {
	g, err := tr.ground(x.Decls)
	if err != nil {
		return value{}, err
	}
	// Translate the body once per binding: "all" conjoins guard -> body,
	// the others count the bindings where guard AND body holds.
	mark := tr.bind(g)
	base := len(tr.scratch)
	for i, guard := range g.guards {
		tr.set(g, mark, i)
		body, err := tr.formula(x.Body)
		if err != nil {
			return value{}, err
		}
		if x.Quant == ast.QuantAll {
			body = tr.Implies(guard, body)
		} else {
			body = tr.And(guard, body)
		}
		tr.scratch = append(tr.scratch, body)
	}
	tr.env = tr.env[:mark]
	parts := tr.scratch[base:]
	var n Node
	switch x.Quant {
	case ast.QuantAll:
		n = tr.And(parts...)
	case ast.QuantSome:
		n = tr.Or(parts...)
	case ast.QuantNo:
		n = Not(tr.Or(parts...))
	case ast.QuantLone:
		n = tr.lone(parts)
	case ast.QuantOne:
		n = tr.And(tr.Or(parts...), tr.lone(parts))
	default:
		return value{}, fmt.Errorf("%s: unknown quantifier", x.Pos())
	}
	tr.scratch = tr.scratch[:base]
	return formulaValue(n), nil
}

func (tr *Translator) translateComprehension(x *ast.Comprehension) (value, error) {
	g, err := tr.ground(x.Decls)
	if err != nil {
		return value{}, err
	}
	mark := tr.bind(g)
	es := make([]entry, 0, len(g.guards))
	for i, guard := range g.guards {
		tr.set(g, mark, i)
		body, err := tr.formula(x.Body)
		if err != nil {
			return value{}, err
		}
		// The binding's tuple concatenates each variable's singleton tuple.
		var key uint64
		arity := 0
		for _, n := range g.names {
			m, _ := tr.lookup(n)
			k := m.keys[0]
			key |= (k & lanes(keyArity(k))) << (8 * arity)
			arity += keyArity(k)
		}
		es = append(es, entry{header(arity) | key, tr.And(guard, body)})
	}
	tr.env = tr.env[:mark]
	return matrixValue(collect(tr.Circuit, len(g.names), es)), nil
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

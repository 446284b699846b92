package instance_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/types"
	"specrepair/internal/aunit"
	"specrepair/internal/bench"
	"specrepair/internal/bounds"
	"specrepair/internal/instance"
)

type Env = instance.Env

// clone copies the environment.
func clone(e Env) Env {
	out := make(Env, len(e)+2)
	for k, v := range e {
		out[k] = v
	}
	return out
}

// oracle is the evaluator as it was before values were typed and scopes
// became a slot stack: it boxes every result into an any and clones an Env
// map per quantifier level. TupleSet.Singletons, which it iterated domains
// with, lives on below as singletons. The one addition is a budget on the
// assignments a run may visit, for the fuzzer.
type oracle struct {
	Mod  *ast.Module
	Inst *instance.Instance
	// budget, when positive, is how many more assignments the run may
	// visit before it panics with errBudget.
	budget int
}

// errBudget is the panic value of an oracle run that exhausts its budget.
var errBudget = errors.New("assignment budget exhausted")

// EvalFormula evaluates a formula to a boolean.
func (ev *oracle) EvalFormula(e ast.Expr, env Env) (bool, error) {
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
func (ev *oracle) EvalExpr(e ast.Expr, env Env) (bounds.TupleSet, error) {
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

func (ev *oracle) univAtoms() []int {
	out := make([]int, ev.Inst.Universe.Size())
	for i := range out {
		out[i] = i
	}
	return out
}

// eval returns bool, int, or bounds.TupleSet.
func (ev *oracle) eval(e ast.Expr, env Env) (any, error) {
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
		inner := clone(env)
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
func (ev *oracle) univSet() (any, error) {
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

func (ev *oracle) evalUnary(x *ast.Unary, env Env) (any, error) {
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

func (ev *oracle) evalBinary(x *ast.Binary, env Env) (any, error) {
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

func (ev *oracle) evalCall(x *ast.Call, env Env) (any, error) {
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
func (ev *oracle) bindings(decls []*ast.Decl, env Env, fn func(Env) (bool, error)) error {
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
		if ev.budget--; ev.budget == 0 {
			panic(errBudget)
		}
		if i == len(flat) {
			return fn(env)
		}
		b := flat[i]
		dom, err := ev.EvalExpr(b.expr, env)
		if err != nil {
			return false, err
		}
		var inner Env
		for _, single := range singletons(dom) {
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
				inner = clone(env)
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

func (ev *oracle) evalQuantified(x *ast.Quantified, env Env) (any, error) {
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

func (ev *oracle) evalComprehension(x *ast.Comprehension, env Env) (any, error) {
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

// singletons returns one single-tuple set per tuple of ts, in Tuples order.
func singletons(ts bounds.TupleSet) []bounds.TupleSet {
	out := make([]bounds.TupleSet, ts.Len())
	for i := range out {
		out[i] = ts.Singleton(i)
	}
	return out
}

// outcome renders what an evaluation produced, a panic included, so that two
// evaluators agree exactly when their outcomes are equal.
func outcome(u *bounds.Universe, run func() (any, error)) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprint("panic: ", r)
		}
	}()
	v, err := run()
	if err != nil {
		return "error: " + err.Error()
	}
	if ts, ok := v.(bounds.TupleSet); ok {
		return fmt.Sprintf("set of arity %d %s", ts.Arity(), ts.String(u))
	}
	return fmt.Sprint(v)
}

// agree evaluates e as a formula and as an expression with the oracle and
// then the evaluator, and reports the first disagreement, or "". With a
// positive budget, a run that takes the oracle more assignments than that
// is skipped: the evaluator visits the same ones. The evaluator must never
// panic: where the oracle panics in the bounds algebra ("bounds: closure of
// non-binary set"), the evaluator must return an error of the same text
// after its position ("1:6: closure of non-binary set").
func agree(low *ast.Module, inst *instance.Instance, e ast.Expr, budget int) string {
	ev := &instance.Evaluator{Mod: low, Inst: inst}
	or := &oracle{Mod: low, Inst: inst}
	for _, c := range []struct {
		what      string
		want, got func() (any, error)
	}{
		{"formula", func() (any, error) { return or.EvalFormula(e, nil) }, func() (any, error) { return ev.EvalFormula(e, nil) }},
		{"expression", func() (any, error) { return or.EvalExpr(e, nil) }, func() (any, error) { return ev.EvalExpr(e, nil) }},
	} {
		or.budget = budget
		want := outcome(inst.Universe, c.want)
		if want == "panic: "+errBudget.Error() {
			continue
		}
		got := outcome(inst.Universe, c.got)
		if strings.HasPrefix(got, "panic: ") {
			return fmt.Sprintf("as a %s: evaluator %s (oracle %s)", c.what, got, want)
		}
		if msg, ok := strings.CutPrefix(want, "panic: bounds: "); ok {
			if !strings.HasPrefix(got, "error: ") || !strings.HasSuffix(got, ": "+msg) {
				return fmt.Sprintf("as a %s: got %s, oracle %s", c.what, got, want)
			}
			continue
		}
		if got != want {
			return fmt.Sprintf("as a %s: got %s, oracle %s", c.what, got, want)
		}
	}
	return ""
}

// TestEvalOracle runs every generated benchmark suite's tests against the
// faulty and the ground-truth model through both evaluators and through
// aunit, which layers each test's valuation over its model's relation
// defaults. Verdicts and errors must be identical.
func TestEvalOracle(t *testing.T) {
	g := bench.NewGenerator(nil)
	g.Scale = 40
	runs, errs := 0, 0
	for _, gen := range []func() (*bench.Suite, error){g.Alloy4Fun, g.ARepair, g.Synthetic} {
		suite, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range suite.Specs {
			if sp.Tests == nil {
				continue
			}
			for _, mod := range []*ast.Module{sp.Faulty, sp.GroundTruth} {
				low, info, err := types.Lower(mod)
				if err != nil {
					continue // every test fails on the lowering error alone
				}
				model := aunit.Prepare(mod)
				for _, tc := range sp.Tests.Tests {
					inst, err := tc.Instance(info)
					if err != nil {
						t.Fatalf("%s test %s: %v", sp.Name, tc.Name, err)
					}
					var e ast.Expr
					if tc.Formula == aunit.FactsFormula {
						facts := &ast.Block{}
						for _, f := range low.Facts {
							facts.Exprs = append(facts.Exprs, f.Body)
						}
						e = facts
					} else if e, err = parser.ParseExpr(tc.Formula); err != nil {
						t.Fatalf("%s test %s: %v", sp.Name, tc.Name, err)
					} else {
						e = types.RewriteCalls(low, e)
					}
					if d := agree(low, inst, e, 0); d != "" {
						t.Errorf("%s test %s (%s): %s", sp.Name, tc.Name, tc.Formula, d)
					}
					want, wantErr := (&oracle{Mod: low, Inst: inst}).EvalFormula(e, nil)
					wantRun := aunit.Result{Test: tc, Passed: wantErr == nil && want == tc.Expect}
					if wantErr != nil {
						wantRun.Err = fmt.Errorf("test %s: evaluating: %w", tc.Name, wantErr)
						errs++
					}
					if got := model.Run(tc); got.Passed != wantRun.Passed || errText(got.Err) != errText(wantRun.Err) {
						t.Errorf("%s test %s: aunit gave (%v, %v), oracle (%v, %v)",
							sp.Name, tc.Name, got.Passed, got.Err, wantRun.Passed, wantRun.Err)
					}
					runs++
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("no benchmark entry carries a suite")
	}
	t.Logf("%d test runs agree, %d of them evaluation errors", runs, errs)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fuzzFixture is a three-atom instance of a module whose predicate and
// function parameters reuse names a formula is likely to bind.
func fuzzFixture(f *testing.F) (*ast.Module, *instance.Instance) {
	f.Helper()
	mod, err := parser.Parse(`
sig Node { next: set Node, edge: Node -> Node }
sig Mark in Node {}
pred reaches[a: Node, b: Node] { b in a.^next }
pred linked[a, b: Node] { some n: a.next | n in b + b.next }
fun succs[a: Node]: set Node { a.next }
fun pairs[n: Node]: Node -> Node { let a = n.next | a -> n }
run {} for 3
`)
	if err != nil {
		f.Fatal(err)
	}
	low, _, err := types.Lower(mod)
	if err != nil {
		f.Fatal(err)
	}
	u, err := bounds.NewUniverse([]string{"Node$0", "Node$1", "Node$2"})
	if err != nil {
		f.Fatal(err)
	}
	inst := instance.New(u)
	next := bounds.NewTupleSet(2)
	next.Add(bounds.Tuple{0, 1})
	next.Add(bounds.Tuple{1, 2})
	edge := bounds.NewTupleSet(3)
	edge.Add(bounds.Tuple{0, 1, 2})
	edge.Add(bounds.Tuple{2, 2, 0})
	nextPrimed := bounds.NewTupleSet(2)
	nextPrimed.Add(bounds.Tuple{2, 0})
	inst.Rels["Node"] = bounds.UnarySet(0, 1, 2)
	inst.Rels["next"] = next
	inst.Rels["edge"] = edge
	inst.Rels["Mark"] = bounds.UnarySet(0)
	inst.Rels["next'"] = nextPrimed
	return low, inst
}

// FuzzEval evaluates arbitrary formulas over a fixed instance with the
// evaluator and the oracle, which must agree on every value and error text;
// the evaluator reports as errors the arity faults the oracle panics on.
//
//	go test -run='^$' -fuzz=FuzzEval -fuzztime=10s ./internal/instance
func FuzzEval(f *testing.F) {
	low, inst := fuzzFixture(f)
	for _, seed := range []string{
		"all a, b: Node | a in Node and b in Node",
		"all a, b: Node | reaches[b, a] implies linked[a, b]",
		"some disj a, b: Node | a in b.next",
		"all n: Mark | (some n: Node | no n.next) and n in Mark",
		"all a: Node | let a = a.next, b = a | b = a",
		"#{a: Node, b: a.next | some b.next} = 1",
		"{a, b: Node | a -> b in next} = next",
		"all n: Node | some @n",
		"all x: Node, y: x.next | y in x.^next",
		"succs[Mark] = Mark.next and some pairs[Node]",
		"next' != next and some edge[Node]",
		"univ = Node and iden & next = none -> none",
		"#Node + 1 > 2",
		"some Node implies some *next else no next",
		"all a: Node | a.(Node <: next) in a.next ++ Mark",
		"all a: Mark, b: Node - Mark | let b = a, a = b | b = Mark and a not in Mark",
		"all a: Mark | #{disj a, b: Node | b = Mark} = 2",
		"all next: Mark | #next = 1 and #@next = 2",
		"let a = #Node | some a",
		"(some Node) in Node",
		"reaches[Node]",
		"some x: set Node | some x",
		"some *Node",
		"~Node = Node and Node -> edge -> edge = none",
		"Node.Node = none or next <: Node = next or Node :> next = next",
		"Node[Node] = none",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := parser.ParseExpr(src)
		if err != nil {
			return
		}
		if d := agree(low, inst, types.RewriteCalls(low, e), 20000); d != "" {
			t.Fatalf("%q %s", src, d)
		}
	})
}

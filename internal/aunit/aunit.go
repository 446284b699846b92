// Package aunit implements AUnit-style unit tests for Alloy models: a test
// fixes a concrete valuation of every relation and asserts that a formula
// (typically a predicate call, fact conjunction, or their negation) holds or
// fails under it. ARepair consumes suites of these tests as its repair
// oracle, and ICEBAR grows suites from analyzer counterexamples.
package aunit

import (
	"fmt"
	"sort"
	"sync/atomic"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bounds"
	"specrepair/internal/instance"
)

// FactsFormula is the sentinel formula meaning "the conjunction of the
// facts of whichever model the test runs against". ICEBAR's
// counterexample-derived tests use it so that candidate repairs are judged
// by their own facts, exactly like an AUnit run command would be.
const FactsFormula = "$facts"

// Test is one AUnit test case. Its first run resolves the valuation and
// parses the formula, and every later run, against any model and from any
// goroutine, reuses both, so a test must not be modified after its first
// run.
type Test struct {
	Name string `json:"name"`
	// Valuation maps relation names to tuples of atom names. Relations of
	// the model that are absent are empty in the test's instance.
	Valuation map[string][][]string `json:"valuation"`
	// Formula is the asserted formula source (parsed on first run so tests
	// stay printable and serializable). The FactsFormula sentinel denotes
	// the running model's fact conjunction.
	Formula string `json:"formula"`
	// Expect is the required outcome of Formula under Valuation.
	Expect bool `json:"expect"`

	resolved atomic.Pointer[valuation]
}

// valuation is a test's Valuation resolved over its own universe. A
// relation valued with no tuples is held as an empty unary set, which a test
// instance uses only for a relation outside its model. The valuation is
// shared by every instance of the test, so it is never modified.
type valuation struct {
	universe *bounds.Universe
	rels     map[string]bounds.TupleSet
	err      error
	// formula is the parsed Formula (nil for FactsFormula), or formulaErr
	// its parse error. Every model rewrites its own calls into the tree,
	// and the rewrite copies what it changes, so the tree is never
	// modified.
	formula    ast.Expr
	formulaErr error
}

// prepared returns the test's resolved valuation, resolving it on first
// use. Concurrent first runs may each resolve it; they build equal values,
// and whichever is published last is kept.
func (t *Test) prepared() *valuation {
	if v := t.resolved.Load(); v != nil {
		return v
	}
	v := t.resolve()
	t.resolved.Store(v)
	return v
}

func (t *Test) resolve() *valuation {
	v := &valuation{}
	if t.Formula != FactsFormula {
		v.formula, v.formulaErr = parser.ParseExpr(t.Formula)
		if v.formulaErr != nil {
			v.formulaErr = fmt.Errorf("test %s: parsing formula: %w", t.Name, v.formulaErr)
		}
	}
	// Universe: all atoms mentioned anywhere in the valuation, sorted for
	// determinism.
	atomSet := map[string]bool{}
	for _, tuples := range t.Valuation {
		for _, tu := range tuples {
			for _, a := range tu {
				atomSet[a] = true
			}
		}
	}
	atoms := make([]string, 0, len(atomSet))
	for a := range atomSet {
		atoms = append(atoms, a)
	}
	sort.Strings(atoms)
	u, err := bounds.NewUniverse(atoms)
	if err != nil {
		v.err = fmt.Errorf("test %s: %w", t.Name, err)
		return v
	}
	rels := make(map[string]bounds.TupleSet, len(t.Valuation))
	for name, tuples := range t.Valuation {
		var ts bounds.TupleSet
		for _, tu := range tuples {
			idx := make(bounds.Tuple, len(tu))
			for i, a := range tu {
				idx[i] = u.IndexOf(a)
			}
			ts.Add(idx)
		}
		if ts.IsEmpty() {
			ts = bounds.NewTupleSet(1)
		}
		rels[name] = ts
	}
	v.universe, v.rels = u, rels
	return v
}

// Result is the outcome of running one test.
type Result struct {
	Test   *Test
	Passed bool
	Err    error
}

// Suite is an ordered collection of tests.
type Suite struct {
	Tests []*Test
}

// Add appends a test.
func (s *Suite) Add(t *Test) { s.Tests = append(s.Tests, t) }

// Len returns the number of tests.
func (s *Suite) Len() int { return len(s.Tests) }

// Clone returns a shallow copy of the suite (tests are immutable by
// convention).
func (s *Suite) Clone() *Suite {
	return &Suite{Tests: append([]*Test(nil), s.Tests...)}
}

// Run evaluates one test against a model. A test passes when the formula
// evaluates without error to the expected boolean. To run several tests
// against one model, Prepare it once instead.
func (t *Test) Run(mod *ast.Module) Result {
	return Prepare(mod).Run(t)
}

// Model is a module lowered once for running tests against it. Lowering
// type-checks the whole module, and it is the same for every test, so a
// suite run pays for it once. Evaluation only reads the lowered module, so
// one Model may run any number of tests.
type Model struct {
	low  *ast.Module
	info *types.Info
	// defaults binds every relation of the model to an empty set of its
	// checked arity; each test's instance layers its valuation over it.
	defaults map[string]bounds.TupleSet
	// facts is the conjunction of the model's facts, which FactsFormula
	// denotes.
	facts *ast.Block
	err   error
}

// Prepare lowers mod for test runs. A module that does not lower still
// yields a Model: every test run against it fails with that error.
func Prepare(mod *ast.Module) *Model {
	low, info, err := types.Lower(mod)
	return newModel(low, info, err, relationDefaults)
}

func newModel(low *ast.Module, info *types.Info, err error, defaults func(*types.Info) map[string]bounds.TupleSet) *Model {
	m := &Model{low: low, info: info, err: err}
	if err == nil {
		m.defaults = defaults(info)
		m.facts = &ast.Block{}
		for _, f := range low.Facts {
			m.facts.Exprs = append(m.facts.Exprs, f.Body)
		}
	}
	return m
}

// Base prepares the candidates of one module, such as its mutation
// candidates, for test runs. It lowers them against a types.Base, and the
// Models of candidates that share their tables (types.Info.SharesTables)
// share one map of relation defaults. It is not safe for concurrent use.
type Base struct {
	lower *types.Base
	// defaults are the relation defaults of tables, the Info of the last
	// prepared candidate that had to build its own.
	tables   *types.Info
	defaults map[string]bounds.TupleSet
}

// NewBase returns the preparer for candidates of tb's module.
func NewBase(tb *types.Base) *Base { return &Base{lower: tb} }

// Prepare is Prepare(cand), lowering cand against the base. A nil Base
// prepares cand cold.
func (b *Base) Prepare(cand *ast.Module) *Model {
	if b == nil {
		return Prepare(cand)
	}
	low, info, err := b.lower.Lower(cand)
	return newModel(low, info, err, b.relationDefaults)
}

func (b *Base) relationDefaults(info *types.Info) map[string]bounds.TupleSet {
	if b.tables == nil || !info.SharesTables(b.tables) {
		b.tables, b.defaults = info, relationDefaults(info)
	}
	return b.defaults
}

// relationDefaults binds every relation of a checked module, primed ones
// included, to an empty set of its arity, so that the evaluator never sees
// an unbound model relation.
func relationDefaults(info *types.Info) map[string]bounds.TupleSet {
	d := make(map[string]bounds.TupleSet, len(info.SigOrder)+len(info.FieldOrder)+len(info.Primed))
	for _, name := range info.SigOrder {
		d[name] = bounds.NewTupleSet(1)
	}
	for _, name := range info.FieldOrder {
		d[name] = bounds.NewTupleSet(info.Fields[name].Arity)
	}
	for name := range info.Primed {
		arity := 1
		if f, ok := info.Fields[name]; ok {
			arity = f.Arity
		}
		d[name+"'"] = bounds.NewTupleSet(arity)
	}
	return d
}

// Err returns the lowering error, or nil when the model type-checks.
func (m *Model) Err() error { return m.err }

// Info returns the lowered model's type information (nil when Err is not).
func (m *Model) Info() *types.Info { return m.info }

// Run evaluates one test against the model.
func (m *Model) Run(t *Test) Result {
	return m.run(m.evaluator(), t)
}

// evaluator returns an evaluator over the lowered model for run, with an
// instance of its own that each test run overwrites.
func (m *Model) evaluator() *instance.Evaluator {
	return &instance.Evaluator{Mod: m.low, Inst: &instance.Instance{}}
}

// run evaluates one test against the model with an evaluator from
// m.evaluator.
func (m *Model) run(ev *instance.Evaluator, t *Test) Result {
	passed, err := m.eval(ev, t)
	if err != nil {
		return Result{Test: t, Passed: false, Err: err}
	}
	return Result{Test: t, Passed: passed}
}

// RunAll evaluates the whole suite, returning individual results and the
// number of passing tests. One evaluator runs every test, so a test whose
// formula evaluates without allocating runs without allocating.
func (m *Model) RunAll(s *Suite) ([]Result, int) {
	results := make([]Result, 0, len(s.Tests))
	passed := 0
	ev := m.evaluator()
	for _, t := range s.Tests {
		r := m.run(ev, t)
		if r.Passed {
			passed++
		}
		results = append(results, r)
	}
	return results, passed
}

// Instance materializes the test's valuation as a concrete instance over
// the model's relations (absent relations are empty). The instance is the
// caller's own to modify.
func (t *Test) Instance(info *types.Info) (*instance.Instance, error) {
	v := t.prepared()
	if v.err != nil {
		return nil, v.err
	}
	inst := v.instance(relationDefaults(info))
	return inst.Clone(), nil
}

// Instance returns the test's valuation as an instance over the model's
// relations, like Test.Instance, without rebuilding the model's relation
// defaults or copying anything: the instance shares the test's and the
// model's maps, so it must not be modified.
func (m *Model) Instance(t *Test) (*instance.Instance, error) {
	if m.err != nil {
		return nil, fmt.Errorf("test %s: model does not check: %w", t.Name, m.err)
	}
	v := t.prepared()
	if v.err != nil {
		return nil, v.err
	}
	inst := v.instance(m.defaults)
	return &inst, nil
}

// instance returns the test's instance over a model with the given
// relation defaults: the valuation layered over them. A relation the
// valuation gives tuples takes them; any other model relation is empty with
// the model's arity; a relation outside the model valued with no tuples is
// empty and unary. The instance shares both maps, so it must not be
// modified.
func (v *valuation) instance(defaults map[string]bounds.TupleSet) instance.Instance {
	return instance.Instance{Universe: v.universe, Rels: v.rels, Base: defaults}
}

func (m *Model) eval(ev *instance.Evaluator, t *Test) (bool, error) {
	if m.err != nil {
		return false, fmt.Errorf("test %s: model does not check: %w", t.Name, m.err)
	}
	v := t.prepared()
	if v.err != nil {
		return false, v.err
	}

	var expr ast.Expr = m.facts
	if t.Formula != FactsFormula {
		if v.formulaErr != nil {
			return false, v.formulaErr
		}
		expr = types.RewriteCalls(m.low, v.formula)
	}

	*ev.Inst = v.instance(m.defaults)
	got, err := ev.EvalFormula(expr, nil)
	if err != nil {
		return false, fmt.Errorf("test %s: evaluating: %w", t.Name, err)
	}
	return got == t.Expect, nil
}

// RunAll evaluates the whole suite against mod, lowering it once, and
// returns individual results and the number of passing tests.
func (s *Suite) RunAll(mod *ast.Module) ([]Result, int) {
	return Prepare(mod).RunAll(s)
}

// AllPass reports whether every test in the suite passes on the model.
func (s *Suite) AllPass(mod *ast.Module) bool {
	_, passed := s.RunAll(mod)
	return passed == len(s.Tests)
}

// FromInstance converts an analyzer instance into a test asserting that
// formula evaluates to expect under exactly that instance — the mechanism
// ICEBAR uses to turn counterexamples into regression tests.
func FromInstance(name string, inst *instance.Instance, formula string, expect bool) *Test {
	val := map[string][][]string{}
	for _, rel := range inst.Names() {
		var tuples [][]string
		for _, tu := range inst.Rel(rel).Tuples() {
			names := make([]string, len(tu))
			for i, a := range tu {
				names[i] = inst.Universe.Atom(a)
			}
			tuples = append(tuples, names)
		}
		val[rel] = tuples
	}
	return &Test{Name: name, Valuation: val, Formula: formula, Expect: expect}
}

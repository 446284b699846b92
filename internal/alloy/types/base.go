package types

import (
	"errors"
	"maps"

	"specrepair/internal/alloy/ast"
)

// Base checks the candidates derived from one module, such as the
// mutation candidates of a repair search, against that module's own check.
// Base.Check and Base.Lower return what Check and Lower return for the
// candidate, error texts and printed modules alike; they only do less work
// when the candidate shares most of the base.
//
// A candidate is checked relative to the base when its signatures are the
// base's by pointer and its predicates, functions and assertions match the
// base's one for one in name, parameter declarations (by pointer) and
// function result. Its Info then holds the base's Sigs, SigOrder, Fields
// and FieldOrder, its Module the base's checked signatures and desugared
// "S$fact" facts, and every paragraph it shares with the base by pointer,
// at the same index, keeps the base's lowering, check errors and primed
// names. Only its other paragraphs are lowered and checked, and errors are
// reported in Check's order. Primed is the base's map when the primed
// names come out the same, and then Info.SharesTables holds between the
// candidate's Info and the base's. Any other module takes Check or Lower
// itself.
//
// A Base holds one module's tables and its paragraphs' results, and the
// last candidate Lower returned; it is not safe for concurrent use.
type Base struct {
	mod *ast.Module
	// check and lower are the base's results for Check and Lower, built on
	// first use.
	check, lower *baseMode
	// last is the candidate Lower answered last, with its answer: a search
	// screens a candidate and then judges it, and both lower it once.
	last     *ast.Module
	lastLow  *ast.Module
	lastInfo *Info
	lastErr  error
}

// NewBase returns the base for candidates of mod. It checks nothing until
// the first Check or Lower.
func NewBase(mod *ast.Module) *Base { return &Base{mod: mod} }

// Module returns the module the base checks candidates against.
func (b *Base) Module() *ast.Module { return b.mod }

// Check is types.Check(cand), reusing what cand shares with the base.
func (b *Base) Check(cand *ast.Module) (*Info, error) {
	if b.check == nil {
		b.check = newBaseMode(b.mod, false)
	}
	if info, err, ok := b.check.relative(b.mod, cand); ok {
		return info, err
	}
	return Check(cand)
}

// Lower is types.Lower(cand), reusing what cand shares with the base. A
// nil Base lowers cand cold.
func (b *Base) Lower(cand *ast.Module) (*ast.Module, *Info, error) {
	if b == nil {
		return Lower(cand)
	}
	if cand == b.last {
		return b.lastLow, b.lastInfo, b.lastErr
	}
	if b.lower == nil {
		b.lower = newBaseMode(b.mod, true)
	}
	var low *ast.Module
	info, err, ok := b.lower.relative(b.mod, cand)
	switch {
	case !ok:
		low, info, err = Lower(cand)
	case err != nil:
		info = nil
	default:
		low = info.Module
	}
	b.last, b.lastLow, b.lastInfo, b.lastErr = cand, low, info, err
	return low, info, err
}

// baseMode is the base's result for one of Check and Lower, paragraph by
// paragraph.
type baseMode struct {
	lower bool
	// info is the base's Info; nil when the base's signatures or fields do
	// not check, and then every candidate takes the cold path.
	info *Info
	// sigPrimes lists the names primed in field declarations.
	sigPrimes []string
	facts     []paragraph[ast.Fact]
	sigFacts  []paragraph[ast.Fact]
	preds     []paragraph[ast.Pred]
	funs      []paragraph[ast.Fun]
	asserts   []paragraph[ast.Assert]
	commands  []paragraph[ast.Command]
}

// paragraph is one paragraph of the base with its result: its lowered form
// (itself under Check) and what checking that reported.
type paragraph[T any] struct {
	src, low *T
	errs     []error
	primes   []string
}

func newBaseMode(mod *ast.Module, lower bool) *baseMode {
	m := &baseMode{lower: lower}
	checked := mod
	if lower {
		checked = lowerCalls(mod)
	}
	c := newChecker(checked, nil)
	c.collectSigs()
	c.collectFields()
	if len(c.errs) > 0 {
		return m
	}
	m.sigPrimes = c.primes
	c.desugarSigFacts()
	n := len(mod.Facts)
	m.facts = record(c, mod.Facts, c.mod.Facts[:n], c.checkFact)
	m.sigFacts = record(c, c.mod.Facts[n:], c.mod.Facts[n:], c.checkFact)
	m.preds = record(c, mod.Preds, c.mod.Preds, c.checkPred)
	m.funs = record(c, mod.Funs, c.mod.Funs, c.checkFun)
	m.asserts = record(c, mod.Asserts, c.mod.Asserts, c.checkAssert)
	m.commands = record(c, mod.Commands, c.mod.Commands, c.checkCommand)
	m.info, _ = c.finish()
	return m
}

// record checks each paragraph of low, the lowered form of src, and
// returns the results.
func record[T any](c *checker, src, low []*T, check func(*T)) []paragraph[T] {
	out := make([]paragraph[T], len(src))
	for i := range src {
		e, p := len(c.errs), len(c.primes)
		check(low[i])
		out[i] = paragraph[T]{
			src:    src[i],
			low:    low[i],
			errs:   c.errs[e:len(c.errs):len(c.errs)],
			primes: c.primes[p:len(c.primes):len(c.primes)],
		}
	}
	return out
}

// relative returns cand's result, computed from the base's; ok is false
// when cand does not share the base's tables.
func (m *baseMode) relative(base, cand *ast.Module) (info *Info, err error, ok bool) {
	if m.info == nil || !sameHeaders(base, cand) {
		return nil, nil, false
	}
	bi := m.info
	out := *cand
	info = &Info{
		Module:     &out,
		Sigs:       bi.Sigs,
		SigOrder:   bi.SigOrder,
		Fields:     bi.Fields,
		FieldOrder: bi.FieldOrder,
		tables:     bi.tables,
	}
	// Lookups read only names and headers, which are the base's.
	c := &checker{mod: bi.Module, info: info}
	r := relativeCheck{c: c, lower: m.lower}
	nf := len(m.facts)
	out.Sigs = bi.Module.Sigs
	facts, same := paragraphs(&r, m.facts, bi.Module.Facts[:nf:nf], cand.Facts, factBody, c.checkFact)
	for _, p := range m.sigFacts {
		r.shared(p.errs, p.primes)
	}
	switch {
	case len(m.sigFacts) == 0:
		out.Facts = facts
		if !m.lower {
			// Check returns an input without signature facts as its
			// Info.Module.
			info.Module = cand
		}
	case same && len(cand.Facts) == nf:
		out.Facts = bi.Module.Facts
	default:
		out.Facts = make([]*ast.Fact, 0, len(facts)+len(m.sigFacts))
		out.Facts = append(append(out.Facts, facts...), bi.Module.Facts[nf:]...)
	}
	out.Preds, _ = paragraphs(&r, m.preds, bi.Module.Preds, cand.Preds, predBody, c.checkPred)
	out.Funs, _ = paragraphs(&r, m.funs, bi.Module.Funs, cand.Funs, funBody, c.checkFun)
	out.Asserts, _ = paragraphs(&r, m.asserts, bi.Module.Asserts, cand.Asserts, assertBody, c.checkAssert)
	out.Commands, _ = paragraphs(&r, m.commands, bi.Module.Commands, cand.Commands, commandBlock, c.checkCommand)
	var samePrimed bool
	if info.Primed, samePrimed = m.primed(&r); !samePrimed {
		info.tables = info
	}
	if len(c.errs) > 0 {
		return info, errors.Join(c.errs...), true
	}
	return info, nil, true
}

// relativeCheck accumulates a candidate's paragraph results in Check's
// order: errors in the checker, the primed names of the paragraphs it
// checks in the checker and those of the paragraphs it shares in
// sharedPrimes.
type relativeCheck struct {
	c            *checker
	lower        bool
	sharedPrimes []string
}

func (r *relativeCheck) shared(errs []error, primes []string) {
	r.c.errs = append(r.c.errs, errs...)
	r.sharedPrimes = append(r.sharedPrimes, primes...)
}

// paragraphs checks the candidate's list for one paragraph kind: the
// base's result stands for each paragraph it shares at the same index, and
// every other one is lowered and checked. It returns the list for the
// candidate's checked module: under Check the candidate's own, under Lower
// a prefix of baseLow, the base's lowered list, when every paragraph is
// shared (same reports that), and otherwise a new list.
func paragraphs[T any](r *relativeCheck, base []paragraph[T], baseLow, cand []*T, body func(*T) *ast.Expr, check func(*T)) (list []*T, same bool) {
	var out []*T
	for i, p := range cand {
		if i < len(base) && base[i].src == p {
			r.shared(base[i].errs, base[i].primes)
			if out != nil {
				out[i] = base[i].low
			}
			continue
		}
		low := p
		if r.lower {
			low = lowerOne(r.c.mod, p, body)
			if out == nil {
				out = make([]*T, len(cand))
				copy(out, baseLow[:i])
			}
			out[i] = low
		}
		check(low)
	}
	switch {
	case !r.lower:
		return cand, false
	case out != nil:
		return out, false
	default:
		n := len(cand)
		return baseLow[:n:n], true
	}
}

// primed returns the candidate's primed names, and whether they are the
// base's; the base's map stands for them then.
func (m *baseMode) primed(r *relativeCheck) (map[string]bool, bool) {
	if len(m.info.Primed) == 0 && len(r.c.primes) == 0 {
		return m.info.Primed, true
	}
	primed := map[string]bool{}
	for _, list := range [][]string{m.sigPrimes, r.sharedPrimes, r.c.primes} {
		for _, n := range list {
			primed[n] = true
		}
	}
	if maps.Equal(primed, m.info.Primed) {
		return m.info.Primed, true
	}
	return primed, false
}

// sameHeaders reports whether cand has the base's signatures, by pointer,
// and predicates, functions and assertions that match the base's in the
// names, parameters and results that checking a paragraph looks up.
func sameHeaders(base, cand *ast.Module) bool {
	if len(cand.Sigs) != len(base.Sigs) || len(cand.Preds) != len(base.Preds) ||
		len(cand.Funs) != len(base.Funs) || len(cand.Asserts) != len(base.Asserts) {
		return false
	}
	for i, s := range base.Sigs {
		if cand.Sigs[i] != s {
			return false
		}
	}
	for i, p := range base.Preds {
		if q := cand.Preds[i]; q != p && (q.Name != p.Name || !sameDecls(q.Params, p.Params)) {
			return false
		}
	}
	for i, f := range base.Funs {
		if g := cand.Funs[i]; g != f && (g.Name != f.Name || g.Result != f.Result || !sameDecls(g.Params, f.Params)) {
			return false
		}
	}
	for i, a := range base.Asserts {
		if cand.Asserts[i].Name != a.Name {
			return false
		}
	}
	return true
}

func sameDecls(a, b []*ast.Decl) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package types_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bench"
	"specrepair/internal/mutation"
)

// baseDiff compares the Lower and Check of cand against tb, the Base of
// base, with the cold Lower and Check: the same error text or none, the
// same printed module, and equal tables. It reports whether Check and
// Lower agree on whether cand type-checks, and whether the base-relative
// results share the base's tables.
func baseDiff(t testing.TB, tb *types.Base, base, cand *ast.Module) (agree, shared bool) {
	t.Helper()
	low, info, err := types.Lower(cand)
	blow, binfo, berr := tb.Lower(cand)
	if again, _, _ := tb.Lower(cand); again != blow {
		t.Fatalf("a second Lower of the same candidate returned another module")
	}
	sameResult(t, "Lower", cand, low, info, err, blow, binfo, berr)
	cinfo, cerr := types.Check(cand)
	bcinfo, bcerr := tb.Check(cand)
	var cmod, bcmod *ast.Module
	if cinfo != nil {
		cmod = cinfo.Module
	}
	if bcinfo != nil {
		bcmod = bcinfo.Module
	}
	sameResult(t, "Check", cand, cmod, cinfo, cerr, bcmod, bcinfo, bcerr)
	if (cmod == cand) != (bcmod == cand) {
		t.Fatalf("Check returned its input as Info.Module: cold %v, base-relative %v", cmod == cand, bcmod == cand)
	}
	if binfo != nil {
		_, own, _ := tb.Lower(base)
		shared = own != nil && binfo.SharesTables(own)
	} else {
		own, _ := tb.Check(base)
		shared = own != nil && bcinfo.SharesTables(own)
	}
	return (cerr == nil) == (err == nil), shared
}

func sameResult(t testing.TB, what string, cand, mod *ast.Module, info *types.Info, err error, bmod *ast.Module, binfo *types.Info, berr error) {
	t.Helper()
	if (err == nil) != (berr == nil) || err != nil && err.Error() != berr.Error() {
		t.Fatalf("%s: cold error %v, base-relative error %v\n%s", what, err, berr, printer.Module(cand))
	}
	if (info == nil) != (binfo == nil) || (mod == nil) != (bmod == nil) {
		t.Fatalf("%s: cold result %v/%v, base-relative %v/%v\n%s", what, mod, info, bmod, binfo, printer.Module(cand))
	}
	if mod != nil && !sameParagraphs(mod, bmod) {
		if a, b := printer.Module(mod), printer.Module(bmod); a != b {
			t.Fatalf("%s: printed modules differ:\ncold:\n%s\nbase-relative:\n%s", what, a, b)
		}
	}
	if info == nil {
		return
	}
	if binfo.Module != bmod {
		t.Fatalf("%s: base-relative Info.Module is not the returned module", what)
	}
	for _, c := range []struct {
		name string
		a, b any
	}{
		{"SigOrder", info.SigOrder, binfo.SigOrder},
		{"FieldOrder", info.FieldOrder, binfo.FieldOrder},
		{"Primed", info.Primed, binfo.Primed},
		{"Sigs", info.Sigs, binfo.Sigs},
		{"Fields", info.Fields, binfo.Fields},
		{"TypeOf", info.TypeOf, binfo.TypeOf},
	} {
		if !reflect.DeepEqual(c.a, c.b) {
			t.Fatalf("%s: %s differs: cold %v, base-relative %v\n%s", what, c.name, c.a, c.b, printer.Module(cand))
		}
	}
}

// sameParagraphs reports whether a and b hold the same paragraphs by
// pointer, so that they print the same.
func sameParagraphs(a, b *ast.Module) bool {
	return a.Name == b.Name && slices.Equal(a.Sigs, b.Sigs) && slices.Equal(a.Facts, b.Facts) &&
		slices.Equal(a.Preds, b.Preds) && slices.Equal(a.Funs, b.Funs) &&
		slices.Equal(a.Asserts, b.Asserts) && slices.Equal(a.Commands, b.Commands)
}

// forEachCandidate calls f on every BudgetTemplates candidate and every
// DropConjunct result of eng's module.
func forEachCandidate(t testing.TB, eng *mutation.Engine, f func(*ast.Module)) {
	for _, s := range eng.Sites() {
		for _, c := range eng.Candidates(s, mutation.BudgetTemplates) {
			cand, err := eng.Apply(s.Site, c)
			if err != nil {
				t.Fatal(err)
			}
			f(cand)
		}
		drops, err := mutation.DropConjunct(eng.Mod, s.Site)
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range drops {
			f(cand)
		}
	}
}

// TestBaseMatchesCold holds the base-relative Lower and Check to the cold
// ones on every template-budget mutation candidate and every dropped
// conjunct of the scale-40 A4F, ARepair and SYN faulty and ground-truth
// modules (each distinct text once), and on every one of those modules
// itself. It also requires Check and Lower to agree on which candidates
// type-check, which lets a repair screen use the lowering's error as its
// type gate.
func TestBaseMatchesCold(t *testing.T) {
	seen := map[string]bool{}
	var mods []*ast.Module
	for _, mod := range contractModules(t) {
		if src := printer.Module(mod); !seen[src] {
			seen[src] = true
			mods = append(mods, mod)
		}
	}
	var cands, shared atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	t.Run("corpora", func(t *testing.T) {
		for w := range workers {
			t.Run(fmt.Sprint(w), func(t *testing.T) {
				t.Parallel()
				for i := w; i < len(mods); i += workers {
					eng, err := mutation.NewEngine(mods[i])
					if err != nil {
						t.Fatalf("NewEngine: %v\n%s", err, printer.Module(mods[i]))
					}
					tb := eng.Base()
					baseDiff(t, tb, eng.Mod, eng.Mod)
					forEachCandidate(t, eng, func(cand *ast.Module) {
						agree, sh := baseDiff(t, tb, eng.Mod, cand)
						cands.Add(1)
						if sh {
							shared.Add(1)
						}
						if !agree {
							t.Errorf("Check and Lower disagree on whether a candidate type-checks:\n%s", printer.Module(cand))
						}
					})
				}
			})
		}
	})
	t.Logf("%d modules, %d candidates, %d sharing the base's tables", len(mods), cands.Load(), shared.Load())
	if n := cands.Load(); n == 0 || shared.Load() < n*9/10 {
		t.Errorf("only %d of %d candidates share their base's tables", shared.Load(), n)
	}
}

// TestBaseWithSignatureFacts checks candidates of modules that keep their
// appended signature facts, so the base desugars them: each candidate
// reuses the base's "S$fact" facts, under Check and Lower.
func TestBaseWithSignatureFacts(t *testing.T) {
	n := 0
	for _, src := range sigFactSources {
		mod, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := mutation.NewEngine(mod)
		if err != nil {
			t.Fatal(err)
		}
		tb := types.NewBase(mod)
		baseDiff(t, tb, mod, mod)
		for _, s := range eng.Sites() {
			if s.Container.Kind == mutation.InFact && s.Container.Index >= len(mod.Facts) {
				continue // a desugared signature fact, which mod does not have
			}
			for _, c := range eng.Candidates(s, mutation.BudgetTemplates) {
				cand, err := mutation.Apply(mod, s.Site, c)
				if err != nil {
					t.Fatal(err)
				}
				if _, sh := baseDiff(t, tb, mod, cand); !sh {
					t.Fatalf("a candidate of a module with signature facts does not share its tables:\n%s", printer.Module(cand))
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no candidates")
	}
}

// TestBaseFallsBack covers the candidates that must take the cold path,
// and checks that they do (their tables are their own) and still match it.
func TestBaseFallsBack(t *testing.T) {
	src := `abstract sig A { f: set A }
sig B, C extends A { g: set A }
pred reach[x: A, y: A] { y in x.^f }
fun succ[x: A]: set A { x.f }
fact Reach { all a: A | reach[a, a] implies some succ[a] }
fact { all b: B | b.g' in b.f }
assert Closed { all a: A | reach[a, a] implies some a.f }
check Closed for 3
run { some a: A | reach[a, a] } for 2`
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tb := types.NewBase(mod)
	if _, sh := baseDiff(t, tb, mod, mod); !sh {
		t.Fatal("the base does not share its own tables")
	}

	reparsed, err := parser.Parse(printer.Module(mod))
	if err != nil {
		t.Fatal(err)
	}

	multiplicity := *mod
	sig := *mod.Sigs[0]
	field := *sig.Fields[0]
	field.Mult = ast.MultLone
	sig.Fields = []*ast.Decl{&field}
	multiplicity.Sigs = []*ast.Sig{&sig, mod.Sigs[1]}

	params := *mod
	pred := *mod.Preds[0]
	pred.Params = []*ast.Decl{{Names: []string{"x", "y"}, Mult: ast.MultDefault, Expr: &ast.Ident{Name: "A"}}}
	params.Preds = []*ast.Pred{&pred}

	sigFact := *mod
	multi := *mod.Sigs[1]
	multi.Fact = &ast.Binary{Op: ast.BinIn, Left: &ast.Ident{Name: "g"}, Right: &ast.Ident{Name: "f"}}
	sigFact.Sigs = []*ast.Sig{mod.Sigs[0], &multi}

	for _, c := range []struct {
		name string
		cand *ast.Module
	}{
		{"re-parsed", reparsed},
		{"field multiplicity", &multiplicity},
		{"pred params", &params},
		{"multi-name sig with an appended fact", &sigFact},
	} {
		if _, sh := baseDiff(t, tb, mod, c.cand); sh {
			t.Errorf("%s: the candidate shares the base's tables", c.name)
		}
	}

	// A candidate that primes a name the base does not, and one that drops
	// the base's only prime, keep the base's signature tables but not its
	// primed names.
	primes := *mod
	fact := *mod.Facts[0]
	fact.Body = &ast.Unary{Op: ast.UnSome, Sub: &ast.Prime{Sub: &ast.Ident{Name: "f"}}}
	primes.Facts = []*ast.Fact{&fact, mod.Facts[1]}
	dropped := *mod
	dropped.Facts = mod.Facts[:1]
	for _, cand := range []*ast.Module{&primes, &dropped} {
		if _, sh := baseDiff(t, tb, mod, cand); sh {
			t.Errorf("a candidate with other primed names shares the base's tables:\n%s", printer.Module(cand))
		}
	}
}

// FuzzBaseLower holds the base-relative Lower and Check to the cold ones on
// a mutation candidate, chosen by site and candidate index, of an
// arbitrary module that type-checks. Seeds are the printed benchmark
// corpora.
//
//	go test -run='^$' -fuzz=FuzzBaseLower -fuzztime=10s ./internal/alloy/types
func FuzzBaseLower(f *testing.F) {
	seen := map[string]bool{}
	for i, mod := range contractModules(f) {
		src := printer.Module(mod)
		if !seen[src] {
			seen[src] = true
			f.Add(src, uint16(i*7), uint16(i))
		}
	}
	f.Fuzz(func(t *testing.T, src string, site, cand uint16) {
		mod, err := parser.Parse(src)
		if err != nil {
			return
		}
		eng, err := mutation.NewEngine(mod)
		if err != nil {
			return
		}
		tb := eng.Base()
		baseDiff(t, tb, eng.Mod, eng.Mod)
		sites := eng.Sites()
		if len(sites) == 0 {
			return
		}
		s := sites[int(site)%len(sites)]
		cands := eng.Candidates(s, mutation.BudgetTemplates)
		drops, err := mutation.DropConjunct(eng.Mod, s.Site)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands)+len(drops) == 0 {
			return
		}
		var m *ast.Module
		if k := int(cand) % (len(cands) + len(drops)); k < len(cands) {
			if m, err = eng.Apply(s.Site, cands[k]); err != nil {
				t.Fatal(err)
			}
		} else {
			m = drops[k-len(cands)]
		}
		baseDiff(t, tb, eng.Mod, m)
	})
}

// BenchmarkLowerCandidates lowers, per op, every template-budget mutation
// candidate of the scale-40 SYN faulty and ground-truth modules (each
// distinct text once): cold with Lower, and against a Base of each module
// built within the op.
//
//	go test -run='^$' -bench=LowerCandidates -benchtime=5x ./internal/alloy/types
func BenchmarkLowerCandidates(b *testing.B) {
	g := bench.NewGenerator(nil)
	g.Scale = 40
	syn, err := g.Synthetic()
	if err != nil {
		b.Fatal(err)
	}
	type stream struct {
		base  *ast.Module
		cands []*ast.Module
	}
	var streams []stream
	n := 0
	seen := map[string]bool{}
	for _, sp := range syn.Specs {
		for _, mod := range []*ast.Module{sp.Faulty, sp.GroundTruth} {
			src := printer.Module(mod)
			if seen[src] {
				continue
			}
			seen[src] = true
			eng, err := mutation.NewEngine(mod)
			if err != nil {
				b.Fatal(err)
			}
			s := stream{base: eng.Mod}
			for _, site := range eng.Sites() {
				for _, c := range eng.Candidates(site, mutation.BudgetTemplates) {
					cand, err := eng.Apply(site.Site, c)
					if err != nil {
						b.Fatal(err)
					}
					s.cands = append(s.cands, cand)
				}
			}
			streams = append(streams, s)
			n += len(s.cands)
		}
	}
	lower := map[string]func(s stream){
		"cold": func(s stream) {
			for _, c := range s.cands {
				types.Lower(c)
			}
		},
		"base": func(s stream) {
			tb := types.NewBase(s.base)
			for _, c := range s.cands {
				tb.Lower(c)
			}
		},
	}
	for _, name := range []string{"cold", "base"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, s := range streams {
					lower[name](s)
				}
			}
			b.ReportMetric(float64(n), "cands/op")
		})
	}
}

// TestLowerChecksCallArity holds Lower and Base.Lower to Check's error text
// on a predicate or function applied to too many or too few arguments, in
// each kind of paragraph that holds a formula, alone and followed by a
// second error. The base-relative Lower runs both on the module itself and
// on it as a candidate of the well-typed module it differs from in one
// paragraph.
func TestLowerChecksCallArity(t *testing.T) {
	const tmpl = `sig Node { next: lone Node }
pred p[a, b: Node] { a in b.next }
fun f[a, b: Node]: set Node { a.next + b }
fact F { %s }
pred q { %s }
assert A { %s }
check A for 3
run { %s } for 3
`
	const ok = "all n: Node | p[n, n] and some f[n, n]"
	good := mustParseBase(t, fmt.Sprintf(tmpl, ok, ok, ok, ok))
	places := []string{"fact", "pred", "assert", "command"}
	for _, call := range []string{"p[n, n, n]", "p[n]", "some f[n, n, n]", "some f[n]"} {
		for _, second := range []string{"", " and n in Missing"} {
			for i, place := range places {
				bodies := []any{ok, ok, ok, ok}
				bodies[i] = "all n: Node | " + call + second
				bad := mustParseBase(t, fmt.Sprintf(tmpl, bodies...))
				_, cerr := types.Check(bad)
				if cerr == nil || !strings.Contains(cerr.Error(), "expects 2 arguments") {
					t.Fatalf("%s in %s: Check error %v, want an argument count", call+second, place, cerr)
				}
				cand := *good
				switch place {
				case "fact":
					cand.Facts = bad.Facts
				case "pred":
					cand.Preds = bad.Preds
				case "assert":
					cand.Asserts = bad.Asserts
				case "command":
					cand.Commands = bad.Commands
				}
				_, _, lerr := types.Lower(bad)
				_, _, serr := types.NewBase(bad).Lower(bad)
				_, _, rerr := types.NewBase(good).Lower(&cand)
				for what, err := range map[string]error{"Lower": lerr, "Base.Lower": serr, "Base.Lower of a candidate": rerr} {
					if err == nil || err.Error() != cerr.Error() {
						t.Errorf("%s in %s: %s error %v, want Check's %q", call+second, place, what, err, cerr)
					}
				}
			}
		}
	}
}

func mustParseBase(t *testing.T, src string) *ast.Module {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src)
	}
	return mod
}

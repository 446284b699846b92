package mutation_test

import (
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bench"
	"specrepair/internal/mutation"
)

// shareSpecs returns every A4F and ARepair spec at scale 40.
func shareSpecs(t *testing.T) []*bench.Spec {
	t.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 40
	a4f, ar, err := g.Both()
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]*bench.Spec(nil), a4f.Specs...), ar.Specs...)
}

// checkShared fails unless got shares every paragraph of mod except the one
// the site edits, and does not share that one.
func checkShared(t *testing.T, name string, mod, got *ast.Module, s mutation.Site) {
	t.Helper()
	same := func(kind mutation.ContainerKind, i int, a, b any) {
		edited := s.Container.Kind == kind && s.Container.Index == i
		if (a == b) == edited {
			t.Errorf("%s %v: %s #%d shared=%v, edited=%v", name, s, kind, i, a == b, edited)
		}
	}
	for i := range mod.Facts {
		same(mutation.InFact, i, mod.Facts[i], got.Facts[i])
	}
	for i := range mod.Preds {
		same(mutation.InPred, i, mod.Preds[i], got.Preds[i])
	}
	for i := range mod.Funs {
		same(mutation.InFun, i, mod.Funs[i], got.Funs[i])
	}
	for i := range mod.Asserts {
		same(mutation.InAssert, i, mod.Asserts[i], got.Asserts[i])
	}
	for i := range mod.Sigs {
		if mod.Sigs[i] != got.Sigs[i] {
			t.Errorf("%s %v: sig #%d not shared", name, s, i)
		}
	}
	for i := range mod.Commands {
		if mod.Commands[i] != got.Commands[i] {
			t.Errorf("%s %v: command #%d not shared", name, s, i)
		}
	}
}

// TestApplyMatchesDeepClone checks the copy-on-write Apply against a
// deep-clone-then-replace reference for every site and BudgetTemplates
// candidate of every bench spec, and DropConjunct the same way. Untouched
// paragraphs must be pointer-shared, and the input must print unchanged
// after its results are lowered and type-checked.
func TestApplyMatchesDeepClone(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the scale-40 corpus")
	}
	applies := 0
	for _, sp := range shareSpecs(t) {
		eng, err := mutation.NewEngine(sp.Faulty)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		mod := eng.Mod
		before := printer.Module(mod)
		for _, s := range eng.Sites() {
			for ci, c := range eng.Candidates(s, mutation.BudgetTemplates) {
				got, err := mutation.Apply(mod, s.Site, c)
				want, werr := mutation.DeepApply(mod, s.Site, c)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s %v: Apply err %v, reference err %v", sp.Name, s.Site, err, werr)
				}
				if err != nil {
					continue
				}
				applies++
				if g, w := printer.Module(got), printer.Module(want); g != w {
					t.Fatalf("%s %v: Apply printed\n%s\nreference printed\n%s", sp.Name, s.Site, g, w)
				}
				checkShared(t, sp.Name, mod, got, s.Site)
				if ci == 0 {
					// Lowering and checking a clone of the result must leave the
					// shared paragraphs, and so the input, untouched.
					types.Lower(got)
					types.Check(got.Clone())
					if p := printer.Module(mod); p != before {
						t.Fatalf("%s %v: input changed after lowering a result", sp.Name, s.Site)
					}
				}
			}
			blk, ok := s.Node.(*ast.Block)
			if !ok || len(blk.Exprs) < 2 {
				continue
			}
			drops, err := mutation.DropConjunct(mod, s.Site)
			if err != nil || len(drops) != len(blk.Exprs) {
				t.Fatalf("%s %v: DropConjunct gave %d modules, err %v", sp.Name, s.Site, len(drops), err)
			}
			for i, got := range drops {
				kept := &ast.Block{OpenPos: blk.OpenPos}
				for j, e := range blk.Exprs {
					if j != i {
						kept.Exprs = append(kept.Exprs, e)
					}
				}
				want, err := mutation.DeepApply(mod, s.Site, kept)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := printer.Module(got), printer.Module(want); g != w {
					t.Fatalf("%s %v drop %d: DropConjunct printed\n%s\nreference printed\n%s", sp.Name, s.Site, i, g, w)
				}
				checkShared(t, sp.Name, mod, got, s.Site)
			}
		}
		if p := printer.Module(mod); p != before {
			t.Fatalf("%s: Apply changed its input", sp.Name)
		}
	}
	if applies == 0 {
		t.Fatal("no candidate was applied")
	}
}

package mutation

import (
	"strings"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
)

const model = `
sig Node { next: set Node, prev: set Node }
sig Mark in Node {}
fact Shape {
  no n: Node | n in n.next
  all n: Node | n.prev = next.n
}
pred touched[m: Mark] {
  some m.next
  m in Node
}
run touched for 3
`

func engine(t *testing.T) *Engine {
	t.Helper()
	mod, err := parser.Parse(model)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(mod)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSitesEnumeration(t *testing.T) {
	eng := engine(t)
	sites := eng.Sites()
	if len(sites) < 10 {
		t.Fatalf("expected many sites, got %d", len(sites))
	}
	// The first site of each container is its body block.
	if sites[0].Container.Kind != InFact || len(sites[0].Path) != 0 {
		t.Errorf("first site = %+v", sites[0])
	}
	var kinds []string
	for _, s := range sites {
		kinds = append(kinds, s.Container.String())
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "fact Shape") || !strings.Contains(joined, "pred touched") {
		t.Errorf("containers missing: %s", joined)
	}
}

func TestScopeTracking(t *testing.T) {
	eng := engine(t)
	foundBody := false
	for _, s := range eng.Sites() {
		if id, ok := s.Node.(*ast.Ident); ok && id.Name == "n" {
			if s.Scope["n"] != 1 {
				t.Errorf("n should be in scope with arity 1 at %v: scope=%v", s.Site, s.Scope)
			}
			foundBody = true
		}
		if s.Container.Kind == InPred {
			if _, ok := s.Scope["m"]; !ok {
				t.Errorf("pred param m missing from scope at %v", s.Site)
			}
		}
	}
	if !foundBody {
		t.Error("no site referencing the quantified variable found")
	}
}

func TestResolveAndApply(t *testing.T) {
	eng := engine(t)
	// Find the site for the "some m.next" conjunct.
	var target *ScopedSite
	for i, s := range eng.Sites() {
		if u, ok := s.Node.(*ast.Unary); ok && u.Op == ast.UnSome && s.Container.Kind == InPred {
			target = &eng.Sites()[i]
			break
		}
	}
	if target == nil {
		t.Fatal("site not found")
	}
	got, err := Resolve(eng.Mod, target.Site)
	if err != nil {
		t.Fatal(err)
	}
	if printer.Expr(got) != printer.Expr(target.Node) {
		t.Errorf("Resolve mismatch: %s vs %s", printer.Expr(got), printer.Expr(target.Node))
	}

	repl, err := parser.ParseExpr("no m.next")
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := eng.Apply(target.Site, repl)
	if err != nil {
		t.Fatal(err)
	}
	out := printer.Module(mutated)
	if !strings.Contains(out, "no m.next") {
		t.Errorf("mutation not applied:\n%s", out)
	}
	if strings.Contains(printer.Module(eng.Mod), "no m.next") {
		t.Error("Apply mutated the engine's module")
	}
}

func TestApplyDeepPath(t *testing.T) {
	eng := engine(t)
	// Replace the innermost "n.next" under the quantifier in fact Shape.
	for _, s := range eng.Sites() {
		b, ok := s.Node.(*ast.Binary)
		if !ok || b.Op != ast.BinJoin || s.Container.Kind != InFact {
			continue
		}
		if printer.Expr(s.Node) != "n.next" {
			continue
		}
		repl, _ := parser.ParseExpr("n.prev")
		mutated, err := eng.Apply(s.Site, repl)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(printer.Module(mutated), "n in n.prev") {
			t.Errorf("deep replacement failed:\n%s", printer.Module(mutated))
		}
		return
	}
	t.Fatal("site n.next not found")
}

func TestCandidatesOperatorFlips(t *testing.T) {
	eng := engine(t)
	for _, s := range eng.Sites() {
		b, ok := s.Node.(*ast.Binary)
		if !ok || b.Op != ast.BinEq {
			continue
		}
		cands := eng.Candidates(s, BudgetOperators)
		var strs []string
		for _, c := range cands {
			strs = append(strs, printer.Expr(c))
		}
		joined := strings.Join(strs, " | ")
		if !strings.Contains(joined, "!=") {
			t.Errorf("expected != flip in %s", joined)
		}
		// Candidates must not contain the original.
		orig := printer.Expr(s.Node)
		for _, c := range strs {
			if c == orig {
				t.Errorf("candidates include the original %q", orig)
			}
		}
		return
	}
	t.Fatal("no = site found")
}

func TestCandidatesQuantifierSwap(t *testing.T) {
	eng := engine(t)
	for _, s := range eng.Sites() {
		q, ok := s.Node.(*ast.Quantified)
		if !ok || q.Quant != ast.QuantNo {
			continue
		}
		cands := eng.Candidates(s, BudgetOperators)
		if len(cands) < 4 {
			t.Errorf("expected >= 4 quantifier swaps + negation, got %d", len(cands))
		}
		return
	}
	t.Fatal("no quantified site found")
}

func TestCandidatesRelationSubstitution(t *testing.T) {
	eng := engine(t)
	for _, s := range eng.Sites() {
		id, ok := s.Node.(*ast.Ident)
		if !ok || id.Name != "next" {
			continue
		}
		cands := eng.Candidates(s, BudgetRelations)
		var strs []string
		for _, c := range cands {
			strs = append(strs, printer.Expr(c))
		}
		joined := strings.Join(strs, " ")
		if !strings.Contains(joined, "prev") {
			t.Errorf("expected prev substitution, got %s", joined)
		}
		return
	}
	t.Fatal("no next leaf site found")
}

func TestCandidatesTemplates(t *testing.T) {
	eng := engine(t)
	for _, s := range eng.Sites() {
		id, ok := s.Node.(*ast.Ident)
		if !ok || id.Name != "next" || s.Arity != 2 {
			continue
		}
		ops := len(eng.Candidates(s, BudgetOperators))
		rels := len(eng.Candidates(s, BudgetRelations))
		tmpl := len(eng.Candidates(s, BudgetTemplates))
		if !(ops <= rels && rels < tmpl) {
			t.Errorf("budget escalation broken: ops=%d rels=%d templates=%d", ops, rels, tmpl)
		}
		return
	}
	t.Fatal("no binary next site found")
}

func TestCandidatesDeterministic(t *testing.T) {
	eng := engine(t)
	sites := eng.Sites()
	for _, s := range sites {
		a := eng.Candidates(s, BudgetTemplates)
		b := eng.Candidates(s, BudgetTemplates)
		if len(a) != len(b) {
			t.Fatalf("nondeterministic candidate count at %v", s.Site)
		}
		for i := range a {
			if printer.Expr(a[i]) != printer.Expr(b[i]) {
				t.Fatalf("nondeterministic candidate order at %v", s.Site)
			}
		}
	}
}

func TestDropConjunct(t *testing.T) {
	mod, err := parser.Parse(model)
	if err != nil {
		t.Fatal(err)
	}
	// The pred body block has 2 conjuncts.
	s := Site{Container: Container{Kind: InPred, Index: 0, Name: "touched"}, Path: nil}
	mods, err := DropConjunct(mod, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 2 {
		t.Fatalf("expected 2 dropped variants, got %d", len(mods))
	}
	for _, m := range mods {
		blk := m.Preds[0].Body.(*ast.Block)
		if len(blk.Exprs) != 1 {
			t.Errorf("dropped variant has %d conjuncts", len(blk.Exprs))
		}
	}
}

func TestDropConjunctNonBlock(t *testing.T) {
	mod, err := parser.Parse(model)
	if err != nil {
		t.Fatal(err)
	}
	s := Site{Container: Container{Kind: InFact, Index: 0}, Path: []int{0}}
	mods, err := DropConjunct(mod, s)
	if err != nil {
		t.Fatal(err)
	}
	if mods != nil {
		t.Error("non-block site should produce no variants")
	}
}

func TestApplyPathOutOfRange(t *testing.T) {
	eng := engine(t)
	s := Site{Container: Container{Kind: InFact, Index: 0}, Path: []int{99}}
	if _, err := eng.Apply(s, &ast.Ident{Name: "x"}); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestMutatedModuleReparses(t *testing.T) {
	eng := engine(t)
	count := 0
	for _, s := range eng.Sites() {
		for _, c := range eng.Candidates(s, BudgetOperators) {
			m, err := eng.Apply(s.Site, c)
			if err != nil {
				t.Fatalf("apply at %v: %v", s.Site, err)
			}
			src := printer.Module(m)
			if _, err := parser.Parse(src); err != nil {
				t.Fatalf("mutant does not reparse at %v with %s:\n%s\nerr: %v",
					s.Site, printer.Expr(c), src, err)
			}
			count++
			if count > 200 {
				return
			}
		}
	}
	if count == 0 {
		t.Error("no mutants generated")
	}
}

func TestCandidatesUniqueSortedWithoutOriginal(t *testing.T) {
	eng := engine(t)
	for _, budget := range []Budget{BudgetOperators, BudgetRelations, BudgetTemplates} {
		for _, s := range eng.Sites() {
			orig := printer.Expr(s.Node)
			seen := map[string]bool{}
			prev := ""
			for i, c := range eng.Candidates(s, budget) {
				key := printer.Expr(c)
				switch {
				case key == orig:
					t.Errorf("budget %d, site %v: candidate %d is the original %q", budget, s.Site, i, key)
				case seen[key]:
					t.Errorf("budget %d, site %v: duplicate candidate %q", budget, s.Site, key)
				case i > 0 && key < prev:
					t.Errorf("budget %d, site %v: %q sorts after %q", budget, s.Site, key, prev)
				}
				seen[key] = true
				prev = key
			}
		}
	}
}

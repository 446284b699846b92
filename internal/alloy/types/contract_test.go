package types_test

import (
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bench"
)

// sigFactSources add what the benchmark corpora lack: appended signature
// facts (bare field references, inherited fields, several names per sig)
// and bracket calls inside them, in commands and in functions.
var sigFactSources = []string{
	`sig Node { next: lone Node } { this not in next }
run {} for 3`,
	`abstract sig A { f: set A } { some f }
sig B, C extends A { g: set A } { g in f and reach[this, this] }
pred reach[x: A, y: A] { y in x.^f }
fun succ[x: A]: set A { x.f }
fact { all a: A | succ[a] in A }
assert Closed { all a: A | reach[a, a] implies some a.f }
check Closed for 3
run { some a: A | reach[a, a] } for 2`,
}

// contractModules returns every faulty and ground-truth module of the
// scale-40 A4F, ARepair and SYN corpora, plus the parsed sigFactSources.
// Corpus modules come straight from the fault injector, so they share
// paragraphs with one another the way repair candidates do.
func contractModules(tb testing.TB) []*ast.Module {
	tb.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 40
	var mods []*ast.Module
	for _, gen := range []func() (*bench.Suite, error){g.Alloy4Fun, g.ARepair, g.Synthetic} {
		suite, err := gen()
		if err != nil {
			tb.Fatal(err)
		}
		for _, sp := range suite.Specs {
			mods = append(mods, sp.Faulty, sp.GroundTruth)
		}
	}
	for _, src := range sigFactSources {
		mod, err := parser.Parse(src)
		if err != nil {
			tb.Fatal(err)
		}
		mods = append(mods, mod)
	}
	return mods
}

// snapshot records a module's printed form and every paragraph and
// paragraph-body pointer, to detect any modification of it.
type snapshot struct {
	printed string
	ptrs    []any
}

func takeSnapshot(mod *ast.Module) snapshot {
	s := snapshot{printed: printer.Module(mod)}
	for _, x := range mod.Sigs {
		s.ptrs = append(s.ptrs, x, x.Fact)
		for _, d := range x.Fields {
			s.ptrs = append(s.ptrs, d, d.Expr)
		}
	}
	for _, x := range mod.Facts {
		s.ptrs = append(s.ptrs, x, x.Body)
	}
	for _, x := range mod.Preds {
		s.ptrs = append(s.ptrs, x, x.Body)
	}
	for _, x := range mod.Funs {
		s.ptrs = append(s.ptrs, x, x.Body, x.Result)
	}
	for _, x := range mod.Asserts {
		s.ptrs = append(s.ptrs, x, x.Body)
	}
	for _, x := range mod.Commands {
		s.ptrs = append(s.ptrs, x, x.Block)
	}
	return s
}

// unchanged reports whether mod still matches the snapshot.
func (s snapshot) unchanged(mod *ast.Module) bool {
	now := takeSnapshot(mod)
	if now.printed != s.printed || len(now.ptrs) != len(s.ptrs) {
		return false
	}
	for i := range s.ptrs {
		if now.ptrs[i] != s.ptrs[i] {
			return false
		}
	}
	return true
}

// hasCall reports whether e holds a bracket application of one of mod's
// predicates or functions.
func hasCall(mod *ast.Module, e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if bj, ok := x.(*ast.BoxJoin); ok {
			if id, ok := bj.Target.(*ast.Ident); ok && (mod.LookupPred(id.Name) != nil || mod.LookupFun(id.Name) != nil) {
				found = true
			}
		}
		return !found
	})
	return found
}

// TestCheckAndLowerLeaveInputUnchanged pins the contract the repair tools
// rely on to skip cloning: Check, CheckTyped and Lower never modify their
// argument, and Lower shares every paragraph it has no reason to rewrite.
func TestCheckAndLowerLeaveInputUnchanged(t *testing.T) {
	rewrites := 0
	for _, mod := range contractModules(t) {
		snap := takeSnapshot(mod)
		checkers := []struct {
			name  string
			check func(*ast.Module) (*types.Info, error)
		}{{"Check", types.Check}, {"CheckTyped", types.CheckTyped}}
		for _, c := range checkers {
			if _, err := c.check(mod); err != nil {
				t.Fatalf("%s: %v\n%s", c.name, err, snap.printed)
			}
			if !snap.unchanged(mod) {
				t.Fatalf("%s modified its input:\n%s", c.name, snap.printed)
			}
		}
		low, info, err := types.Lower(mod)
		if err != nil {
			t.Fatalf("Lower: %v\n%s", err, snap.printed)
		}
		if !snap.unchanged(mod) {
			t.Fatalf("Lower modified its input:\n%s", snap.printed)
		}
		if low != info.Module {
			t.Errorf("Lower returned a module other than its Info.Module")
		}

		// rewritten: whether the paragraph holds a call or a sig fact.
		shared := func(kind string, i int, rewritten bool, in, out any) {
			if rewritten {
				rewrites++
			}
			if !rewritten && in != out {
				t.Errorf("Lower copied %s %d, which has no call and no sig fact:\n%s", kind, i, snap.printed)
			}
			if rewritten && in == out {
				t.Errorf("Lower shares %s %d, which it must rewrite:\n%s", kind, i, snap.printed)
			}
		}
		for i, s := range mod.Sigs {
			shared("sig", i, s.Fact != nil, s, low.Sigs[i])
		}
		for i, f := range mod.Facts {
			shared("fact", i, hasCall(mod, f.Body), f, low.Facts[i])
		}
		for i, p := range mod.Preds {
			shared("pred", i, hasCall(mod, p.Body), p, low.Preds[i])
		}
		for i, fn := range mod.Funs {
			shared("fun", i, hasCall(mod, fn.Body), fn, low.Funs[i])
		}
		for i, a := range mod.Asserts {
			shared("assert", i, hasCall(mod, a.Body), a, low.Asserts[i])
		}
		for i, cmd := range mod.Commands {
			shared("command", i, cmd.Block != nil && hasCall(mod, cmd.Block), cmd, low.Commands[i])
		}
	}
	if rewrites == 0 {
		t.Error("no contract input has a call or a sig fact")
	}
}

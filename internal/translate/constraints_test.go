package translate

import (
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bounds"
	"specrepair/internal/sat"
)

// solveWith builds bounds+translator for src at the scope, asserts implicit
// constraints plus all facts plus the extra formula, and solves.
func solveWith(t *testing.T, src, extra string, scope ast.Scope) sat.Status {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	low, info, err := types.Lower(mod)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bounds.Build(info, scope)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(info, b)
	implicit, err := tr.ImplicitConstraints()
	if err != nil {
		t.Fatal(err)
	}
	parts := []Node{implicit}
	for _, f := range low.Facts {
		n, err := tr.Formula(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, n)
	}
	if extra != "" {
		e, err := parser.ParseExpr(extra)
		if err != nil {
			t.Fatal(err)
		}
		e = types.RewriteCalls(low, e)
		n, err := tr.Formula(e)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, n)
	}
	solver := sat.NewSolver(sat.Options{})
	cb := tr.NewCNFBuilder(solver, tr.NumVars())
	cb.AddAssert(tr.And(parts...))
	return solver.Solve()
}

func TestFieldTypingConstraint(t *testing.T) {
	src := `
sig A { f: set B }
sig B {}
run {} for 2
`
	// A tuple of f with a source outside A is impossible; f lives in A x B.
	if st := solveWith(t, src, "some f and f.B not in A", ast.Scope{Default: 2}); st != sat.StatusUnsat {
		t.Errorf("field escaped its domain: %v", st)
	}
	if st := solveWith(t, src, "some f", ast.Scope{Default: 2}); st != sat.StatusSat {
		t.Errorf("field cannot be populated: %v", st)
	}
}

func TestMergedFieldConstraint(t *testing.T) {
	// keys declared in both Room and Guest: a keys tuple must be justified
	// by one of the declaring sigs.
	src := `
sig Room { keys: set K }
sig Guest { keys: set K }
sig K {}
run {} for 2
`
	if st := solveWith(t, src, "some keys and keys.K not in Room + Guest", ast.Scope{Default: 2}); st != sat.StatusUnsat {
		t.Errorf("merged field escaped its domains: %v", st)
	}
	if st := solveWith(t, src, "some Room.keys and some Guest.keys", ast.Scope{Default: 2}); st != sat.StatusSat {
		t.Errorf("merged field cannot serve both sigs: %v", st)
	}
}

func TestAbstractWithoutChildrenStaysFree(t *testing.T) {
	// An abstract sig with no children admits no instances is NOT Alloy's
	// rule (abstract without children behaves like a normal sig); verify we
	// allow members.
	src := `
abstract sig A {}
run {} for 2
`
	if st := solveWith(t, src, "some A", ast.Scope{Default: 2}); st != sat.StatusSat {
		t.Errorf("abstract sig without children should still admit atoms: %v", st)
	}
}

func TestSymmetryBreakingPreservesSat(t *testing.T) {
	// Any satisfiable cardinality profile stays satisfiable under the
	// prefix symmetry breaking.
	src := `
sig S {}
run {} for 4
`
	for k := 0; k <= 4; k++ {
		extra := ""
		switch k {
		case 0:
			extra = "no S"
		default:
			extra = "#S = " + string(rune('0'+k))
		}
		if st := solveWith(t, src, extra, ast.Scope{Default: 4}); st != sat.StatusSat {
			t.Errorf("#S = %d should be satisfiable, got %v", k, st)
		}
	}
}

func TestSigFactDesugarTranslates(t *testing.T) {
	src := `
sig Node { next: lone Node } { this not in next }
run {} for 3
`
	if st := solveWith(t, src, "some n: Node | n in n.next", ast.Scope{Default: 3}); st != sat.StatusUnsat {
		t.Errorf("sig fact not enforced: %v", st)
	}
	if st := solveWith(t, src, "some next", ast.Scope{Default: 3}); st != sat.StatusSat {
		t.Errorf("sig fact over-restricts: %v", st)
	}
}

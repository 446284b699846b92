package sat

import "testing"

func TestGrowPreservesSolverState(t *testing.T) {
	s := NewSolver(Options{})
	// Allocate a few vars, add a clause, then grow far past capacity: all
	// per-variable state must survive the bulk reallocation.
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(b), PosLit(c))
	s.Grow(10_000)
	if s.NumVars() != 3 {
		t.Fatalf("NumVars = %d after Grow, want 3", s.NumVars())
	}
	for v := 0; v < 9_000; v++ {
		s.NewVar()
	}
	if st := s.Solve(NegLit(a)); st != StatusSat {
		t.Fatalf("Solve = %v, want SAT", st)
	}
	if !s.ModelValue(b) || !s.ModelValue(c) {
		t.Error("model does not satisfy the clauses added before Grow")
	}
}

func TestNewVarInitializesState(t *testing.T) {
	s := NewSolver(Options{})
	for i := 0; i < 500; i++ {
		v := s.NewVar()
		if v != i {
			t.Fatalf("NewVar = %d, want %d", v, i)
		}
		if s.assigns[v] != Unassigned || s.reason[v] != crefUndef || s.level[v] != 0 ||
			s.polarity[v] || s.activity[v] != 0 || s.seen[v] {
			t.Fatalf("var %d not zero-initialized", v)
		}
		if s.watches[2*v] != nil || s.watches[2*v+1] != nil {
			t.Fatalf("var %d has stale watchers", v)
		}
	}
}

// BenchmarkNewVar measures variable allocation, the inner loop of every
// translation: "incremental" lets NewVar grow capacity on demand,
// "pregrown" reserves the full problem size up front via Grow, as
// translate.NewCNFBuilder does.
func BenchmarkNewVar(b *testing.B) {
	const vars = 1 << 16
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewSolver(Options{})
			for v := 0; v < vars; v++ {
				s.NewVar()
			}
		}
	})
	b.Run("pregrown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewSolver(Options{})
			s.Grow(vars)
			for v := 0; v < vars; v++ {
				s.NewVar()
			}
		}
	})
}

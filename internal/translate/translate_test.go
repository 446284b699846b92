package translate

import (
	"math/rand"
	"testing"

	"specrepair/internal/bounds"
	"specrepair/internal/sat"
)

func TestCircuitFolding(t *testing.T) {
	a, b := Var(0), Var(1)
	if !IsTrue(And()) || !IsFalse(Or()) {
		t.Error("empty and/or should fold to constants")
	}
	if And(a, TrueNode) != a || Or(a, FalseNode) != a {
		t.Error("identity folding broken")
	}
	if !IsFalse(And(a, FalseNode)) || !IsTrue(Or(b, TrueNode)) {
		t.Error("dominance folding broken")
	}
	if Not(Not(a)) != a {
		t.Error("double negation should fold")
	}
	if !IsTrue(Not(FalseNode)) || !IsFalse(Not(TrueNode)) {
		t.Error("constant negation broken")
	}
	if Implies(FalseNode, a) != TrueNode {
		t.Error("false implies anything")
	}
	if Iff(TrueNode, a) != a || Ite(TrueNode, a, b) != a || Ite(FalseNode, a, b) != b {
		t.Error("iff/ite folding broken")
	}
}

// assertEquiv checks two circuits are logically equivalent over nVars
// variables by SAT-checking the XOR.
func assertEquiv(t *testing.T, nVars int, x, y Node) {
	t.Helper()
	s := sat.NewSolver(sat.Options{})
	cb := NewCNFBuilder(s, nVars)
	// x xor y satisfiable => not equivalent.
	cb.AddAssert(Or(And(x, Not(y)), And(Not(x), y)))
	if st := s.Solve(); st != sat.StatusUnsat {
		t.Errorf("circuits differ (status %v)", st)
	}
}

func TestTseitinPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vars := []Node{Var(0), Var(1), Var(2), Var(3)}
	var build func(depth int) Node
	build = func(depth int) Node {
		if depth == 0 {
			return vars[rng.Intn(len(vars))]
		}
		switch rng.Intn(4) {
		case 0:
			return And(build(depth-1), build(depth-1))
		case 1:
			return Or(build(depth-1), build(depth-1))
		case 2:
			return Not(build(depth - 1))
		default:
			return Iff(build(depth-1), build(depth-1))
		}
	}
	for i := 0; i < 50; i++ {
		n := build(4)
		// A circuit is equivalent to itself rebuilt — trivially true, but
		// exercises gate sharing. More useful: check n AND NOT n is unsat.
		s := sat.NewSolver(sat.Options{})
		cb := NewCNFBuilder(s, 4)
		cb.AddAssert(And(n, Not(n)))
		if st := s.Solve(); st != sat.StatusUnsat {
			t.Fatalf("iter %d: n and not n was %v", i, st)
		}
		// And check n OR NOT n is sat (valid).
		s2 := sat.NewSolver(sat.Options{})
		cb2 := NewCNFBuilder(s2, 4)
		cb2.AddAssert(Or(n, Not(n)))
		if st := s2.Solve(); st != sat.StatusSat {
			t.Fatalf("iter %d: n or not n was %v", i, st)
		}
	}
}

func TestDeMorganEquivalence(t *testing.T) {
	a, b := Var(0), Var(1)
	assertEquiv(t, 2, Not(And(a, b)), Or(Not(a), Not(b)))
	assertEquiv(t, 2, Not(Or(a, b)), And(Not(a), Not(b)))
	assertEquiv(t, 2, Implies(a, b), Or(Not(a), b))
}

func randomTS(rng *rand.Rand, arity, atoms, n int) bounds.TupleSet {
	ts := bounds.NewTupleSet(arity)
	for i := 0; i < n; i++ {
		tu := make(bounds.Tuple, arity)
		for j := range tu {
			tu[j] = rng.Intn(atoms)
		}
		ts.Add(tu)
	}
	return ts
}

// constTuples extracts the definitely-true tuple set of a constant matrix.
func constTuples(t *testing.T, m Matrix) bounds.TupleSet {
	t.Helper()
	out := bounds.NewTupleSet(m.Arity())
	for _, tu := range m.Tuples() {
		n := m.Get(tu)
		switch {
		case IsTrue(n):
			out.Add(tu)
		case IsFalse(n):
		default:
			t.Fatalf("matrix entry %v is not constant", tu)
		}
	}
	return out
}

// TestMatrixAgreesWithTupleSetAlgebra runs every matrix operation on
// constant matrices and cross-checks the result against the tuple-set
// algebra — a differential test between the symbolic and concrete layers.
func TestMatrixAgreesWithTupleSetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	univ := []int{0, 1, 2, 3}
	for iter := 0; iter < 100; iter++ {
		a := randomTS(rng, 2, 4, rng.Intn(8))
		b := randomTS(rng, 2, 4, rng.Intn(8))
		s := randomTS(rng, 1, 4, rng.Intn(4))
		ma, mb, ms := ConstMatrix(a), ConstMatrix(b), ConstMatrix(s)

		checks := []struct {
			name string
			mat  Matrix
			want bounds.TupleSet
		}{
			{"union", ma.Union(mb), a.Union(b)},
			{"intersect", ma.Intersect(mb), a.Intersect(b)},
			{"diff", ma.Diff(mb), a.Diff(b)},
			{"join", ma.Join(mb), a.Join(b)},
			{"transpose", ma.Transpose(), a.Transpose()},
			{"closure", ma.Closure(), a.Closure()},
			{"reflclosure", ma.ReflClosure(univ), a.ReflClosure(univ)},
			{"override", ma.Override(mb), a.Override(b)},
			{"domrestr", ma.DomRestr(ms), a.DomRestr(s)},
			{"ranrestr", ma.RanRestr(ms), a.RanRestr(s)},
		}
		for _, c := range checks {
			if got := constTuples(t, c.mat); !got.Equal(c.want) {
				t.Fatalf("iter %d %s: got %v want %v (a=%v b=%v s=%v)",
					iter, c.name, got.Tuples(), c.want.Tuples(), a.Tuples(), b.Tuples(), s.Tuples())
			}
		}

		// Formula-level agreements.
		if IsTrue(ma.Some()) != !a.IsEmpty() {
			t.Fatalf("iter %d some disagrees", iter)
		}
		if IsTrue(ma.SubsetOf(mb)) != a.SubsetOf(b) {
			t.Fatalf("iter %d subset disagrees", iter)
		}
		if IsTrue(ma.EqualTo(mb)) != a.Equal(b) {
			t.Fatalf("iter %d equal disagrees", iter)
		}
		if IsTrue(ma.Lone()) != (a.Len() <= 1) {
			t.Fatalf("iter %d lone disagrees", iter)
		}
		if IsTrue(ma.One()) != (a.Len() == 1) {
			t.Fatalf("iter %d one disagrees", iter)
		}
		for k := 0; k <= 5; k++ {
			if IsTrue(ma.AtLeast(k)) != (a.Len() >= k) {
				t.Fatalf("iter %d atleast(%d) disagrees: len=%d", iter, k, a.Len())
			}
			if IsTrue(ma.AtMost(k)) != (a.Len() <= k) {
				t.Fatalf("iter %d atmost(%d) disagrees: len=%d", iter, k, a.Len())
			}
		}
	}
}

func TestMatrixProduct(t *testing.T) {
	a := ConstMatrix(bounds.UnarySet(0, 1))
	b := ConstMatrix(bounds.UnarySet(2))
	p := a.Product(b)
	if p.Arity() != 2 || p.Len() != 2 {
		t.Errorf("product = %v", p.Tuples())
	}
}

func TestSingletonMatrix(t *testing.T) {
	m := SingletonMatrix(bounds.Tuple{1, 2})
	if m.Len() != 1 || !IsTrue(m.Get(bounds.Tuple{1, 2})) || !IsFalse(m.Get(bounds.Tuple{2, 1})) {
		t.Error("singleton matrix misbehaves")
	}
}

func TestIteMatrix(t *testing.T) {
	a := ConstMatrix(bounds.UnarySet(0))
	b := ConstMatrix(bounds.UnarySet(1))
	m := a.Ite(TrueNode, b)
	if got := constTuples(t, m); !got.Equal(bounds.UnarySet(0)) {
		t.Errorf("ite true = %v", got.Tuples())
	}
	m = a.Ite(FalseNode, b)
	if got := constTuples(t, m); !got.Equal(bounds.UnarySet(1)) {
		t.Errorf("ite false = %v", got.Tuples())
	}
}

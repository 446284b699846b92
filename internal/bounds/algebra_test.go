package bounds

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func setOf(tuples ...Tuple) TupleSet {
	if len(tuples) == 0 {
		return NewTupleSet(1)
	}
	ts := NewTupleSet(len(tuples[0]))
	for _, t := range tuples {
		ts.Add(t)
	}
	return ts
}

func TestTupleKeyRoundTrip(t *testing.T) {
	tuples := []Tuple{{0}, {1, 2}, {3, 0, 5}, {7, 7, 7, 7}, {0, 0}}
	for _, tu := range tuples {
		got := KeyToTuple(tu.Key())
		if !reflect.DeepEqual(got, tu) {
			t.Errorf("round trip %v -> %v", tu, got)
		}
	}
}

func TestTupleKeyNoCollisionAcrossArity(t *testing.T) {
	a := Tuple{0}
	b := Tuple{0, 0}
	if a.Key() == b.Key() {
		t.Error("different arities must not collide")
	}
}

// randomTupleSet is a quick.Generator helper.
func randomTupleSet(rng *rand.Rand, arity, atoms, n int) TupleSet {
	ts := NewTupleSet(arity)
	for i := 0; i < n; i++ {
		t := make(Tuple, arity)
		for j := range t {
			t[j] = rng.Intn(atoms)
		}
		ts.Add(t)
	}
	return ts
}

func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}

	// Union is commutative and idempotent; diff and intersect interact as
	// expected: (a ∖ b) ∪ (a ∩ b) = a.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTupleSet(rng, 2, 4, rng.Intn(10))
		b := randomTupleSet(rng, 2, 4, rng.Intn(10))
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Union(a).Equal(a) {
			return false
		}
		if !a.Diff(b).Union(a.Intersect(b)).Equal(a) {
			return false
		}
		if !a.Intersect(b).SubsetOf(a) || !a.Intersect(b).SubsetOf(b) {
			return false
		}
		return a.SubsetOf(a.Union(b))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTupleSet(rng, 2, 5, rng.Intn(12))
		return a.Transpose().Transpose().Equal(a)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestJoinBasics(t *testing.T) {
	r := setOf(Tuple{0, 1}, Tuple{1, 2})
	s := setOf(Tuple{1, 5}, Tuple{2, 6})
	got := r.Join(s)
	want := setOf(Tuple{0, 5}, Tuple{1, 6})
	if !got.Equal(want) {
		t.Errorf("join = %v, want %v", got.Tuples(), want.Tuples())
	}
}

func TestJoinUnaryBinary(t *testing.T) {
	x := UnarySet(0)
	r := setOf(Tuple{0, 1}, Tuple{0, 2}, Tuple{1, 2})
	got := x.Join(r)
	want := UnarySet(1, 2)
	if !got.Equal(want) {
		t.Errorf("x.r = %v, want %v", got.Tuples(), want.Tuples())
	}
}

func TestClosure(t *testing.T) {
	r := setOf(Tuple{0, 1}, Tuple{1, 2}, Tuple{2, 3})
	got := r.Closure()
	want := setOf(
		Tuple{0, 1}, Tuple{0, 2}, Tuple{0, 3},
		Tuple{1, 2}, Tuple{1, 3}, Tuple{2, 3},
	)
	if !got.Equal(want) {
		t.Errorf("closure = %v, want %v", got.Tuples(), want.Tuples())
	}
}

func TestClosureCycle(t *testing.T) {
	r := setOf(Tuple{0, 1}, Tuple{1, 0})
	got := r.Closure()
	want := setOf(Tuple{0, 0}, Tuple{0, 1}, Tuple{1, 0}, Tuple{1, 1})
	if !got.Equal(want) {
		t.Errorf("closure = %v, want %v", got.Tuples(), want.Tuples())
	}
}

func TestReflClosureAddsIden(t *testing.T) {
	r := setOf(Tuple{0, 1})
	got := r.ReflClosure([]int{0, 1, 2})
	for _, a := range []int{0, 1, 2} {
		if !got.Contains(Tuple{a, a}) {
			t.Errorf("missing identity pair (%d,%d)", a, a)
		}
	}
	if !got.Contains(Tuple{0, 1}) {
		t.Error("missing base pair")
	}
}

func TestOverride(t *testing.T) {
	p := setOf(Tuple{0, 1}, Tuple{1, 1}, Tuple{2, 2})
	q := setOf(Tuple{0, 5})
	got := p.Override(q)
	want := setOf(Tuple{0, 5}, Tuple{1, 1}, Tuple{2, 2})
	if !got.Equal(want) {
		t.Errorf("override = %v, want %v", got.Tuples(), want.Tuples())
	}
}

func TestRestrictions(t *testing.T) {
	r := setOf(Tuple{0, 1}, Tuple{1, 2}, Tuple{2, 0})
	dom := UnarySet(0, 1)
	ran := UnarySet(0)
	if got, want := r.DomRestr(dom), setOf(Tuple{0, 1}, Tuple{1, 2}); !got.Equal(want) {
		t.Errorf("domrestr = %v", got.Tuples())
	}
	if got, want := r.RanRestr(ran), setOf(Tuple{2, 0}); !got.Equal(want) {
		t.Errorf("ranrestr = %v", got.Tuples())
	}
}

func TestProductAndProject(t *testing.T) {
	a := UnarySet(0, 1)
	b := UnarySet(5)
	p := a.Product(b)
	if p.Arity() != 2 || p.Len() != 2 {
		t.Fatalf("product = %v", p.Tuples())
	}
	if !p.Project(0).Equal(a) || !p.Project(1).Equal(b) {
		t.Error("projections disagree")
	}
}

func TestAllTuples(t *testing.T) {
	got := AllTuples([]int{0, 1}, 2)
	if got.Len() != 4 {
		t.Errorf("AllTuples len = %d, want 4", got.Len())
	}
	if AllTuples([]int{0, 1, 2}, 1).Len() != 3 {
		t.Error("unary AllTuples wrong")
	}
}

func TestUniverse(t *testing.T) {
	u, err := NewUniverse([]string{"A$0", "A$1", "B$0"})
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != 3 || u.Atom(2) != "B$0" || u.IndexOf("A$1") != 1 || u.IndexOf("nope") != -1 {
		t.Errorf("universe misbehaves: %+v", u)
	}
	if _, err := NewUniverse([]string{"x", "x"}); err == nil {
		t.Error("duplicate atoms should error")
	}
}

// TestTupleSetCopyIndependent: a copy of a set, and a singleton taken from
// it, never alias it.
func TestTupleSetCopyIndependent(t *testing.T) {
	a := setOf(Tuple{0, 1}, Tuple{1, 2})
	singles := []TupleSet{a.Singleton(0), a.Singleton(1)}
	b := a
	b.Add(Tuple{2, 0})
	singles[0].Add(Tuple{0, 0})
	if a.Len() != 2 || a.Contains(Tuple{2, 0}) || a.Contains(Tuple{0, 0}) {
		t.Errorf("adding to a copy changed the original: %v", a.Tuples())
	}
	if b.Len() != 3 || singles[0].Len() != 2 || singles[1].Len() != 1 {
		t.Errorf("copies lost additions: b %v, singletons %v %v", b.Tuples(), singles[0].Tuples(), singles[1].Tuples())
	}
}

func TestStringRendering(t *testing.T) {
	u, _ := NewUniverse([]string{"N$0", "N$1"})
	ts := setOf(Tuple{0, 1})
	if got := ts.String(u); got != "{(N$0, N$1)}" {
		t.Errorf("String = %q", got)
	}
}

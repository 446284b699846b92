package bounds

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// This file checks every TupleSet operation against a naive reference
// written here, independently of the packed-key kernel: a reference set is
// a map from a tuple's atoms, joined by commas, to true.

type refSet map[string]bool

func enc(t Tuple) string {
	parts := make([]string, len(t))
	for i, a := range t {
		parts[i] = strconv.Itoa(a)
	}
	return strings.Join(parts, ",")
}

func dec(s string) Tuple {
	if s == "" {
		return Tuple{}
	}
	var t Tuple
	for _, p := range strings.Split(s, ",") {
		a, _ := strconv.Atoi(p)
		t = append(t, a)
	}
	return t
}

func refOf(tuples []Tuple) refSet {
	r := refSet{}
	for _, t := range tuples {
		r[enc(t)] = true
	}
	return r
}

func (r refSet) tuples() []Tuple {
	out := make([]Tuple, 0, len(r))
	for s := range r {
		out = append(out, dec(s))
	}
	return out
}

func concat(a, b Tuple) Tuple { return append(append(Tuple{}, a...), b...) }

func refUnion(a, b refSet) refSet {
	out := refSet{}
	for s := range a {
		out[s] = true
	}
	for s := range b {
		out[s] = true
	}
	return out
}

func refFilter(a refSet, keep func(Tuple) bool) refSet {
	out := refSet{}
	for s := range a {
		if keep(dec(s)) {
			out[s] = true
		}
	}
	return out
}

func refJoin(a, b refSet) refSet {
	out := refSet{}
	for _, x := range a.tuples() {
		for _, y := range b.tuples() {
			if x[len(x)-1] == y[0] {
				out[enc(concat(x[:len(x)-1], y[1:]))] = true
			}
		}
	}
	return out
}

func refClosure(a refSet) refSet {
	cur := a
	for {
		next := refUnion(cur, refJoin(cur, cur))
		if len(next) == len(cur) {
			return next
		}
		cur = next
	}
}

// src yields the choices that shape one generated case: rng.Intn for the
// seeded test, the fuzzer's bytes for the fuzz target.
type src func(n int) int

func (pick src) atoms(universe int) []int {
	out := make([]int, pick(universe+1))
	for i := range out {
		out[i] = pick(universe)
	}
	return out
}

func (pick src) tuples(arity, universe int) []Tuple {
	out := make([]Tuple, pick(9))
	for i := range out {
		t := make(Tuple, arity)
		for j := range t {
			t[j] = pick(universe)
		}
		out[i] = t
	}
	return out
}

func build(arity int, tuples []Tuple) TupleSet {
	ts := NewTupleSet(arity)
	for _, t := range tuples {
		ts.Add(t)
	}
	return ts
}

// match reports how got differs from the reference, or "" when it has the
// reference's tuples and arity, lists them in strictly ascending key order
// (Tuples, Singleton and Key alike), and answers Contains for each.
func match(got TupleSet, arity int, want refSet) string {
	if got.Arity() != arity {
		return "arity " + strconv.Itoa(got.Arity()) + ", want " + strconv.Itoa(arity)
	}
	tuples := got.Tuples()
	if len(tuples) != len(want) || got.Len() != len(want) || got.IsEmpty() != (len(want) == 0) {
		return "size " + strconv.Itoa(len(tuples)) + ", want " + strconv.Itoa(len(want))
	}
	for i, t := range tuples {
		if !want[enc(t)] {
			return "extra tuple " + enc(t)
		}
		if !got.Contains(t) {
			return "Contains misses " + enc(t)
		}
		if i > 0 && tuples[i-1].Key() >= t.Key() {
			return "Tuples not in ascending key order"
		}
		if single := got.Singleton(i); single.Arity() != got.Arity() || single.Len() != 1 || enc(single.Tuples()[0]) != enc(t) {
			return "Singleton disagrees with Tuples at " + strconv.Itoa(i)
		}
		if got.Key(i) != t.Key() {
			return "Key disagrees with Tuples at " + strconv.Itoa(i)
		}
	}
	return ""
}

// checkAlgebra generates one case — two sets and a unary restriction set
// over at most six atoms, arities 1 to 3 — and compares every operation
// with the reference. It also checks that no operation changes its
// operands and that adding to a copy of a set, or to one of its
// singletons, leaves the set alone.
func checkAlgebra(t *testing.T, pick src) {
	t.Helper()
	universe := 1 + pick(6)
	na, nb := 1+pick(3), 1+pick(3)
	ta, tb, tsr := pick.tuples(na, universe), pick.tuples(nb, universe), pick.tuples(1, universe)
	a, b, s := build(na, ta), build(nb, tb), build(1, tsr)
	ra, rb, rs := refOf(ta), refOf(tb), refOf(tsr)
	tb2 := pick.tuples(na, universe) // same arity as a
	b2, rb2 := build(na, tb2), refOf(tb2)

	check := func(op string, got TupleSet, arity int, want refSet) {
		t.Helper()
		if msg := match(got, arity, want); msg != "" {
			t.Fatalf("%s over a=%v b=%v b2=%v s=%v: %s", op, ta, tb, tb2, tsr, msg)
		}
	}
	check("build a", a, na, ra)
	check("build b", b, nb, rb)

	check("Union", a.Union(b2), na, refUnion(ra, rb2))
	check("Union into empty", NewTupleSet(0).Union(b), nb, rb)
	check("Intersect", a.Intersect(b2), na, refFilter(ra, func(x Tuple) bool { return rb2[enc(x)] }))
	check("Diff", a.Diff(b2), na, refFilter(ra, func(x Tuple) bool { return !rb2[enc(x)] }))
	subset := true
	for k := range ra {
		subset = subset && rb2[k]
	}
	if a.SubsetOf(b2) != subset {
		t.Fatalf("SubsetOf(%v, %v) = %v", ta, tb2, !subset)
	}
	if a.Equal(b2) != (subset && len(ra) == len(rb2)) {
		t.Fatalf("Equal(%v, %v) wrong", ta, tb2)
	}

	prod := refSet{}
	for _, x := range ra.tuples() {
		for _, y := range rb.tuples() {
			prod[enc(concat(x, y))] = true
		}
	}
	check("Product", a.Product(b), na+nb, prod)
	if na+nb > 2 {
		check("Join", a.Join(b), na+nb-2, refJoin(ra, rb))
	}

	overArity := nb
	if len(rb) == 0 {
		overArity = na
	}
	check("Override by empty", a.Override(NewTupleSet(0)), na, ra)
	if na == nb {
		dom := map[int]bool{}
		for _, y := range rb.tuples() {
			dom[y[0]] = true
		}
		check("Override", a.Override(b), overArity, refUnion(rb, refFilter(ra, func(x Tuple) bool { return !dom[x[0]] })))
	}
	check("DomRestr", a.DomRestr(s), na, refFilter(ra, func(x Tuple) bool { return rs[enc(x[:1])] }))
	check("RanRestr", a.RanRestr(s), na, refFilter(ra, func(x Tuple) bool { return rs[enc(x[len(x)-1:])] }))
	col := pick(na)
	proj := refSet{}
	for _, x := range ra.tuples() {
		proj[enc(x[col:col+1])] = true
	}
	check("Project", a.Project(col), 1, proj)

	atoms := pick.atoms(universe)
	iden, unary := refSet{}, refSet{}
	for _, x := range atoms {
		iden[enc(Tuple{x, x})] = true
		unary[enc(Tuple{x})] = true
	}
	check("Iden", Iden(atoms), 2, iden)
	check("UnarySet", UnarySet(atoms...), 1, unary)
	all := refSet{"": true}
	for i := 0; i < na; i++ {
		next := refSet{}
		for _, x := range all.tuples() {
			for _, y := range atoms {
				next[enc(concat(x, Tuple{y}))] = true
			}
		}
		all = next
	}
	check("AllTuples", AllTuples(atoms, na), na, all)

	if na == 2 {
		tr := refSet{}
		for _, x := range ra.tuples() {
			tr[enc(Tuple{x[1], x[0]})] = true
		}
		check("Transpose", a.Transpose(), 2, tr)
		check("Closure", a.Closure(), 2, refClosure(ra))
		check("ReflClosure", a.ReflClosure(atoms), 2, refUnion(refClosure(ra), iden))
	}

	// No operation above changed its operands.
	check("a after ops", a, na, ra)
	check("b after ops", b, nb, rb)
	check("s after ops", s, 1, rs)

	// Copies are isolated: adding to copies of a set, to its singletons, or
	// to a result that may share its keys changes only the receiver. The
	// added tuples use an atom no generated tuple uses: one in the first
	// column only sorts among a's tuples, one everywhere sorts last.
	mid, last := make(Tuple, na), make(Tuple, na)
	for i := range last {
		last[i] = universe
	}
	mid[0] = universe
	singles := make([]TupleSet, a.Len())
	for i := range singles {
		singles[i] = a.Singleton(i)
	}
	c1, c2 := a, a
	c1.Add(mid)
	c2.Add(last)
	check("first copy after Add", c1, na, refUnion(ra, refOf([]Tuple{mid})))
	check("second copy after Add", c2, na, refUnion(ra, refOf([]Tuple{last})))
	for _, single := range singles {
		single.Add(mid)
	}
	u := a.Union(NewTupleSet(na))
	u.Add(mid)
	check("a after adding to copies", a, na, ra)
	for i, x := range a.Tuples() {
		if got := singles[i].Tuples(); len(got) != 1 || enc(got[0]) != enc(x) {
			t.Fatalf("singleton %d of %v changed to %v", i, ta, got)
		}
	}
}

func TestTupleSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 3000; i++ {
		checkAlgebra(t, rng.Intn)
	}
}

func FuzzTupleSetAlgebra(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 1, 3, 0, 1, 1, 2, 2, 3, 4, 4, 0, 5, 5, 1})
	f.Add([]byte{2, 2, 2, 8, 0, 1, 1, 2, 2, 0, 3, 3, 0, 0, 8, 1, 0, 2, 1, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAlgebra(t, func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		})
	})
}

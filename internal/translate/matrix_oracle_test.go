package translate

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"specrepair/internal/bounds"
)

// This file checks every Matrix operation against a naive reference written
// here, independently of the packed-key kernel: a reference matrix is a map
// from tuple key to node, and each reference operation visits tuples in
// ascending key order and builds its nodes with the same And/Or/Not calls
// the operation must make. Results are compared by key set and by the shape
// of every node, operand order included, so a kernel that computes the
// right relation through a different circuit fails too.

type refMatrix struct {
	arity   int
	entries map[uint64]Node
}

func newRef(arity int) refMatrix { return refMatrix{arity, map[uint64]Node{}} }

func (r refMatrix) sortedKeys() []uint64 {
	ks := make([]uint64, 0, len(r.entries))
	for k := range r.entries {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// String lists the tuples in ascending key order, for failure messages.
func (r refMatrix) String() string {
	ts := make([]bounds.Tuple, 0, len(r.entries))
	for _, k := range r.sortedKeys() {
		ts = append(ts, bounds.KeyToTuple(k))
	}
	return fmt.Sprint(ts)
}

func (r refMatrix) get(k uint64) Node {
	if n, ok := r.entries[k]; ok {
		return n
	}
	return FalseNode
}

func (r refMatrix) set(k uint64, n Node) {
	if IsFalse(n) {
		delete(r.entries, k)
		return
	}
	r.entries[k] = n
}

func (r refMatrix) orInto(k uint64, n Node) { r.set(k, Or(r.get(k), n)) }

func (r refMatrix) nodes() []Node {
	var out []Node
	for _, k := range r.sortedKeys() {
		out = append(out, r.entries[k])
	}
	return out
}

func refUnion(a, b refMatrix) refMatrix {
	arity := a.arity
	if len(a.entries) == 0 {
		arity = b.arity
	}
	out := newRef(arity)
	for k, n := range a.entries {
		out.entries[k] = n
	}
	for _, k := range b.sortedKeys() {
		out.orInto(k, b.entries[k])
	}
	return out
}

func refIntersect(a, b refMatrix) refMatrix {
	out := newRef(a.arity)
	for _, k := range a.sortedKeys() {
		if bn, ok := b.entries[k]; ok {
			out.set(k, And(a.entries[k], bn))
		}
	}
	return out
}

func refDiff(a, b refMatrix) refMatrix {
	out := newRef(a.arity)
	for _, k := range a.sortedKeys() {
		out.set(k, And(a.entries[k], Not(b.get(k))))
	}
	return out
}

func refProduct(a, b refMatrix) refMatrix {
	out := newRef(a.arity + b.arity)
	for _, ka := range a.sortedKeys() {
		for _, kb := range b.sortedKeys() {
			t := append(bounds.KeyToTuple(ka), bounds.KeyToTuple(kb)...)
			out.set(t.Key(), And(a.entries[ka], b.entries[kb]))
		}
	}
	return out
}

func refJoin(a, b refMatrix) refMatrix {
	out := newRef(a.arity + b.arity - 2)
	cases := map[uint64][]Node{}
	for _, ka := range a.sortedKeys() {
		x := bounds.KeyToTuple(ka)
		for _, kb := range b.sortedKeys() {
			y := bounds.KeyToTuple(kb)
			if x[len(x)-1] == y[0] {
				t := append(append(bounds.Tuple{}, x[:len(x)-1]...), y[1:]...)
				cases[t.Key()] = append(cases[t.Key()], And(a.entries[ka], b.entries[kb]))
			}
		}
	}
	for k, cs := range cases {
		out.set(k, Or(cs...))
	}
	return out
}

func refTranspose(a refMatrix) refMatrix {
	out := newRef(2)
	for k, n := range a.entries {
		t := bounds.KeyToTuple(k)
		out.set(bounds.Tuple{t[1], t[0]}.Key(), n)
	}
	return out
}

func refClosure(a refMatrix) refMatrix {
	atoms := map[int]bool{}
	for k := range a.entries {
		t := bounds.KeyToTuple(k)
		atoms[t[0]], atoms[t[1]] = true, true
	}
	cur := a
	for steps := 1; steps < len(atoms); steps *= 2 {
		cur = refUnion(cur, refJoin(cur, cur))
	}
	return cur
}

func refReflClosure(a refMatrix, atoms []int) refMatrix {
	c := refClosure(a)
	out := newRef(c.arity)
	for k, n := range c.entries {
		out.entries[k] = n
	}
	for _, x := range atoms {
		out.set(bounds.Tuple{x, x}.Key(), TrueNode)
	}
	return out
}

func refOverride(a, b refMatrix) refMatrix {
	dom := map[int][]Node{}
	for _, k := range b.sortedKeys() {
		first := bounds.KeyToTuple(k)[0]
		dom[first] = append(dom[first], b.entries[k])
	}
	domNode := map[int]Node{}
	for x, ns := range dom {
		domNode[x] = Or(ns...)
	}
	out := newRef(a.arity)
	for _, k := range b.sortedKeys() {
		out.orInto(k, b.entries[k])
	}
	for _, k := range a.sortedKeys() {
		guard := TrueNode
		if d, ok := domNode[bounds.KeyToTuple(k)[0]]; ok {
			guard = Not(d)
		}
		out.orInto(k, And(a.entries[k], guard))
	}
	return out
}

func refRestr(a, s refMatrix, dom bool) refMatrix {
	out := newRef(a.arity)
	for _, k := range a.sortedKeys() {
		t := bounds.KeyToTuple(k)
		if dom {
			out.set(k, And(s.get(bounds.Tuple{t[0]}.Key()), a.entries[k]))
		} else {
			out.set(k, And(a.entries[k], s.get(bounds.Tuple{t[len(t)-1]}.Key())))
		}
	}
	return out
}

func refIte(cond Node, a, e refMatrix) refMatrix {
	out := newRef(a.arity)
	for _, k := range a.sortedKeys() {
		out.set(k, And(cond, a.entries[k]))
	}
	for _, k := range e.sortedKeys() {
		out.orInto(k, And(Not(cond), e.entries[k]))
	}
	return out
}

func refSubsetOf(a, b refMatrix) Node {
	var parts []Node
	for _, k := range a.sortedKeys() {
		parts = append(parts, Implies(a.entries[k], b.get(k)))
	}
	return And(parts...)
}

func refLone(ns []Node) Node {
	var pairs []Node
	for i := range ns {
		for j := i + 1; j < len(ns); j++ {
			pairs = append(pairs, Not(And(ns[i], ns[j])))
		}
	}
	return And(pairs...)
}

// iso compares circuits of testCircuit by shape: constants and variables
// by value, negations by what they negate, gates by kind and inputs in
// order. Gates must also correspond one to one, so a gate shared in one
// circuit is shared in the other.
type iso struct{ fwd, back map[Node]Node }

func newIso() *iso { return &iso{map[Node]Node{}, map[Node]Node{}} }

func (s *iso) same(a, b Node) bool {
	if a&negBit != 0 || b&negBit != 0 {
		return a&negBit != 0 && b&negBit != 0 && s.same(a^negBit, b^negBit)
	}
	ga, aGate := gateOf(a)
	gb, bGate := gateOf(b)
	if !aGate || !bGate {
		return a == b
	}
	c := testCircuit
	return c.gates[ga].or == c.gates[gb].or && s.pair(a, b) && s.all(c.inputs(ga), c.inputs(gb))
}

func (s *iso) pair(a, b Node) bool {
	if f, ok := s.fwd[a]; ok {
		return f == b
	}
	if g, ok := s.back[b]; ok {
		return g == a
	}
	s.fwd[a], s.back[b] = b, a
	return true
}

func (s *iso) all(as, bs []Node) bool {
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if !s.same(as[i], bs[i]) {
			return false
		}
	}
	return true
}

// matchRef reports how got differs from the reference, or "" when it holds
// the reference's keys in strictly ascending order, never a definitely-false
// node, and a node of the reference's shape at every key, which Get, Tuples
// and Nodes all agree on.
func matchRef(got Matrix, want refMatrix) string {
	if got.Arity() != want.arity {
		return fmt.Sprintf("arity %d, want %d", got.Arity(), want.arity)
	}
	if len(got.keys) != len(got.nodes) || got.Len() != len(want.entries) {
		return fmt.Sprintf("%d keys, %d nodes, want %d entries", len(got.keys), len(got.nodes), len(want.entries))
	}
	s := newIso()
	tuples, nodes := got.Tuples(), got.Nodes()
	for i, k := range got.keys {
		if i > 0 && got.keys[i-1] >= k {
			return "keys not strictly ascending"
		}
		wn, ok := want.entries[k]
		if !ok {
			return fmt.Sprintf("extra tuple %v", bounds.KeyToTuple(k))
		}
		if IsFalse(got.nodes[i]) {
			return fmt.Sprintf("false node stored at %v", bounds.KeyToTuple(k))
		}
		if !s.same(got.nodes[i], wn) {
			return fmt.Sprintf("node at %v has another shape than the reference's", bounds.KeyToTuple(k))
		}
		if tuples[i].Key() != k || nodes[i] != got.nodes[i] || got.Get(tuples[i]) != got.nodes[i] {
			return fmt.Sprintf("Tuples/Nodes/Get disagree at %d", i)
		}
	}
	return ""
}

// src yields the choices that shape one generated case: rng.Intn for the
// seeded test, the fuzzer's bytes for the fuzz target.
type src func(n int) int

// pool returns the nodes entries are drawn from: variables, the true
// constant, and gates over the variables, so results mix constant folding
// with real gates whose operand order is visible.
func pool() []Node {
	v := func(i int) Node { return Var(i) }
	return []Node{
		TrueNode, TrueNode, v(0), v(1), v(2), v(3), v(4), v(5),
		Not(v(6)), And(v(0), v(7)), Or(v(1), v(2)),
	}
}

// gen returns a reference matrix of up to 12 tuples of the given arity over
// the universe, with nodes from the pool.
func (pick src) gen(arity, universe int, nodes []Node) refMatrix {
	r := newRef(arity)
	for n := pick(13); n > 0; n-- {
		t := make(bounds.Tuple, arity)
		for j := range t {
			t[j] = pick(universe)
		}
		r.entries[t.Key()] = nodes[pick(len(nodes))]
	}
	return r
}

// fromRef builds the kernel's matrix of a reference matrix.
func fromRef(r refMatrix) Matrix {
	m := NewMatrix(r.arity)
	for _, k := range r.sortedKeys() {
		m.add(k, r.entries[k])
	}
	return m
}

// snapshot copies a matrix's storage, to check later that no operation
// wrote to it.
func snapshot(m Matrix) Matrix {
	return Matrix{m.c, m.arity, slices.Clone(m.keys), slices.Clone(m.nodes)}
}

func unchanged(m, before Matrix) bool {
	return m.c == before.c && m.arity == before.arity && slices.Equal(m.keys, before.keys) && slices.Equal(m.nodes, before.nodes)
}

// checkMatrixAlgebra generates one case — two matrices of arity 1 to 3, a
// second one of the first's arity, a unary restriction matrix and a
// condition over at most six atoms — and compares every operation with the
// reference. After each operation it also checks that no operand changed.
// Each case builds its nodes in a circuit of its own, so that a long fuzzing
// run does not keep every earlier case's gates.
func checkMatrixAlgebra(t *testing.T, pick src) {
	t.Helper()
	testCircuit = &Circuit{}
	nodes := pool()
	universe := 1 + pick(6)
	na, nb := 1+pick(3), 1+pick(3)
	ra, rb, rb2, rs := pick.gen(na, universe, nodes), pick.gen(nb, universe, nodes), pick.gen(na, universe, nodes), pick.gen(1, universe, nodes)
	cond := nodes[pick(len(nodes))]
	a, b, b2, s := fromRef(ra), fromRef(rb), fromRef(rb2), fromRef(rs)
	operands := []Matrix{a, b, b2, s}
	before := make([]Matrix, len(operands))
	for i, m := range operands {
		before[i] = snapshot(m)
	}
	// operandsKept fails the case when the operation just checked wrote to
	// an operand's storage.
	operandsKept := func(op string) {
		t.Helper()
		for i, m := range operands {
			if !unchanged(m, before[i]) {
				t.Fatalf("%s changed operand %d", op, i)
			}
		}
	}
	check := func(op string, got Matrix, want refMatrix) {
		t.Helper()
		if msg := matchRef(got, want); msg != "" {
			t.Fatalf("%s over a=%v b=%v b2=%v s=%v: %s", op, ra, rb, rb2, rs, msg)
		}
		operandsKept(op)
	}
	checkNode := func(op string, got, want Node) {
		t.Helper()
		if !newIso().same(got, want) {
			t.Fatalf("%s over a=%v b2=%v: formula has another shape than the reference's", op, ra, rb2)
		}
		operandsKept(op)
	}

	check("Union", a.Union(b2), refUnion(ra, rb2))
	check("Union into empty", NewMatrix(0).Union(b), refUnion(newRef(0), rb))
	check("Intersect", a.Intersect(b2), refIntersect(ra, rb2))
	check("Diff", a.Diff(b2), refDiff(ra, rb2))
	check("Product", a.Product(b), refProduct(ra, rb))
	if na+nb > 2 {
		check("Join", a.Join(b), refJoin(ra, rb))
	}
	check("Override", a.Override(b2), refOverride(ra, rb2))
	check("DomRestr", a.DomRestr(s), refRestr(ra, rs, true))
	check("RanRestr", a.RanRestr(s), refRestr(ra, rs, false))
	check("Ite", a.Ite(cond, b2), refIte(cond, ra, rb2))
	if na == 2 {
		atoms := make([]int, pick(universe+1))
		for i := range atoms {
			atoms[i] = pick(universe)
		}
		check("Transpose", a.Transpose(), refTranspose(ra))
		check("Closure", a.Closure(), refClosure(ra))
		check("ReflClosure", a.ReflClosure(atoms), refReflClosure(ra, atoms))
	}

	an := ra.nodes()
	checkNode("Some", a.Some(), Or(an...))
	checkNode("None", a.None(), Not(Or(an...)))
	checkNode("Lone", a.Lone(), refLone(an))
	checkNode("One", a.One(), And(Or(an...), refLone(an)))
	checkNode("SubsetOf", a.SubsetOf(b2), refSubsetOf(ra, rb2))
	checkNode("EqualTo", a.EqualTo(b2), And(refSubsetOf(ra, rb2), refSubsetOf(rb2, ra)))
	k := pick(len(an) + 2)
	checkNode("AtLeast", a.AtLeast(k), testCircuit.atLeast(an, k))
	checkNode("AtMost", a.AtMost(k), Not(testCircuit.atLeast(an, k+1)))

}

func TestMatrixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 3000; i++ {
		checkMatrixAlgebra(t, rng.Intn)
	}
}

func FuzzMatrixAlgebra(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 1, 3, 0, 1, 1, 2, 2, 3, 4, 4, 0, 5, 5, 1})
	f.Add([]byte{2, 1, 1, 12, 0, 1, 2, 1, 1, 3, 2, 2, 4, 0, 2, 5, 1, 0, 6, 12, 1, 0, 7, 0, 1, 8, 2, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatrixAlgebra(t, func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		})
	})
}

package translate

import (
	"cmp"
	"slices"

	"specrepair/internal/bounds"
)

// Matrix is a sparse boolean matrix over tuples: each tuple within some
// upper bound maps to a circuit node giving its membership condition.
// Missing entries are definitely-false.
//
// Entries are stored as packed tuple keys (bounds.Tuple.Key) in ascending
// order with their nodes alongside, never a definitely-false node. Matrices
// are immutable values: no operation modifies its operands, and results may
// share an operand's storage.
type Matrix struct {
	arity int
	keys  []uint64
	nodes []Node
}

// The operations below work on packed keys the way bounds.TupleSet does:
// atom i of a tuple is the 8-bit lane i of its key (the atom index plus
// one), and the tuple's arity is the top byte.

// header returns the arity byte of a key of the given arity.
func header(arity int) uint64 { return uint64(arity) << 56 }

// lanes returns the mask of the n lowest atom lanes.
func lanes(n int) uint64 { return 1<<(8*n) - 1 }

// keyArity returns the arity packed into a key.
func keyArity(k uint64) int { return int(k >> 56) }

// lastLane returns the last atom lane of a key.
func lastLane(k uint64) uint64 { return k >> (8 * (keyArity(k) - 1)) & 0xff }

// trueOne is the node list of every single-entry constant matrix. Node
// lists are never written after construction, so it is shared.
var trueOne = []Node{TrueNode}

// NewMatrix returns an empty matrix of the given arity.
func NewMatrix(arity int) Matrix { return Matrix{arity: arity} }

// SingletonMatrix returns a matrix that is true exactly at tuple t.
func SingletonMatrix(t bounds.Tuple) Matrix { return singletonKey(t.Key()) }

func singletonKey(k uint64) Matrix {
	return Matrix{arity: keyArity(k), keys: []uint64{k}, nodes: trueOne}
}

// ConstMatrix returns a matrix that is true exactly on the given tuple set.
func ConstMatrix(ts bounds.TupleSet) Matrix {
	m := Matrix{arity: ts.Arity(), keys: make([]uint64, 0, ts.Len()), nodes: make([]Node, 0, ts.Len())}
	for _, t := range ts.Tuples() {
		m.add(t.Key(), TrueNode)
	}
	return m
}

// add appends an entry whose key is above every key of m, dropping a
// definitely-false node. Only a matrix under construction may be extended.
func (m *Matrix) add(k uint64, n Node) {
	if IsFalse(n) {
		return
	}
	m.keys = append(m.keys, k)
	m.nodes = append(m.nodes, n)
}

// entry is one emitted (key, node) pair of an operation whose output keys
// are not a sorted subsequence of an operand's.
type entry struct {
	key  uint64
	node Node
}

// collect returns the matrix of the emitted entries. Keys may come in any
// order and repeat: the entries are stably sorted by key, the nodes of equal
// keys are ORed in emission order, and definitely-false results dropped.
func collect(arity int, es []entry) Matrix {
	slices.SortStableFunc(es, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	m := Matrix{arity: arity, keys: make([]uint64, 0, len(es)), nodes: make([]Node, 0, len(es))}
	var group []Node
	for i := 0; i < len(es); {
		j := i + 1
		for j < len(es) && es[j].key == es[i].key {
			j++
		}
		n := es[i].node
		if j-i > 1 {
			group = group[:0]
			for _, e := range es[i:j] {
				group = append(group, e.node)
			}
			n = Or(group...)
		}
		m.add(es[i].key, n)
		i = j
	}
	return m
}

// Arity returns the matrix arity.
func (m Matrix) Arity() int { return m.arity }

// Len returns the number of potentially-true entries.
func (m Matrix) Len() int { return len(m.keys) }

// Get returns the node at tuple t (FalseNode when absent).
func (m Matrix) Get(t bounds.Tuple) Node { return m.get(t.Key()) }

func (m Matrix) get(k uint64) Node {
	if i, found := slices.BinarySearch(m.keys, k); found {
		return m.nodes[i]
	}
	return FalseNode
}

// Tuples returns the potentially-true tuples in ascending-key order.
func (m Matrix) Tuples() []bounds.Tuple {
	out := make([]bounds.Tuple, len(m.keys))
	for i, k := range m.keys {
		out[i] = bounds.KeyToTuple(k)
	}
	return out
}

// Nodes returns the entry nodes in the same order as Tuples. The slice is
// the matrix's own storage, shared with every matrix built from it: callers
// must not modify it.
func (m Matrix) Nodes() []Node { return m.nodes }

// merge walks the entries of m and o in ascending key order, calling f with
// each key and its nodes in m and o (nil where absent), and returns the
// matrix of f's results.
func (m Matrix) merge(o Matrix, arity int, f func(k uint64, mn, on Node) Node) Matrix {
	out := Matrix{arity: arity, keys: make([]uint64, 0, len(m.keys)+len(o.keys)), nodes: make([]Node, 0, len(m.keys)+len(o.keys))}
	i, j := 0, 0
	for i < len(m.keys) || j < len(o.keys) {
		switch {
		case j == len(o.keys) || i < len(m.keys) && m.keys[i] < o.keys[j]:
			out.add(m.keys[i], f(m.keys[i], m.nodes[i], nil))
			i++
		case i == len(m.keys) || o.keys[j] < m.keys[i]:
			out.add(o.keys[j], f(o.keys[j], nil, o.nodes[j]))
			j++
		default:
			out.add(m.keys[i], f(m.keys[i], m.nodes[i], o.nodes[j]))
			i++
			j++
		}
	}
	return out
}

// Union returns entrywise OR.
func (m Matrix) Union(o Matrix) Matrix {
	switch {
	case len(m.keys) == 0:
		return o
	case len(o.keys) == 0:
		return m
	}
	return m.merge(o, m.arity, func(_ uint64, mn, on Node) Node {
		switch {
		case on == nil:
			return mn
		case mn == nil:
			return on
		}
		return Or(mn, on)
	})
}

// Intersect returns entrywise AND.
func (m Matrix) Intersect(o Matrix) Matrix {
	out := Matrix{arity: m.arity}
	j := 0
	for i, k := range m.keys {
		for j < len(o.keys) && o.keys[j] < k {
			j++
		}
		if j < len(o.keys) && o.keys[j] == k {
			out.add(k, And(m.nodes[i], o.nodes[j]))
		}
	}
	return out
}

// Diff returns entrywise AND-NOT.
func (m Matrix) Diff(o Matrix) Matrix {
	if len(o.keys) == 0 {
		return m
	}
	out := Matrix{arity: m.arity, keys: make([]uint64, 0, len(m.keys)), nodes: make([]Node, 0, len(m.keys))}
	j := 0
	for i, k := range m.keys {
		for j < len(o.keys) && o.keys[j] < k {
			j++
		}
		on := FalseNode
		if j < len(o.keys) && o.keys[j] == k {
			on = o.nodes[j]
		}
		out.add(k, And(m.nodes[i], Not(on)))
	}
	return out
}

// Product returns the cross product. Tuple (a..., b...) puts a in the low
// lanes, so visiting o's entries outside m's emits ascending keys.
func (m Matrix) Product(o Matrix) Matrix {
	n := len(m.keys) * len(o.keys)
	out := Matrix{arity: m.arity + o.arity, keys: make([]uint64, 0, n), nodes: make([]Node, 0, n)}
	for j, b := range o.keys {
		bn := keyArity(b)
		for i, a := range m.keys {
			an := keyArity(a)
			out.add(header(an+bn)|(b&lanes(bn))<<(8*an)|a&lanes(an), And(m.nodes[i], o.nodes[j]))
		}
	}
	return out
}

// byFirstLane returns the indices of o's entries grouped by their first
// atom lane, ascending within each group, and the start of each lane's
// group: lane l's entries are idx[start[l]:start[l+1]].
func (m Matrix) byFirstLane() (idx []int32, start [257]int32) {
	for _, k := range m.keys {
		start[k&0xff+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	next := start
	idx = make([]int32, len(m.keys))
	for i, k := range m.keys {
		idx[next[k&0xff]] = int32(i)
		next[k&0xff]++
	}
	return idx, start
}

// Join returns the relational join m.o: (a1..an-1, b2..bm) with node
// m[a] AND o[b] for every a in m and b in o with an == b1, ORed over the
// pairs that meet at the same tuple in the order m's then o's keys ascend.
func (m Matrix) Join(o Matrix) Matrix {
	idx, start := o.byFirstLane()
	total := 0
	for _, a := range m.keys {
		last := lastLane(a)
		total += int(start[last+1] - start[last])
	}
	es := make([]entry, 0, total)
	for i, a := range m.keys {
		an := keyArity(a)
		last := lastLane(a)
		prefix := a & lanes(an-1)
		for _, j := range idx[start[last]:start[last+1]] {
			b := o.keys[j]
			bn := keyArity(b)
			es = append(es, entry{
				key:  header(an+bn-2) | (b&lanes(bn))>>8<<(8*(an-1)) | prefix,
				node: And(m.nodes[i], o.nodes[j]),
			})
		}
	}
	return collect(m.arity+o.arity-2, es)
}

// Transpose flips a binary matrix.
func (m Matrix) Transpose() Matrix {
	es := make([]entry, len(m.keys))
	for i, k := range m.keys {
		es[i] = entry{header(2) | (k&0xff)<<8 | k>>8&0xff, m.nodes[i]}
	}
	return collect(2, es)
}

// Closure returns the transitive closure by iterative squaring.
func (m Matrix) Closure() Matrix {
	// The closure saturates within ceil(log2(n))+1 squarings where n bounds
	// path length by the number of distinct atoms in the upper bound.
	var seen [4]uint64
	atoms := 0
	mark := func(l uint64) {
		if seen[l/64]&(1<<(l%64)) == 0 {
			seen[l/64] |= 1 << (l % 64)
			atoms++
		}
	}
	for _, k := range m.keys {
		mark(k & 0xff)
		mark(k >> 8 & 0xff)
	}
	cur := m
	for steps := 1; steps < atoms; steps *= 2 {
		cur = cur.Union(cur.Join(cur))
	}
	return cur
}

// ReflClosure returns the reflexive-transitive closure over the given atoms.
func (m Matrix) ReflClosure(univAtoms []int) Matrix {
	iden := make([]entry, len(univAtoms))
	for i, a := range univAtoms {
		iden[i] = entry{bounds.Tuple{a, a}.Key(), TrueNode}
	}
	return m.Closure().Union(collect(2, iden))
}

// Override returns m ++ o: o's entries, plus each entry of m guarded by
// NOT (the OR of o's entries sharing its first atom).
func (m Matrix) Override(o Matrix) Matrix {
	idx, start := o.byFirstLane()
	var dom [256]Node // nil where o has no entry with that first atom
	group := make([]Node, 0, len(idx))
	for l := range dom {
		if start[l] == start[l+1] {
			continue
		}
		group = group[:0]
		for _, j := range idx[start[l]:start[l+1]] {
			group = append(group, o.nodes[j])
		}
		dom[l] = Or(group...)
	}
	return m.merge(o, m.arity, func(k uint64, mn, on Node) Node {
		if mn == nil {
			return on
		}
		guard := TrueNode
		if d := dom[k&0xff]; d != nil {
			guard = Not(d)
		}
		kept := And(mn, guard)
		if on == nil {
			return kept
		}
		return Or(on, kept)
	})
}

// DomRestr returns s <: m for unary s.
func (m Matrix) DomRestr(s Matrix) Matrix {
	out := Matrix{arity: m.arity}
	for i, k := range m.keys {
		out.add(k, And(s.get(header(1)|k&0xff), m.nodes[i]))
	}
	return out
}

// RanRestr returns m :> s for unary s.
func (m Matrix) RanRestr(s Matrix) Matrix {
	out := Matrix{arity: m.arity}
	for i, k := range m.keys {
		out.add(k, And(m.nodes[i], s.get(header(1)|lastLane(k))))
	}
	return out
}

// Ite returns the entrywise conditional.
func (m Matrix) Ite(cond Node, e Matrix) Matrix {
	return m.merge(e, m.arity, func(_ uint64, mn, en Node) Node {
		then := FalseNode
		if mn != nil {
			then = And(cond, mn)
		}
		if en == nil {
			return then
		}
		return Or(then, And(Not(cond), en))
	})
}

// Some returns the formula "m is non-empty".
func (m Matrix) Some() Node { return Or(m.nodes...) }

// None returns the formula "m is empty".
func (m Matrix) None() Node { return Not(m.Some()) }

// Lone returns the formula "m has at most one tuple".
func (m Matrix) Lone() Node {
	nodes := m.nodes
	var pairs []Node
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			pairs = append(pairs, Not(And(nodes[i], nodes[j])))
		}
	}
	return And(pairs...)
}

// One returns the formula "m has exactly one tuple".
func (m Matrix) One() Node { return And(m.Some(), m.Lone()) }

// SubsetOf returns the formula "m ⊆ o".
func (m Matrix) SubsetOf(o Matrix) Node {
	parts := make([]Node, len(m.keys))
	j := 0
	for i, k := range m.keys {
		for j < len(o.keys) && o.keys[j] < k {
			j++
		}
		on := FalseNode
		if j < len(o.keys) && o.keys[j] == k {
			on = o.nodes[j]
		}
		parts[i] = Implies(m.nodes[i], on)
	}
	return And(parts...)
}

// EqualTo returns the formula "m = o".
func (m Matrix) EqualTo(o Matrix) Node {
	return And(m.SubsetOf(o), o.SubsetOf(m))
}

// AtLeast returns the formula "at least k entries of m are true", built with
// a sequential-counter circuit.
func (m Matrix) AtLeast(k int) Node {
	return atLeastNodes(m.nodes, k)
}

// AtMost returns the formula "at most k entries of m are true".
func (m Matrix) AtMost(k int) Node {
	return Not(atLeastNodes(m.nodes, k+1))
}

// atLeastNodes builds s_{n,k}: at least k of the nodes are true.
func atLeastNodes(nodes []Node, k int) Node {
	if k <= 0 {
		return TrueNode
	}
	if k > len(nodes) {
		return FalseNode
	}
	// ge[j]: at least j of the nodes seen so far are true (1-based).
	ge := make([]Node, k+1)
	ge[0] = TrueNode
	for j := 1; j <= k; j++ {
		ge[j] = FalseNode
	}
	for _, n := range nodes {
		for j := k; j >= 1; j-- {
			ge[j] = Or(ge[j], And(n, ge[j-1]))
		}
	}
	return ge[k]
}

// CountCompare builds the formula "#m OP #o" by comparing counter prefixes.
func CountCompare(m, o Matrix, geBothWays func(geM, geO []Node) Node) Node {
	maxN := m.Len()
	if o.Len() > maxN {
		maxN = o.Len()
	}
	geM := make([]Node, maxN+2)
	geO := make([]Node, maxN+2)
	for j := 0; j <= maxN+1; j++ {
		geM[j] = atLeastNodes(m.nodes, j)
		geO[j] = atLeastNodes(o.nodes, j)
	}
	return geBothWays(geM, geO)
}

package bounds

import "fmt"

// The operations below work on packed keys directly: atom i of a tuple is
// the 8-bit lane i of its key (holding the atom index plus one) and the
// arity is the top byte, so ascending keys order tuples by their last atom
// first. Operations whose output is not a sorted subsequence of an operand
// collect keys and normalise them once through FromKeys.

// header returns the arity byte of a key of the given arity.
func header(arity int) uint64 { return uint64(arity) << 56 }

// lanes returns the mask of the n lowest atom lanes.
func lanes(n int) uint64 { return 1<<(8*n) - 1 }

// lane returns atom lane i of a key (atom index plus one).
func lane(k uint64, i int) uint64 { return k >> (8 * i) & 0xff }

// mergeKeys returns the sorted union of two ascending key slices. When one
// side is empty it returns the other without copying.
func mergeKeys(a, b []uint64) []uint64 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sieve returns, in order, the keys of a that are (in) or are not (!in)
// keys of b. Both slices ascend, so one merge pass decides every key.
func sieve(a, b []uint64, in bool) []uint64 {
	var out []uint64
	j := 0
	for _, k := range a {
		for j < len(b) && b[j] < k {
			j++
		}
		if (j < len(b) && b[j] == k) == in {
			out = append(out, k)
		}
	}
	return out
}

// filter returns the keys of ts for which keep holds, in order.
func (ts TupleSet) filter(keep func(k uint64) bool) []uint64 {
	var out []uint64
	for _, k := range ts.keys {
		if keep(k) {
			out = append(out, k)
		}
	}
	return out
}

// Union returns ts ∪ o. Arity must match (empty sets adapt).
func (ts TupleSet) Union(o TupleSet) TupleSet {
	arity := ts.arity
	if ts.IsEmpty() {
		arity = o.arity
	}
	return TupleSet{arity: arity, keys: mergeKeys(ts.keys, o.keys)}
}

// Intersect returns ts ∩ o.
func (ts TupleSet) Intersect(o TupleSet) TupleSet {
	return TupleSet{arity: ts.arity, keys: sieve(ts.keys, o.keys, true)}
}

// Diff returns ts ∖ o.
func (ts TupleSet) Diff(o TupleSet) TupleSet {
	if o.IsEmpty() {
		return ts
	}
	return TupleSet{arity: ts.arity, keys: sieve(ts.keys, o.keys, false)}
}

// Product returns the cross product ts × o.
func (ts TupleSet) Product(o TupleSet) TupleSet {
	n, m := ts.arity, o.arity
	if n+m > MaxArity {
		panic(fmt.Sprintf("bounds: product arity %d exceeds max %d", n+m, MaxArity))
	}
	keys := make([]uint64, 0, len(ts.keys)*len(o.keys))
	for _, b := range o.keys {
		hi := header(n+m) | (b&lanes(m))<<(8*n)
		for _, a := range ts.keys {
			keys = append(keys, hi|a&lanes(n))
		}
	}
	return FromKeys(n+m, keys)
}

// Join returns the relational join ts.o: tuples (a1..an-1, b2..bm) for each
// (a..an) in ts and (b1..bm) in o with an == b1.
func (ts TupleSet) Join(o TupleSet) TupleSet {
	n, m := ts.arity, o.arity
	if n+m-2 < 1 {
		panic("bounds: join arity underflow")
	}
	var keys []uint64
	for _, a := range ts.keys {
		last := lane(a, n-1)
		prefix := header(n+m-2) | a&lanes(n-1)
		for _, b := range o.keys {
			if b&0xff == last {
				keys = append(keys, prefix|(b&lanes(m))>>8<<(8*(n-1)))
			}
		}
	}
	return FromKeys(n+m-2, keys)
}

// Transpose returns ~ts for a binary set.
func (ts TupleSet) Transpose() TupleSet {
	if ts.arity != 2 {
		panic("bounds: transpose of non-binary set")
	}
	keys := make([]uint64, len(ts.keys))
	for i, k := range ts.keys {
		keys[i] = header(2) | lane(k, 0)<<8 | lane(k, 1)
	}
	return FromKeys(2, keys)
}

// Closure returns the transitive closure ^ts of a binary set.
func (ts TupleSet) Closure() TupleSet {
	if ts.arity != 2 {
		panic("bounds: closure of non-binary set")
	}
	cur := ts
	for {
		next := cur.Union(cur.Join(cur))
		if next.Len() == cur.Len() {
			return next
		}
		cur = next
	}
}

// ReflClosure returns *ts = ^ts ∪ iden over the atoms listed.
func (ts TupleSet) ReflClosure(univAtoms []int) TupleSet {
	return ts.Closure().Union(Iden(univAtoms))
}

// Override returns ts ++ o: o's tuples plus those of ts whose first atom is
// not a first atom of any o tuple.
func (ts TupleSet) Override(o TupleSet) TupleSet {
	arity := o.arity
	if o.IsEmpty() && ts.arity != 0 {
		arity = ts.arity
	}
	var dom [4]uint64 // bitset of the first lanes of o
	for _, k := range o.keys {
		f := lane(k, 0)
		dom[f/64] |= 1 << (f % 64)
	}
	kept := ts.filter(func(k uint64) bool {
		f := lane(k, 0)
		return dom[f/64]&(1<<(f%64)) == 0
	})
	return TupleSet{arity: arity, keys: mergeKeys(o.keys, kept)}
}

// DomRestr returns s <: ts — tuples whose first atom is in the unary set s.
func (ts TupleSet) DomRestr(s TupleSet) TupleSet {
	if s.arity != 1 {
		panic("bounds: domain restriction by non-unary set")
	}
	return TupleSet{arity: ts.arity, keys: ts.filter(func(k uint64) bool {
		return s.hasKey(header(1) | lane(k, 0))
	})}
}

// RanRestr returns ts :> s — tuples whose last atom is in the unary set s.
func (ts TupleSet) RanRestr(s TupleSet) TupleSet {
	if s.arity != 1 {
		panic("bounds: range restriction by non-unary set")
	}
	return TupleSet{arity: ts.arity, keys: ts.filter(func(k uint64) bool {
		return s.hasKey(header(1) | lane(k, ts.arity-1))
	})}
}

// Project returns the unary set of atoms at the given column.
func (ts TupleSet) Project(col int) TupleSet {
	keys := make([]uint64, len(ts.keys))
	for i, k := range ts.keys {
		keys[i] = header(1) | lane(k, col)
	}
	return FromKeys(1, keys)
}

// Iden returns the identity relation over the given atom indices.
func Iden(atoms []int) TupleSet {
	keys := make([]uint64, len(atoms))
	for i, a := range atoms {
		keys[i] = header(2) | uint64(a+1)<<8 | uint64(a+1)
	}
	return FromKeys(2, keys)
}

// AllTuples returns every tuple of the given arity over the atom indices.
func AllTuples(atoms []int, arity int) TupleSet {
	if arity == 0 {
		return NewTupleSet(0)
	}
	keys := []uint64{header(arity)}
	for col := 0; col < arity; col++ {
		next := make([]uint64, 0, len(keys)*len(atoms))
		for _, k := range keys {
			for _, a := range atoms {
				next = append(next, k|uint64(a+1)<<(8*col))
			}
		}
		keys = next
	}
	return FromKeys(arity, keys)
}

// UnarySet builds a unary tuple set from atom indices.
func UnarySet(atoms ...int) TupleSet {
	keys := make([]uint64, len(atoms))
	for i, a := range atoms {
		keys[i] = header(1) | uint64(a+1)
	}
	return FromKeys(1, keys)
}

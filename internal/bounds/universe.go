// Package bounds provides the finite universe of atoms, tuples, tuple sets
// with full relational algebra, and per-relation lower/upper bounds — the
// Kodkod-style substrate beneath the bounded analyzer.
package bounds

import (
	"fmt"
	"slices"
	"strings"
)

// MaxArity is the largest relation arity supported by the tuple encoding.
const MaxArity = 7

// maxAtoms is the largest universe size supported by the tuple encoding
// (atom indices are packed into 8-bit lanes of a uint64 key).
const maxAtoms = 255

// Universe is an ordered set of named atoms.
type Universe struct {
	atoms []string
	index map[string]int
}

// NewUniverse builds a universe over the given atom names, which must be
// unique and at most 255.
func NewUniverse(atoms []string) (*Universe, error) {
	if len(atoms) > maxAtoms {
		return nil, fmt.Errorf("universe of %d atoms exceeds the %d-atom limit", len(atoms), maxAtoms)
	}
	u := &Universe{
		atoms: append([]string(nil), atoms...),
		index: make(map[string]int, len(atoms)),
	}
	for i, a := range atoms {
		if _, dup := u.index[a]; dup {
			return nil, fmt.Errorf("duplicate atom %q", a)
		}
		u.index[a] = i
	}
	return u, nil
}

// Size returns the number of atoms.
func (u *Universe) Size() int { return len(u.atoms) }

// Atom returns the name of atom i.
func (u *Universe) Atom(i int) string { return u.atoms[i] }

// Atoms returns all atom names in order.
func (u *Universe) Atoms() []string { return append([]string(nil), u.atoms...) }

// IndexOf returns the index of the named atom, or -1.
func (u *Universe) IndexOf(name string) int {
	if i, ok := u.index[name]; ok {
		return i
	}
	return -1
}

// Tuple is an ordered sequence of atom indices.
type Tuple []int

// Key packs the tuple into a comparable uint64. Tuples of different arities
// never collide because the arity is packed into the top byte.
func (t Tuple) Key() uint64 {
	k := uint64(len(t)) << 56
	for i, a := range t {
		k |= uint64(a+1) << uint(8*i)
	}
	return k
}

// KeyToTuple unpacks a key produced by Tuple.Key.
func KeyToTuple(k uint64) Tuple {
	arity := int(k >> 56)
	t := make(Tuple, arity)
	for i := 0; i < arity; i++ {
		t[i] = int(k>>uint(8*i)&0xff) - 1
	}
	return t
}

// String renders the tuple against a universe.
func (t Tuple) String(u *Universe) string {
	parts := make([]string, len(t))
	for i, a := range t {
		parts[i] = u.Atom(a)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// TupleSet is an immutable set of same-arity tuples, stored as their packed
// keys (Tuple.Key) in ascending order. No operation modifies its operands,
// and Add gives its receiver a fresh key slice, so copies of a set never see
// each other's additions and results may share their operands' keys. The
// zero value is an empty set of unspecified arity; use NewTupleSet to fix
// the arity up front.
type TupleSet struct {
	arity int
	keys  []uint64
}

// NewTupleSet returns an empty tuple set of the given arity.
func NewTupleSet(arity int) TupleSet {
	return TupleSet{arity: arity}
}

// FromKeys returns the set of the given arity holding the tuples whose
// Tuple.Key values are keys, in any order and with repeats. The set takes
// ownership of keys.
func FromKeys(arity int, keys []uint64) TupleSet {
	slices.Sort(keys)
	return TupleSet{arity: arity, keys: slices.Compact(keys)}
}

// Arity returns the tuple arity.
func (ts TupleSet) Arity() int { return ts.arity }

// Len returns the number of tuples.
func (ts TupleSet) Len() int { return len(ts.keys) }

// IsEmpty reports whether the set has no tuples.
func (ts TupleSet) IsEmpty() bool { return len(ts.keys) == 0 }

// Add inserts a tuple; the tuple's length must match the set's arity. An
// empty set of unspecified arity takes the tuple's.
func (ts *TupleSet) Add(t Tuple) {
	if ts.arity == 0 && len(ts.keys) == 0 {
		ts.arity = len(t)
	}
	if len(t) != ts.arity {
		panic(fmt.Sprintf("bounds: adding arity-%d tuple to arity-%d set", len(t), ts.arity))
	}
	k := t.Key()
	if i, found := slices.BinarySearch(ts.keys, k); !found {
		// Inserting into a clipped slice always copies, leaving the keys
		// other copies of the set share untouched.
		ts.keys = slices.Insert(slices.Clip(ts.keys), i, k)
	}
}

// Contains reports membership.
func (ts TupleSet) Contains(t Tuple) bool { return ts.hasKey(t.Key()) }

func (ts TupleSet) hasKey(k uint64) bool {
	_, found := slices.BinarySearch(ts.keys, k)
	return found
}

// Tuples returns the tuples in ascending-key order.
func (ts TupleSet) Tuples() []Tuple {
	out := make([]Tuple, len(ts.keys))
	for i, k := range ts.keys {
		out[i] = KeyToTuple(k)
	}
	return out
}

// Singleton returns the set holding only the i-th tuple of ts, in Tuples
// order. It shares its key with ts.
func (ts TupleSet) Singleton(i int) TupleSet {
	return TupleSet{arity: ts.arity, keys: ts.keys[i : i+1 : i+1]}
}

// Key returns the packed key (Tuple.Key) of the i-th tuple of ts, in Tuples
// order.
func (ts TupleSet) Key(i int) uint64 { return ts.keys[i] }

// Equal reports whether two sets contain the same tuples.
func (ts TupleSet) Equal(o TupleSet) bool { return slices.Equal(ts.keys, o.keys) }

// SubsetOf reports whether every tuple of ts is in o.
func (ts TupleSet) SubsetOf(o TupleSet) bool {
	j := 0
	for _, k := range ts.keys {
		for j < len(o.keys) && o.keys[j] < k {
			j++
		}
		if j == len(o.keys) || o.keys[j] != k {
			return false
		}
	}
	return true
}

// String renders the set against a universe.
func (ts TupleSet) String(u *Universe) string {
	parts := make([]string, 0, ts.Len())
	for _, t := range ts.Tuples() {
		parts = append(parts, t.String(u))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

package bounds

import (
	"fmt"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
)

// DefaultScope is the per-signature bound used when a command specifies no
// scope, matching the Alloy Analyzer's default of 3.
const DefaultScope = 3

// SigScope is the resolved scope of one signature.
type SigScope struct {
	Size  int
	Exact bool
}

// RelBound is the lower/upper bound pair of one relation.
type RelBound struct {
	Name  string
	Arity int
	Lower TupleSet
	Upper TupleSet
}

// Bounds assigns a universe of atoms and relational bounds for one command's
// scope over one module.
type Bounds struct {
	Universe *Universe
	// Sigs maps every signature to its resolved scope.
	Sigs map[string]SigScope
	// Rels maps every relation (signatures, fields, and primed shadows) to
	// its bounds.
	Rels map[string]RelBound
	// Block maps each top-level signature to its atom indices.
	Block map[string][]int
	// TopOf maps each signature to its top-level ancestor.
	TopOf map[string]string
}

// Build resolves scopes and constructs bounds for the module described by
// info under the given command scope.
func Build(info *types.Info, scope ast.Scope) (*Bounds, error) {
	mod := info.Module
	def := scope.Default
	if def <= 0 {
		def = DefaultScope
	}

	b := &Bounds{
		Sigs:  map[string]SigScope{},
		Rels:  map[string]RelBound{},
		Block: map[string][]int{},
		TopOf: map[string]string{},
	}

	// Resolve the top-level ancestor of every sig.
	for _, name := range info.SigOrder {
		cur := name
		for {
			s := info.Sigs[cur]
			if s.Parent == "" {
				break
			}
			cur = s.Parent
		}
		b.TopOf[name] = cur
	}

	// Resolve per-sig scopes.
	for _, name := range info.SigOrder {
		s := info.Sigs[name]
		sc := SigScope{Size: def}
		if b.TopOf[name] != name {
			// Subsignatures default to their top ancestor's block size; an
			// explicit scope below tightens it.
			sc.Size = resolveTop(info, scope, b.TopOf[name], def)
		}
		switch s.Mult {
		case ast.MultOne:
			sc = SigScope{Size: 1, Exact: true}
		case ast.MultLone:
			sc = SigScope{Size: 1}
		case ast.MultSome:
			// keep size; translator adds a non-emptiness constraint
		}
		if n, ok := scope.Exact[name]; ok {
			sc = SigScope{Size: n, Exact: true}
		} else if n, ok := scope.PerSig[name]; ok {
			sc.Size = n
			sc.Exact = false
		}
		b.Sigs[name] = sc
	}

	// Allocate one atom block per top-level signature. Subset sigs ("in")
	// have no block of their own: their atoms come from their supersets.
	var atoms []string
	for _, name := range info.SigOrder {
		if b.TopOf[name] != name || len(info.Sigs[name].Subset) > 0 {
			continue
		}
		size := b.Sigs[name].Size
		var block []int
		for i := 0; i < size; i++ {
			block = append(block, len(atoms))
			atoms = append(atoms, fmt.Sprintf("%s$%d", name, i))
		}
		b.Block[name] = block
	}
	u, err := NewUniverse(atoms)
	if err != nil {
		return nil, fmt.Errorf("building universe: %w", err)
	}
	b.Universe = u

	// Signature relation bounds. Subset-sig uppers are resolved
	// recursively through their supersets.
	uppers := map[string]TupleSet{}
	var upperOf func(name string, visiting map[string]bool) (TupleSet, error)
	upperOf = func(name string, visiting map[string]bool) (TupleSet, error) {
		if ts, ok := uppers[name]; ok {
			return ts, nil
		}
		if visiting[name] {
			return TupleSet{}, fmt.Errorf("subset cycle involving %q", name)
		}
		visiting[name] = true
		defer delete(visiting, name)
		s := info.Sigs[name]
		var ts TupleSet
		if len(s.Subset) > 0 {
			ts = NewTupleSet(1)
			for _, sup := range s.Subset {
				su, err := upperOf(sup, visiting)
				if err != nil {
					return TupleSet{}, err
				}
				ts = ts.Union(su)
			}
		} else {
			ts = UnarySet(b.Block[b.TopOf[name]]...)
		}
		uppers[name] = ts
		return ts, nil
	}
	for _, name := range info.SigOrder {
		upper, err := upperOf(name, map[string]bool{})
		if err != nil {
			return nil, err
		}
		lower := NewTupleSet(1)
		sc := b.Sigs[name]
		if b.TopOf[name] == name && len(info.Sigs[name].Subset) == 0 && sc.Exact {
			// Exact top-level sigs pin the whole block.
			lower = upper
		}
		b.Rels[name] = RelBound{Name: name, Arity: 1, Lower: lower, Upper: upper}
	}

	// Field relation bounds: union over declaring sigs of
	// block(sig) x upper(range).
	for _, fname := range info.FieldOrder {
		f := info.Fields[fname]
		upper := NewTupleSet(f.Arity)
		for i, owner := range f.Sigs {
			src := b.sigUpper(owner)
			rng, err := b.EvalUpper(f.Decls[i].Expr, info)
			if err != nil {
				return nil, fmt.Errorf("field %s of %s: %w", fname, owner, err)
			}
			upper = upper.Union(src.Product(rng))
		}
		b.Rels[fname] = RelBound{Name: fname, Arity: f.Arity, Lower: NewTupleSet(f.Arity), Upper: upper}
	}

	// Primed shadows share their base relation's bounds.
	for name := range info.Primed {
		base, ok := b.Rels[name]
		if !ok {
			return nil, fmt.Errorf("primed relation %q has no bounds", name)
		}
		shadow := name + "'"
		b.Rels[shadow] = RelBound{
			Name:  shadow,
			Arity: base.Arity,
			Lower: base.Lower,
			Upper: base.Upper,
		}
	}

	_ = mod
	return b, nil
}

func resolveTop(info *types.Info, scope ast.Scope, top string, def int) int {
	if n, ok := scope.Exact[top]; ok {
		return n
	}
	if n, ok := scope.PerSig[top]; ok {
		return n
	}
	if info.Sigs[top].Mult == ast.MultOne || info.Sigs[top].Mult == ast.MultLone {
		return 1
	}
	return def
}

func (b *Bounds) sigUpper(name string) TupleSet {
	if r, ok := b.Rels[name]; ok {
		return r.Upper
	}
	return UnarySet(b.Block[b.TopOf[name]]...)
}

// AllAtoms returns every atom index in the universe.
func (b *Bounds) AllAtoms() []int {
	out := make([]int, b.Universe.Size())
	for i := range out {
		out[i] = i
	}
	return out
}

// EvalUpper computes the upper-bound tuple set of a bounding expression.
// Only the connectives that occur in declaration bounds are supported:
// signature names, none/univ/iden, product, union, intersection, difference
// and domain/range restriction.
func (b *Bounds) EvalUpper(e ast.Expr, info *types.Info) (TupleSet, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if _, ok := info.Sigs[x.Name]; ok {
			return b.sigUpper(x.Name), nil
		}
		if f, ok := info.Fields[x.Name]; ok {
			if r, ok := b.Rels[x.Name]; ok {
				return r.Upper, nil
			}
			_ = f
		}
		return TupleSet{}, fmt.Errorf("cannot bound name %q", x.Name)
	case *ast.Const:
		switch x.Kind {
		case ast.ConstNone:
			return NewTupleSet(1), nil
		case ast.ConstUniv:
			return UnarySet(b.AllAtoms()...), nil
		default:
			return Iden(b.AllAtoms()), nil
		}
	case *ast.Binary:
		l, err := b.EvalUpper(x.Left, info)
		if err != nil {
			return TupleSet{}, err
		}
		r, err := b.EvalUpper(x.Right, info)
		if err != nil {
			return TupleSet{}, err
		}
		switch x.Op {
		case ast.BinProduct:
			return l.Product(r), nil
		case ast.BinUnion:
			return l.Union(r), nil
		case ast.BinIntersect:
			return l.Intersect(r), nil
		case ast.BinDiff:
			return l, nil // upper bound of a difference is the left upper
		case ast.BinJoin:
			return l.Join(r), nil
		case ast.BinDomRestr:
			return r.DomRestr(l), nil
		case ast.BinRanRestr:
			return l.RanRestr(r), nil
		default:
			return TupleSet{}, fmt.Errorf("unsupported operator %s in bounding expression", x.Op)
		}
	case *ast.Unary:
		switch x.Op {
		case ast.UnTranspose:
			s, err := b.EvalUpper(x.Sub, info)
			if err != nil {
				return TupleSet{}, err
			}
			return s.Transpose(), nil
		case ast.UnClosure, ast.UnReflClose:
			s, err := b.EvalUpper(x.Sub, info)
			if err != nil {
				return TupleSet{}, err
			}
			return s.ReflClosure(b.AllAtoms()), nil
		default:
			return TupleSet{}, fmt.Errorf("unsupported unary %s in bounding expression", x.Op)
		}
	default:
		return TupleSet{}, fmt.Errorf("unsupported %T in bounding expression", e)
	}
}

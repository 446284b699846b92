package translate

import (
	"fmt"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bounds"
)

// ImplicitConstraints builds the circuit for everything the Alloy semantics
// implies beyond the explicit facts: signature hierarchy containment and
// disjointness, abstractness, signature multiplicities and scopes, field
// typing and field multiplicities (including primed shadows), plus prefix
// symmetry breaking on top-level signature blocks.
func (tr *Translator) ImplicitConstraints() (Node, error) {
	if err := tr.ctxErr(); err != nil {
		return nil, err
	}
	var parts []Node

	add := func(n Node) { parts = append(parts, n) }

	info := tr.Info
	b := tr.Bounds

	// Children per parent.
	children := map[string][]string{}
	for _, name := range info.SigOrder {
		s := info.Sigs[name]
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], name)
		}
	}

	for _, name := range info.SigOrder {
		s := info.Sigs[name]
		m := tr.matrices[name]

		// Containment in parent, or in the union of declared supersets.
		if s.Parent != "" {
			add(m.SubsetOf(tr.matrices[s.Parent]))
		}
		if len(s.Subset) > 0 {
			union := NewMatrix(1)
			for _, sup := range s.Subset {
				union = union.Union(tr.matrices[sup])
			}
			add(m.SubsetOf(union))
		}

		// Abstract = union of children (when it has any).
		if s.Abstract && len(children[name]) > 0 {
			union := NewMatrix(1)
			for _, c := range children[name] {
				union = union.Union(tr.matrices[c])
			}
			add(m.SubsetOf(union))
		}

		// Scope and multiplicity cardinalities.
		sc := b.Sigs[name]
		isTop := b.TopOf[name] == name
		switch {
		case sc.Exact && isTop:
			// Lower bound equals upper bound: nothing to add.
			if m.Len() > sc.Size {
				add(m.AtMost(sc.Size))
				add(m.AtLeast(sc.Size))
			}
		case sc.Exact:
			add(m.AtMost(sc.Size))
			add(m.AtLeast(sc.Size))
		default:
			if m.Len() > sc.Size {
				add(m.AtMost(sc.Size))
			}
		}
		if s.Mult == ast.MultSome {
			add(m.Some())
		}

		// Prefix symmetry breaking on top-level, non-exact blocks.
		if isTop && !sc.Exact {
			block := b.Block[name]
			for i := 1; i < len(block); i++ {
				cur := m.Get(bounds.Tuple{block[i]})
				prev := m.Get(bounds.Tuple{block[i-1]})
				add(Implies(cur, prev))
			}
		}
	}

	// Sibling disjointness (children of the same parent).
	for _, kids := range children {
		for i := 0; i < len(kids); i++ {
			for j := i + 1; j < len(kids); j++ {
				a, c := tr.matrices[kids[i]], tr.matrices[kids[j]]
				for _, t := range a.Tuples() {
					if IsFalse(c.Get(t)) {
						continue
					}
					add(Not(And(a.Get(t), c.Get(t))))
				}
			}
		}
	}

	// Field constraints, applied to the base relation and its primed shadow.
	for _, fname := range info.FieldOrder {
		f := info.Fields[fname]
		targets := []string{fname}
		if info.Primed[fname] {
			targets = append(targets, fname+"'")
		}
		for _, target := range targets {
			fm, ok := tr.matrices[target]
			if !ok {
				continue
			}
			n, err := tr.fieldConstraints(f, fm)
			if err != nil {
				return nil, err
			}
			add(n)
		}
	}

	return And(parts...), nil
}

// fieldConstraints encodes typing and multiplicity for one field relation
// matrix. For merged fields (same name in several sigs) each tuple must be
// justified by at least one declaring sig, and each declaring sig's
// multiplicity applies to rows rooted at its own members.
func (tr *Translator) fieldConstraints(f *types.Field, fm Matrix) (Node, error) {
	var parts []Node

	// Typing: every tuple implies source membership and range membership
	// under at least one declaration.
	ranges := make([]Matrix, len(f.Decls))
	for i, d := range f.Decls {
		rm, err := tr.Expr(stripMults(d.Expr), Env{})
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", f.Name, err)
		}
		ranges[i] = rm
	}
	for _, t := range fm.Tuples() {
		var cases []Node
		for i := range f.Decls {
			src := tr.matrices[f.Sigs[i]].Get(bounds.Tuple{t[0]})
			rng := ranges[i].Get(t[1:])
			cases = append(cases, And(src, rng))
		}
		parts = append(parts, Implies(fm.Get(t), Or(cases...)))
	}

	// Multiplicities, per declaration.
	for i, d := range f.Decls {
		owner := tr.matrices[f.Sigs[i]]
		n, err := tr.fieldMultiplicity(d, owner, fm)
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", f.Name, err)
		}
		parts = append(parts, n)
	}
	return And(parts...), nil
}

// stripMults removes arrow multiplicity annotations for range translation.
func stripMults(e ast.Expr) ast.Expr {
	return ast.Rewrite(e, func(x ast.Expr) ast.Expr {
		if b, ok := x.(*ast.Binary); ok && b.Op == ast.BinProduct && (b.LeftMult != 0 || b.RightMult != 0) {
			return &ast.Binary{Op: ast.BinProduct, Left: b.Left, Right: b.Right}
		}
		return x
	})
}

// fieldMultiplicity encodes the multiplicity constraints of one declaration:
//
//	f: m E            (unary range, m in one/lone/some/set; default one)
//	f: E1 -> m E2     (per source atom and E1 atom, m keys on the last column)
//	f: E1 m -> E2     (per source atom and E2 atom, m keys on the middle column)
func (tr *Translator) fieldMultiplicity(d *ast.Decl, owner, fm Matrix) (Node, error) {
	var parts []Node

	// group returns the sub-matrix of fm's entries that keep selects, each
	// re-keyed by proj.
	group := func(arity int, keep func(t bounds.Tuple) bool, proj func(t bounds.Tuple) bounds.Tuple) Matrix {
		var es []entry
		for i, t := range fm.Tuples() {
			if keep(t) {
				es = append(es, entry{proj(t).Key(), fm.nodes[i]})
			}
		}
		return collect(arity, es)
	}
	rowOf := func(srcAtom int) Matrix {
		return group(fm.Arity()-1,
			func(t bounds.Tuple) bool { return t[0] == srcAtom },
			func(t bounds.Tuple) bounds.Tuple { return t[1:] })
	}

	applyMult := func(guard Node, m Matrix, mult ast.Mult) {
		switch mult {
		case ast.MultOne:
			parts = append(parts, Implies(guard, m.One()))
		case ast.MultLone:
			parts = append(parts, Implies(guard, m.Lone()))
		case ast.MultSome:
			parts = append(parts, Implies(guard, m.Some()))
		}
	}

	// Domain membership is enforced by the typing constraint (a tuple needs
	// at least one declaring sig to justify it); here only the per-owner
	// multiplicities are added, each guarded by the owner's membership.
	prod, isProd := d.Expr.(*ast.Binary)
	if !isProd || prod.Op != ast.BinProduct {
		// Unary (or otherwise non-product) range: multiplicity over the row.
		mult := d.Mult
		if mult == ast.MultDefault {
			if fm.Arity() == 2 {
				mult = ast.MultOne // Alloy default for unary field ranges
			} else {
				mult = ast.MultSet
			}
		}
		for _, t := range owner.Tuples() {
			applyMult(owner.Get(t), rowOf(t[0]), mult)
		}
		return And(parts...), nil
	}

	// Product range: apply RightMult per (src, left) prefix and LeftMult per
	// (src, right) pair. Only the outermost arrow's annotations are applied.
	leftM, err := tr.Expr(stripMults(prod.Left), Env{})
	if err != nil {
		return nil, err
	}
	rightM, err := tr.Expr(stripMults(prod.Right), Env{})
	if err != nil {
		return nil, err
	}
	if prod.RightMult != 0 && prod.RightMult != ast.MultSet && leftM.Arity() == 1 {
		for _, src := range owner.Tuples() {
			for _, lt := range leftM.Tuples() {
				g := group(rightM.Arity(),
					func(t bounds.Tuple) bool { return t[0] == src[0] && t[1] == lt[0] },
					func(t bounds.Tuple) bounds.Tuple { return t[2:] })
				guard := And(owner.Get(src), leftM.Get(lt))
				applyMult(guard, g, prod.RightMult)
			}
		}
	}
	if prod.LeftMult != 0 && prod.LeftMult != ast.MultSet && rightM.Arity() == 1 {
		for _, src := range owner.Tuples() {
			for _, rt := range rightM.Tuples() {
				g := group(leftM.Arity(),
					func(t bounds.Tuple) bool { return t[0] == src[0] && t[len(t)-1] == rt[0] },
					func(t bounds.Tuple) bounds.Tuple { return t[1 : len(t)-1] })
				guard := And(owner.Get(src), rightM.Get(rt))
				applyMult(guard, g, prod.LeftMult)
			}
		}
	}
	return And(parts...), nil
}

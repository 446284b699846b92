// Package mutation provides the mutation substrate shared by the repair
// tools: enumerating mutable sites in a module, applying a replacement
// expression at a site (producing a fresh module), and generating candidate
// replacement expressions for a node — operator flips, quantifier swaps,
// negation toggles, relation substitutions, and small structural edits.
package mutation

import (
	"fmt"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
)

// ContainerKind identifies the paragraph holding a site.
type ContainerKind int

// Container kinds.
const (
	InFact ContainerKind = iota + 1
	InPred
	InAssert
	InFun
)

// String renders the kind.
func (k ContainerKind) String() string {
	switch k {
	case InFact:
		return "fact"
	case InPred:
		return "pred"
	case InAssert:
		return "assert"
	case InFun:
		return "fun"
	default:
		return "?"
	}
}

// Container names a paragraph: facts are identified by index (anonymous
// facts have no unique name).
type Container struct {
	Kind  ContainerKind
	Index int // index within the module's list for that kind
	Name  string
}

// String renders the container for diagnostics.
func (c Container) String() string {
	if c.Name != "" {
		return fmt.Sprintf("%s %s", c.Kind, c.Name)
	}
	return fmt.Sprintf("%s #%d", c.Kind, c.Index)
}

// Site is one mutable expression node, addressed by the child-index path
// from its container's body. Paths remain valid across Module.Clone.
type Site struct {
	Container Container
	Path      []int
	// Node is the expression at the path in the module the sites were
	// enumerated from (for inspection; Apply re-resolves by path).
	Node ast.Expr
}

// String renders the site.
func (s Site) String() string {
	return fmt.Sprintf("%s @ %v", s.Container, s.Path)
}

// containerBody returns the body expression of a container within mod.
func containerBody(mod *ast.Module, c Container) (ast.Expr, error) {
	switch c.Kind {
	case InFact:
		if c.Index >= len(mod.Facts) {
			return nil, fmt.Errorf("fact #%d out of range", c.Index)
		}
		return mod.Facts[c.Index].Body, nil
	case InPred:
		if c.Index >= len(mod.Preds) {
			return nil, fmt.Errorf("pred #%d out of range", c.Index)
		}
		return mod.Preds[c.Index].Body, nil
	case InAssert:
		if c.Index >= len(mod.Asserts) {
			return nil, fmt.Errorf("assert #%d out of range", c.Index)
		}
		return mod.Asserts[c.Index].Body, nil
	case InFun:
		if c.Index >= len(mod.Funs) {
			return nil, fmt.Errorf("fun #%d out of range", c.Index)
		}
		return mod.Funs[c.Index].Body, nil
	default:
		return nil, fmt.Errorf("unknown container kind")
	}
}

// Resolve returns the node at the site's path within mod.
func Resolve(mod *ast.Module, s Site) (ast.Expr, error) {
	cur, err := containerBody(mod, s.Container)
	if err != nil {
		return nil, err
	}
	for depth, idx := range s.Path {
		kids := ast.Children(cur)
		if idx >= len(kids) {
			return nil, fmt.Errorf("site %v: path step %d/%d out of range", s, depth, idx)
		}
		cur = kids[idx]
	}
	return cur, nil
}

// Sites enumerates every expression node in the repairable paragraphs
// (facts, predicates, and functions) of mod, in deterministic order.
// Assertion bodies are excluded by default: the study's repair tools treat
// assertions and commands as the oracle, not the patch surface.
func Sites(mod *ast.Module) []Site {
	var out []Site
	collect := func(c Container, body ast.Expr) {
		var rec func(e ast.Expr, path []int)
		rec = func(e ast.Expr, path []int) {
			out = append(out, Site{Container: c, Path: append([]int(nil), path...), Node: e})
			for i, kid := range ast.Children(e) {
				rec(kid, append(path, i))
			}
		}
		rec(body, nil)
	}
	for i, f := range mod.Facts {
		collect(Container{Kind: InFact, Index: i, Name: f.Name}, f.Body)
	}
	for i, p := range mod.Preds {
		collect(Container{Kind: InPred, Index: i, Name: p.Name}, p.Body)
	}
	for i, fn := range mod.Funs {
		collect(Container{Kind: InFun, Index: i, Name: fn.Name}, fn.Body)
	}
	return out
}

// Apply returns a module with the node at the site replaced by repl. The
// input module is not modified.
//
// The result is copy-on-write: it shares every paragraph except the edited
// one with mod, and the edited paragraph's new body shares every subtree off
// the edited path. That is sound because modules are immutable once built:
// types.Check, types.Lower and NewEngine build copies where they desugar or
// rewrite, and no caller modifies a module it did not just allocate.
func Apply(mod *ast.Module, s Site, repl ast.Expr) (*ast.Module, error) {
	body, err := containerBody(mod, s.Container)
	if err != nil {
		return nil, err
	}
	newBody, err := replaceAt(body, s.Path, repl.CloneExpr())
	if err != nil {
		return nil, fmt.Errorf("site %v: %w", s, err)
	}
	out := *mod
	i := s.Container.Index
	switch s.Container.Kind {
	case InFact:
		f := *mod.Facts[i]
		f.Body = newBody
		out.Facts = replaceParagraph(mod.Facts, i, &f)
	case InPred:
		p := *mod.Preds[i]
		p.Body = newBody
		out.Preds = replaceParagraph(mod.Preds, i, &p)
	case InAssert:
		a := *mod.Asserts[i]
		a.Body = newBody
		out.Asserts = replaceParagraph(mod.Asserts, i, &a)
	case InFun:
		fn := *mod.Funs[i]
		fn.Body = newBody
		out.Funs = replaceParagraph(mod.Funs, i, &fn)
	}
	return &out, nil
}

// replaceParagraph returns a copy of list with element i replaced, leaving
// list itself untouched.
func replaceParagraph[T any](list []*T, i int, p *T) []*T {
	out := append([]*T(nil), list...)
	out[i] = p
	return out
}

// replaceAt rebuilds the expression with the node at path replaced.
func replaceAt(e ast.Expr, path []int, repl ast.Expr) (ast.Expr, error) {
	if len(path) == 0 {
		return repl, nil
	}
	idx := path[0]
	kids := ast.Children(e)
	if idx >= len(kids) {
		return nil, fmt.Errorf("path index %d out of range (%d children of %T)", idx, len(kids), e)
	}
	newKid, err := replaceAt(kids[idx], path[1:], repl)
	if err != nil {
		return nil, err
	}
	return rebuildWithChild(e, idx, newKid)
}

// rebuildWithChild clones e with child i swapped; the child ordering must
// match ast.Children exactly.
func rebuildWithChild(e ast.Expr, i int, kid ast.Expr) (ast.Expr, error) {
	switch x := e.(type) {
	case *ast.Unary:
		return &ast.Unary{Op: x.Op, Sub: kid, OpPos: x.OpPos}, nil
	case *ast.Binary:
		c := *x
		if i == 0 {
			c.Left = kid
		} else {
			c.Right = kid
		}
		return &c, nil
	case *ast.Prime:
		return &ast.Prime{Sub: kid}, nil
	case *ast.BoxJoin:
		c := &ast.BoxJoin{Target: x.Target, Args: append([]ast.Expr(nil), x.Args...)}
		if i == 0 {
			c.Target = kid
		} else {
			c.Args[i-1] = kid
		}
		return c, nil
	case *ast.Quantified:
		c := &ast.Quantified{Quant: x.Quant, Body: x.Body, QuantPos: x.QuantPos}
		c.Decls = make([]*ast.Decl, len(x.Decls))
		for j, d := range x.Decls {
			c.Decls[j] = d.Clone()
		}
		if i < len(c.Decls) {
			c.Decls[i].Expr = kid
		} else {
			c.Body = kid
		}
		return c, nil
	case *ast.Comprehension:
		c := &ast.Comprehension{Body: x.Body, OpenPos: x.OpenPos}
		c.Decls = make([]*ast.Decl, len(x.Decls))
		for j, d := range x.Decls {
			c.Decls[j] = d.Clone()
		}
		if i < len(c.Decls) {
			c.Decls[i].Expr = kid
		} else {
			c.Body = kid
		}
		return c, nil
	case *ast.Let:
		c := &ast.Let{
			Names:  append([]string(nil), x.Names...),
			Values: append([]ast.Expr(nil), x.Values...),
			Body:   x.Body,
			LetPos: x.LetPos,
		}
		if i < len(c.Values) {
			c.Values[i] = kid
		} else {
			c.Body = kid
		}
		return c, nil
	case *ast.IfElse:
		c := *x
		switch i {
		case 0:
			c.Cond = kid
		case 1:
			c.Then = kid
		default:
			c.Else = kid
		}
		return &c, nil
	case *ast.Block:
		c := &ast.Block{Exprs: append([]ast.Expr(nil), x.Exprs...), OpenPos: x.OpenPos}
		c.Exprs[i] = kid
		return c, nil
	case *ast.Call:
		c := &ast.Call{Name: x.Name, Args: append([]ast.Expr(nil), x.Args...), NamePos: x.NamePos}
		c.Args[i] = kid
		return c, nil
	default:
		return nil, fmt.Errorf("cannot rebuild %T", e)
	}
}

// DropConjunct returns modules with one conjunct of a block removed — the
// classic over-constraint repair. Only blocks with two or more conjuncts
// are considered; sites must point at Block nodes.
func DropConjunct(mod *ast.Module, s Site) ([]*ast.Module, error) {
	node, err := Resolve(mod, s)
	if err != nil {
		return nil, err
	}
	blk, ok := node.(*ast.Block)
	if !ok || len(blk.Exprs) < 2 {
		return nil, nil
	}
	var out []*ast.Module
	for drop := range blk.Exprs {
		c := &ast.Block{OpenPos: blk.OpenPos}
		for j, e := range blk.Exprs {
			if j != drop {
				c.Exprs = append(c.Exprs, e.CloneExpr())
			}
		}
		m, err := Apply(mod, s, c)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// relationsOfArity lists relation names (sigs and fields) with the given
// arity, in deterministic order.
func relationsOfArity(info *types.Info, arity int) []string {
	var out []string
	if arity == 1 {
		out = append(out, info.SigOrder...)
	}
	for _, f := range info.FieldOrder {
		if info.Fields[f].Arity == arity {
			out = append(out, f)
		}
	}
	return out
}

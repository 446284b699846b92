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
// from its container's body (the child indices of ast.Child). Paths stay
// valid in every module whose paragraph has the same shape.
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
		if idx >= ast.NumChildren(cur) {
			return nil, fmt.Errorf("site %v: path step %d/%d out of range", s, depth, idx)
		}
		cur = ast.Child(cur, idx)
	}
	return cur, nil
}

// Apply returns a module with the node at the site replaced by repl. The
// input module is not modified.
//
// The result is copy-on-write: it shares every paragraph except the edited
// one with mod, the edited paragraph's new body shares every subtree off the
// edited path, and repl itself is placed as it is. That is sound because no
// syntax-tree node is written after it is built (see package ast).
func Apply(mod *ast.Module, s Site, repl ast.Expr) (*ast.Module, error) {
	body, err := containerBody(mod, s.Container)
	if err != nil {
		return nil, err
	}
	newBody, err := replaceAt(body, s.Path, repl)
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
	if n := ast.NumChildren(e); idx >= n {
		return nil, fmt.Errorf("path index %d out of range (%d children of %T)", idx, n, e)
	}
	newKid, err := replaceAt(ast.Child(e, idx), path[1:], repl)
	if err != nil {
		return nil, err
	}
	return ast.WithChild(e, idx, newKid), nil
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
				c.Exprs = append(c.Exprs, e)
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

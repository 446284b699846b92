package mutation

import (
	"fmt"
	"reflect"

	"specrepair/internal/alloy/ast"
)

// DeepApply is the reference the copy-on-write Apply must agree with: it
// deep-copies the edited paragraph's body by reflection, then writes repl
// over the node at the site in place. It shares no code with the package's
// path resolution or node rebuilding.
func DeepApply(mod *ast.Module, s Site, repl ast.Expr) (*ast.Module, error) {
	out := *mod
	var ref *ast.Expr
	i := s.Container.Index
	switch s.Container.Kind {
	case InFact:
		if i < len(mod.Facts) {
			f := *mod.Facts[i]
			out.Facts = append([]*ast.Fact(nil), mod.Facts...)
			out.Facts[i], ref = &f, &f.Body
		}
	case InPred:
		if i < len(mod.Preds) {
			p := *mod.Preds[i]
			out.Preds = append([]*ast.Pred(nil), mod.Preds...)
			out.Preds[i], ref = &p, &p.Body
		}
	case InAssert:
		if i < len(mod.Asserts) {
			a := *mod.Asserts[i]
			out.Asserts = append([]*ast.Assert(nil), mod.Asserts...)
			out.Asserts[i], ref = &a, &a.Body
		}
	case InFun:
		if i < len(mod.Funs) {
			fn := *mod.Funs[i]
			out.Funs = append([]*ast.Fun(nil), mod.Funs...)
			out.Funs[i], ref = &fn, &fn.Body
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("site %v: no such container", s)
	}
	*ref = deepCopy(reflect.ValueOf(ref).Elem()).Interface().(ast.Expr)
	for _, idx := range s.Path {
		refs := childRefs(*ref)
		if idx >= len(refs) {
			return nil, fmt.Errorf("site %v: path index %d out of range", s, idx)
		}
		ref = refs[idx]
	}
	*ref = repl
	return &out, nil
}

// childRefs returns the addresses of e's direct sub-expressions in source
// order, declaration bounds before bodies.
func childRefs(e ast.Expr) []*ast.Expr {
	var refs []*ast.Expr
	decls := func(ds []*ast.Decl) {
		for _, d := range ds {
			refs = append(refs, &d.Expr)
		}
	}
	exprs := func(xs []ast.Expr) {
		for i := range xs {
			refs = append(refs, &xs[i])
		}
	}
	switch x := e.(type) {
	case *ast.Unary:
		refs = append(refs, &x.Sub)
	case *ast.Prime:
		refs = append(refs, &x.Sub)
	case *ast.Binary:
		refs = append(refs, &x.Left, &x.Right)
	case *ast.BoxJoin:
		refs = append(refs, &x.Target)
		exprs(x.Args)
	case *ast.Quantified:
		decls(x.Decls)
		refs = append(refs, &x.Body)
	case *ast.Comprehension:
		decls(x.Decls)
		refs = append(refs, &x.Body)
	case *ast.Let:
		exprs(x.Values)
		refs = append(refs, &x.Body)
	case *ast.IfElse:
		refs = append(refs, &x.Cond, &x.Then, &x.Else)
	case *ast.Block:
		exprs(x.Exprs)
	case *ast.Call:
		exprs(x.Args)
	}
	return refs
}

// deepCopy returns a copy of v that shares no pointer, slice or map with it.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
		if v.IsNil() {
			return v
		}
	}
	switch v.Kind() {
	case reflect.Pointer:
		c := reflect.New(v.Elem().Type())
		c.Elem().Set(deepCopy(v.Elem()))
		return c
	case reflect.Interface:
		c := reflect.New(v.Type()).Elem()
		c.Set(deepCopy(v.Elem()))
		return c
	case reflect.Slice:
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Map:
		c := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			c.SetMapIndex(it.Key(), deepCopy(it.Value()))
		}
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			c.Field(i).Set(deepCopy(v.Field(i)))
		}
		return c
	default:
		return v
	}
}

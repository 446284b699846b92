package mutation

import (
	"fmt"

	"specrepair/internal/alloy/ast"
)

// DeepApply is the reference the copy-on-write Apply must agree with: it
// deep-clones the whole module and then replaces the node at the site.
func DeepApply(mod *ast.Module, s Site, repl ast.Expr) (*ast.Module, error) {
	out := mod.Clone()
	body, err := containerBody(out, s.Container)
	if err != nil {
		return nil, err
	}
	newBody, err := replaceAt(body, s.Path, repl.CloneExpr())
	if err != nil {
		return nil, fmt.Errorf("site %v: %w", s, err)
	}
	switch s.Container.Kind {
	case InFact:
		out.Facts[s.Container.Index].Body = newBody
	case InPred:
		out.Preds[s.Container.Index].Body = newBody
	case InAssert:
		out.Asserts[s.Container.Index].Body = newBody
	case InFun:
		out.Funs[s.Container.Index].Body = newBody
	}
	return out, nil
}

// Package printer renders AST nodes back to canonical Alloy concrete syntax.
//
// The output is deterministic: printing a parsed module and re-parsing it
// yields a structurally identical tree. Repair tools produce ASTs; the
// similarity metrics (Token Match, Syntax Match) consume this printer's
// output, so canonical form matters more than preserving source layout.
//
// Every entry point streams its whole rendering into one strings.Builder:
// a node's precedence level is known before its children are written
// (ast.PrecOf, the table the parser climbs), so parentheses are decided up
// front and no subtree is rendered into a string of its own.
package printer

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"specrepair/internal/alloy/ast"
)

// Module renders an entire module.
func Module(m *ast.Module) string {
	var b strings.Builder
	// Printed paragraphs average about 60 bytes, so this sizes the buffer
	// once for most modules instead of growing it by doubling.
	b.Grow(80 * (1 + len(m.Sigs) + len(m.Facts) + len(m.Funs) + len(m.Preds) + len(m.Asserts) + len(m.Commands)))
	if m.Name != "" {
		put(&b, "module ", m.Name, "\n\n")
	}
	for _, s := range m.Sigs {
		writeSig(&b, s)
		b.WriteString("\n")
	}
	for _, f := range m.Facts {
		if f.Name != "" {
			put(&b, "fact ", f.Name, " {\n")
		} else {
			b.WriteString("fact {\n")
		}
		writeBody(&b, f.Body)
		b.WriteString("}\n\n")
	}
	for _, fn := range m.Funs {
		put(&b, "fun ", fn.Name, "[")
		writeDecls(&b, fn.Params)
		b.WriteString("]: ")
		writeExpr(&b, fn.Result, ast.PrecQuant)
		b.WriteString(" {\n  ")
		writeExpr(&b, fn.Body, ast.PrecQuant)
		b.WriteString("\n}\n\n")
	}
	for _, p := range m.Preds {
		put(&b, "pred ", p.Name)
		if len(p.Params) > 0 {
			b.WriteString("[")
			writeDecls(&b, p.Params)
			b.WriteString("]")
		}
		b.WriteString(" {\n")
		writeBody(&b, p.Body)
		b.WriteString("}\n\n")
	}
	for _, a := range m.Asserts {
		put(&b, "assert ", a.Name, " {\n")
		writeBody(&b, a.Body)
		b.WriteString("}\n\n")
	}
	for _, c := range m.Commands {
		writeCommand(&b, c)
		b.WriteString("\n")
	}
	return b.String()
}

// Sig renders a single signature declaration in canonical form. The
// incremental analyzer fingerprints modules on this rendering to detect
// bounds-affecting differences between repair candidates.
func Sig(s *ast.Sig) string {
	var b strings.Builder
	writeSig(&b, s)
	return b.String()
}

func writeSig(b *strings.Builder, s *ast.Sig) {
	if s.Abstract {
		b.WriteString("abstract ")
	}
	if s.Mult != ast.MultDefault && s.Mult.String() != "" {
		put(b, s.Mult.String(), " ")
	}
	b.WriteString("sig ")
	writeJoined(b, s.Names, ", ")
	if s.Parent != "" {
		put(b, " extends ", s.Parent)
	} else if len(s.Subset) > 0 {
		b.WriteString(" in ")
		writeJoined(b, s.Subset, " + ")
	}
	if len(s.Fields) == 0 {
		b.WriteString(" {}")
	} else {
		b.WriteString(" {\n")
		for i, f := range s.Fields {
			b.WriteString("  ")
			writeDecl(b, f)
			if i < len(s.Fields)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString("}")
	}
	if s.Fact != nil {
		b.WriteString(" {\n")
		writeBody(b, s.Fact)
		b.WriteString("}")
	}
	b.WriteString("\n")
}

// Command renders a single command in canonical form. The analysis cache
// keys on this rendering, so it must identify the command completely: when a
// command carries both a target and an inline block (as rewritten oracle
// commands can), both are included.
func Command(c *ast.Command) string {
	var b strings.Builder
	writeCommand(&b, c)
	if c.Target != "" && c.Block != nil {
		b.WriteString(" {")
		writeExpr(&b, c.Block, ast.PrecQuant)
		b.WriteString("}")
	}
	return b.String()
}

// writeCommand writes a command as it appears in a module: the target, or
// the inline block when there is no target.
func writeCommand(b *strings.Builder, c *ast.Command) {
	if c.Name != "" && c.Name != c.Target {
		put(b, c.Name, ": ")
	}
	put(b, c.Kind.String(), " ")
	if c.Target != "" {
		b.WriteString(c.Target)
	} else if c.Block != nil {
		writeExpr(b, c.Block, ast.PrecQuant)
	}
	writeScope(b, c.Scope)
	if c.Expect >= 0 {
		b.WriteString(" expect ")
		writeInt(b, c.Expect)
	}
}

// writeScope writes " for N", " for N but P, ...", " for P, ..." or
// nothing, where the parts P are the bitwidth, then the exact and then the
// per-sig bounds, each group in name order.
func writeScope(b *strings.Builder, s ast.Scope) {
	parts := 0
	part := func() {
		switch {
		case parts > 0:
			b.WriteString(", ")
		case s.Default > 0:
			b.WriteString(" for ")
			writeInt(b, s.Default)
			b.WriteString(" but ")
		default:
			b.WriteString(" for ")
		}
		parts++
	}
	if s.Bitwidth > 0 {
		part()
		writeInt(b, s.Bitwidth)
		b.WriteString(" Int")
	}
	for _, group := range [2]struct {
		bounds map[string]int
		prefix string
	}{{s.Exact, "exactly "}, {s.PerSig, ""}} {
		names := make([]string, 0, len(group.bounds))
		for n := range group.bounds {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			part()
			b.WriteString(group.prefix)
			writeInt(b, group.bounds[n])
			put(b, " ", n)
		}
	}
	if parts == 0 && s.Default > 0 {
		b.WriteString(" for ")
		writeInt(b, s.Default)
	}
}

// put writes each string in turn.
func put(b *strings.Builder, ss ...string) {
	for _, s := range ss {
		b.WriteString(s)
	}
}

func writeInt(b *strings.Builder, n int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(n), 10))
}

func writeJoined(b *strings.Builder, parts []string, sep string) {
	for i, p := range parts {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(p)
	}
}

func writeDecls(b *strings.Builder, ds []*ast.Decl) {
	for i, d := range ds {
		if i > 0 {
			b.WriteString(", ")
		}
		writeDecl(b, d)
	}
}

func writeDecl(b *strings.Builder, d *ast.Decl) {
	if d.Disj {
		b.WriteString("disj ")
	}
	writeJoined(b, d.Names, ", ")
	b.WriteString(": ")
	if d.Mult != ast.MultDefault && d.Mult.String() != "" {
		put(b, d.Mult.String(), " ")
	}
	writeExpr(b, d.Expr, ast.PrecUnion)
}

// writeBody writes a paragraph body indented one level, a block one formula
// per line and anything else as a single line.
func writeBody(b *strings.Builder, e ast.Expr) {
	if blk, ok := e.(*ast.Block); ok {
		for _, x := range blk.Exprs {
			b.WriteString("  ")
			writeExpr(b, x, ast.PrecQuant)
			b.WriteString("\n")
		}
		return
	}
	b.WriteString("  ")
	writeExpr(b, e, ast.PrecQuant)
	b.WriteString("\n")
}

// Expr renders an expression with minimal parentheses.
func Expr(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e, ast.PrecQuant)
	return b.String()
}

// writeExpr writes e, parenthesized when its level is below ctx.
func writeExpr(b *strings.Builder, e ast.Expr, ctx ast.Prec) {
	if ast.PrecOf(e) < ctx {
		b.WriteString("(")
		writeBare(b, e)
		b.WriteString(")")
		return
	}
	writeBare(b, e)
}

// writeBare writes e without enclosing parentheses.
func writeBare(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		if x.NoImplicit {
			b.WriteString("@")
		}
		b.WriteString(x.Name)
	case *ast.Const:
		b.WriteString(x.Kind.String())
	case *ast.IntLit:
		writeInt(b, x.Value)
	case *ast.Prime:
		writeExpr(b, x.Sub, ast.PrecAtom)
		b.WriteString("'")
	case *ast.Unary:
		b.WriteString(x.Op.String())
		switch x.Op {
		case ast.UnTranspose, ast.UnClosure, ast.UnReflClose, ast.UnCard:
		default:
			b.WriteString(" ")
		}
		// not binds looser than its operand level; keep children at same level.
		writeExpr(b, x.Sub, x.Op.Prec()+1)
	case *ast.Binary:
		p := x.Op.Prec()
		if x.Op == ast.BinJoin {
			writeExpr(b, x.Left, p)
			b.WriteString(".")
			writeExpr(b, x.Right, p+1)
			return
		}
		// Left associative: the right child needs one level tighter;
		// implies is right associative.
		lctx, rctx := p, p+1
		if x.Op == ast.BinImplies {
			lctx, rctx = p+1, p
		}
		writeExpr(b, x.Left, lctx)
		b.WriteString(" ")
		if x.Op == ast.BinProduct && x.LeftMult != 0 && x.LeftMult.String() != "" {
			put(b, x.LeftMult.String(), " ")
		}
		b.WriteString(x.Op.String())
		if x.Op == ast.BinProduct && x.RightMult != 0 && x.RightMult.String() != "" {
			put(b, " ", x.RightMult.String())
		}
		b.WriteString(" ")
		writeExpr(b, x.Right, rctx)
	case *ast.BoxJoin:
		writeExpr(b, x.Target, ast.PrecJoin)
		writeArgs(b, x.Args)
	case *ast.Call:
		b.WriteString(x.Name)
		writeArgs(b, x.Args)
	case *ast.Quantified:
		put(b, x.Quant.String(), " ")
		writeDecls(b, x.Decls)
		b.WriteString(" | ")
		writeExpr(b, x.Body, ast.PrecQuant)
	case *ast.Comprehension:
		b.WriteString("{")
		writeDecls(b, x.Decls)
		b.WriteString(" | ")
		writeExpr(b, x.Body, ast.PrecQuant)
		b.WriteString("}")
	case *ast.Let:
		b.WriteString("let ")
		for i, n := range x.Names {
			if i > 0 {
				b.WriteString(", ")
			}
			put(b, n, " = ")
			writeExpr(b, x.Values[i], ast.PrecUnion)
		}
		b.WriteString(" | ")
		writeExpr(b, x.Body, ast.PrecQuant)
	case *ast.IfElse:
		writeExpr(b, x.Cond, ast.PrecImplies+1)
		b.WriteString(" implies ")
		writeExpr(b, x.Then, ast.PrecImplies+1)
		b.WriteString(" else ")
		writeExpr(b, x.Else, ast.PrecImplies)
	case *ast.Block:
		b.WriteString("{ ")
		for i, sub := range x.Exprs {
			if i > 0 {
				b.WriteString(" ")
			}
			writeExpr(b, sub, ast.PrecQuant)
		}
		b.WriteString(" }")
	default:
		fmt.Fprintf(b, "<?%T>", e)
	}
}

// writeArgs writes a bracketed argument list.
func writeArgs(b *strings.Builder, args []ast.Expr) {
	b.WriteString("[")
	for i, a := range args {
		if i > 0 {
			b.WriteString(", ")
		}
		writeExpr(b, a, ast.PrecUnion)
	}
	b.WriteString("]")
}

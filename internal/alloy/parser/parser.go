// Package parser implements a parser for the Alloy subset: recursive descent
// for paragraphs and declarations, precedence climbing for expressions.
//
// Expressions climb the precedence levels of package ast (ast.Prec), the
// same table the printer parenthesizes by. Most levels are a table entry: a
// left-associative infix operator or a prefix operator. Four keep a rule of
// their own: implies (right associative, with an optional else), the
// comparisons (not associative, negated by a leading not or !), arrow (with
// multiplicities) and join (. and the box join e[...]).
package parser

import (
	"errors"
	"fmt"
	"strconv"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/lexer"
	"specrepair/internal/alloy/token"
)

// Error is a parse error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type parser struct {
	toks []token.Token
	i    int
}

// Parse parses an entire Alloy module from source text.
func Parse(src string) (*ast.Module, error) {
	toks, errs := lexer.ScanAll(src)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lexing: %w", errors.Join(errs...))
	}
	p := &parser{toks: toks}
	return p.parseModule()
}

// ParseExpr parses a single expression or formula from source text.
func ParseExpr(src string) (ast.Expr, error) {
	toks, errs := lexer.ScanAll(src)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lexing: %w", errors.Join(errs...))
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != token.EOF {
		return nil, p.errorf("unexpected %s after expression", p.cur())
	}
	return e, nil
}

func (p *parser) cur() token.Token { return p.toks[p.i] }
func (p *parser) peek() token.Token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token.Token {
	t := p.toks[p.i]
	if t.Kind != token.EOF {
		p.i++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return token.Token{}, p.errorf("expected %s, found %s", k, p.cur())
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// Token tables, indexed by token.Kind. The zero value means the token does
// not spell one.
var (
	// binOps holds the binary operator an infix token spells.
	binOps = [...]ast.BinOp{
		token.KwOr: ast.BinOr, token.BarBar: ast.BinOr,
		token.KwIff: ast.BinIff, token.IffOp: ast.BinIff,
		token.KwImplies: ast.BinImplies, token.ImpliesOp: ast.BinImplies,
		token.KwAnd: ast.BinAnd, token.AmpAmp: ast.BinAnd,
		token.KwIn: ast.BinIn, token.Eq: ast.BinEq, token.NotEq: ast.BinNotEq,
		token.Lt: ast.BinLt, token.Gt: ast.BinGt, token.LtEq: ast.BinLtEq, token.GtEq: ast.BinGtEq,
		token.Plus: ast.BinUnion, token.Minus: ast.BinDiff,
		token.PlusPlus: ast.BinOverride, token.Amp: ast.BinIntersect, token.Arrow: ast.BinProduct,
		token.DomRestr: ast.BinDomRestr, token.RanRestr: ast.BinRanRestr, token.Dot: ast.BinJoin,
	}
	// unOps holds the operator a prefix token spells.
	unOps = [...]ast.UnOp{
		token.KwNot: ast.UnNot, token.Bang: ast.UnNot,
		token.KwNo: ast.UnNo, token.KwSome: ast.UnSome, token.KwLone: ast.UnLone, token.KwOne: ast.UnOne, token.KwSet: ast.UnSet,
		token.Hash:  ast.UnCard,
		token.Tilde: ast.UnTranspose, token.Caret: ast.UnClosure, token.Star: ast.UnReflClose,
	}
	// quants holds the quantifier a keyword spells.
	quants = [...]ast.Quant{
		token.KwAll: ast.QuantAll, token.KwNo: ast.QuantNo, token.KwSome: ast.QuantSome,
		token.KwLone: ast.QuantLone, token.KwOne: ast.QuantOne,
	}
	// mults holds the multiplicity a keyword spells.
	mults = [...]ast.Mult{
		token.KwOne: ast.MultOne, token.KwLone: ast.MultLone, token.KwSome: ast.MultSome, token.KwSet: ast.MultSet,
	}
)

// lookup returns table[k], or the zero value when k lies past the table.
func lookup[T any](table []T, k token.Kind) T {
	if int(k) < len(table) {
		return table[k]
	}
	var zero T
	return zero
}

// sigMult returns the multiplicity a keyword gives a signature, or 0: set
// is not a signature multiplicity.
func sigMult(k token.Kind) ast.Mult {
	if k == token.KwSet {
		return 0
	}
	return lookup(mults[:], k)
}

// mult consumes a multiplicity keyword and returns its multiplicity, or
// returns 0 when there is none.
func (p *parser) mult() ast.Mult {
	m := lookup(mults[:], p.cur().Kind)
	if m != 0 {
		p.next()
	}
	return m
}

// ---------------------------------------------------------------------------
// Module structure
// ---------------------------------------------------------------------------

func (p *parser) parseModule() (*ast.Module, error) {
	mod := &ast.Module{}
	if p.accept(token.KwModule) {
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		mod.Name = name
	}
	for !p.at(token.EOF) {
		if err := p.parseParagraph(mod); err != nil {
			return nil, err
		}
	}
	return mod, nil
}

func (p *parser) qualifiedName() (string, error) {
	t, err := p.expect(token.Ident)
	if err != nil {
		return "", err
	}
	name := t.Lit
	for p.accept(token.Slash) {
		t, err := p.expect(token.Ident)
		if err != nil {
			return "", err
		}
		name += "/" + t.Lit
	}
	return name, nil
}

func (p *parser) parseParagraph(mod *ast.Module) error {
	switch p.cur().Kind {
	case token.KwOpen:
		return p.errorf("open declarations are not supported by this Alloy subset")
	case token.KwAbstract, token.KwSig:
		return p.parseSig(mod, ast.MultDefault)
	case token.KwOne, token.KwLone, token.KwSome:
		// one/lone/some sig ...
		if p.peek().Kind != token.KwSig && p.peek().Kind != token.KwAbstract {
			return p.errorf("expected sig after %s at top level", p.cur())
		}
		return p.parseSig(mod, sigMult(p.next().Kind))
	case token.KwFact:
		return p.parseFact(mod)
	case token.KwPred:
		return p.parsePred(mod)
	case token.KwFun:
		return p.parseFun(mod)
	case token.KwAssert:
		return p.parseAssert(mod)
	case token.KwCheck, token.KwRun:
		return p.parseCommand(mod, "")
	case token.Ident:
		// Possibly "label: run ..." / "label: check ...".
		if p.peek().Kind == token.Colon {
			label := p.next().Lit
			p.next() // colon
			if p.at(token.KwRun) || p.at(token.KwCheck) {
				return p.parseCommand(mod, label)
			}
			return p.errorf("expected run or check after command label %q", label)
		}
		return p.errorf("unexpected %s at top level", p.cur())
	default:
		return p.errorf("unexpected %s at top level", p.cur())
	}
}

func (p *parser) parseSig(mod *ast.Module, mult ast.Mult) error {
	sig := &ast.Sig{Mult: mult, SigPos: p.cur().Pos}
	if p.accept(token.KwAbstract) {
		sig.Abstract = true
		// abstract one sig / abstract sig
		if m := sigMult(p.cur().Kind); m != 0 {
			p.next()
			sig.Mult = m
		}
	}
	if _, err := p.expect(token.KwSig); err != nil {
		return err
	}
	var err error
	if sig.Names, err = p.names(token.Comma); err != nil {
		return err
	}
	switch {
	case p.accept(token.KwExtends):
		t, err := p.expect(token.Ident)
		if err != nil {
			return err
		}
		sig.Parent = t.Lit
	case p.accept(token.KwIn):
		if sig.Subset, err = p.names(token.Plus); err != nil {
			return err
		}
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return err
	}
	if sig.Fields, err = p.decls(token.RBrace); err != nil {
		return err
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return err
	}
	// Optional appended signature fact.
	if p.at(token.LBrace) {
		if sig.Fact, err = p.parseBlock(); err != nil {
			return err
		}
	}
	mod.Sigs = append(mod.Sigs, sig)
	return nil
}

// names parses identifiers separated by sep: "x [sep y]*".
func (p *parser) names(sep token.Kind) ([]string, error) {
	var names []string
	for {
		t, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		names = append(names, t.Lit)
		if !p.accept(sep) {
			return names, nil
		}
	}
}

// decls parses comma-separated declarations up to the token end, which it
// leaves in place. With end 0, which no token has, it parses at least one
// declaration and stops after the first that no comma follows.
func (p *parser) decls(end token.Kind) ([]*ast.Decl, error) {
	var ds []*ast.Decl
	for !p.at(end) {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
		if !p.accept(token.Comma) {
			break
		}
	}
	return ds, nil
}

// parseDecl parses "disj? names : mult? expr". An omitted multiplicity stays
// MultDefault; what it means depends on where the declaration stands.
func (p *parser) parseDecl() (*ast.Decl, error) {
	d := &ast.Decl{Mult: ast.MultDefault, DeclPos: p.cur().Pos}
	if p.at(token.KwDisj) && p.peek().Kind == token.Ident {
		p.next()
		d.Disj = true
	}
	var err error
	if d.Names, err = p.names(token.Comma); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	if m := p.mult(); m != 0 {
		d.Mult = m
	}
	if d.Expr, err = p.exprAt(ast.PrecUnion); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) parseFact(mod *ast.Module) error {
	pos := p.cur().Pos
	p.next() // fact
	f := &ast.Fact{FactPos: pos}
	if p.at(token.Ident) {
		f.Name = p.next().Lit
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	f.Body = body
	mod.Facts = append(mod.Facts, f)
	return nil
}

func (p *parser) parseParams() ([]*ast.Decl, error) {
	var close token.Kind
	switch {
	case p.accept(token.LParen):
		close = token.RParen
	case p.accept(token.LBrack):
		close = token.RBrack
	default:
		return nil, nil // parameterless
	}
	params, err := p.decls(close)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(close); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *parser) parsePred(mod *ast.Module) error {
	pos := p.cur().Pos
	p.next() // pred
	t, err := p.expect(token.Ident)
	if err != nil {
		return err
	}
	pr := &ast.Pred{Name: t.Lit, PredPos: pos}
	if pr.Params, err = p.parseParams(); err != nil {
		return err
	}
	if pr.Body, err = p.parseBlock(); err != nil {
		return err
	}
	mod.Preds = append(mod.Preds, pr)
	return nil
}

func (p *parser) parseFun(mod *ast.Module) error {
	pos := p.cur().Pos
	p.next() // fun
	t, err := p.expect(token.Ident)
	if err != nil {
		return err
	}
	fn := &ast.Fun{Name: t.Lit, FunPos: pos}
	if fn.Params, err = p.parseParams(); err != nil {
		return err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return err
	}
	p.mult() // an optional result multiplicity is folded into the result expression
	if fn.Result, err = p.exprAt(ast.PrecUnion); err != nil {
		return err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return err
	}
	if fn.Body, err = p.expr(); err != nil {
		return err
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return err
	}
	mod.Funs = append(mod.Funs, fn)
	return nil
}

func (p *parser) parseAssert(mod *ast.Module) error {
	pos := p.cur().Pos
	p.next() // assert
	t, err := p.expect(token.Ident)
	if err != nil {
		return err
	}
	a := &ast.Assert{Name: t.Lit, AssertPos: pos}
	if a.Body, err = p.parseBlock(); err != nil {
		return err
	}
	mod.Asserts = append(mod.Asserts, a)
	return nil
}

func (p *parser) parseCommand(mod *ast.Module, label string) error {
	pos := p.cur().Pos
	cmd := &ast.Command{Name: label, Expect: -1, CmdPos: pos}
	if p.accept(token.KwRun) {
		cmd.Kind = ast.CmdRun
	} else if p.accept(token.KwCheck) {
		cmd.Kind = ast.CmdCheck
	} else {
		return p.errorf("expected run or check")
	}
	switch {
	case p.at(token.Ident):
		cmd.Target = p.next().Lit
		if cmd.Name == "" {
			cmd.Name = cmd.Target
		}
	case p.at(token.LBrace):
		blk, err := p.parseBlock()
		if err != nil {
			return err
		}
		cmd.Block = blk
	default:
		return p.errorf("expected target name or block after %s", cmd.Kind)
	}
	if p.accept(token.KwFor) {
		scope, err := p.parseScope()
		if err != nil {
			return err
		}
		cmd.Scope = scope
	}
	if p.accept(token.KwExpect) {
		t, err := p.expect(token.Number)
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(t.Lit)
		if err != nil {
			return p.errorf("bad expect value %q", t.Lit)
		}
		cmd.Expect = n
	}
	mod.Commands = append(mod.Commands, cmd)
	return nil
}

func (p *parser) parseScope() (ast.Scope, error) {
	scope := ast.Scope{Exact: map[string]int{}, PerSig: map[string]int{}}
	parseTyped := func() error {
		for {
			exact := p.accept(token.KwExactly)
			t, err := p.expect(token.Number)
			if err != nil {
				return err
			}
			n, err := strconv.Atoi(t.Lit)
			if err != nil {
				return p.errorf("bad scope %q", t.Lit)
			}
			if p.at(token.KwInt) {
				p.next()
				scope.Bitwidth = n
				if !p.accept(token.Comma) {
					return nil
				}
				continue
			}
			nt, err := p.expect(token.Ident)
			if err != nil {
				return err
			}
			if exact {
				scope.Exact[nt.Lit] = n
			} else {
				scope.PerSig[nt.Lit] = n
			}
			if !p.accept(token.Comma) {
				return nil
			}
		}
	}
	// A number followed by neither a sig name nor Int is the default scope.
	if p.at(token.Number) && p.peek().Kind != token.Ident && p.peek().Kind != token.KwInt {
		t := p.next()
		n, err := strconv.Atoi(t.Lit)
		if err != nil {
			return scope, p.errorf("bad scope %q", t.Lit)
		}
		scope.Default = n
		if p.accept(token.KwBut) {
			if err := parseTyped(); err != nil {
				return scope, err
			}
		}
		return scope, nil
	}
	return scope, parseTyped()
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// parseBlock parses "{ formula* }" as a Block expression.
func (p *parser) parseBlock() (ast.Expr, error) {
	open, err := p.expect(token.LBrace)
	if err != nil {
		return nil, err
	}
	blk := &ast.Block{OpenPos: open.Pos}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		blk.Exprs = append(blk.Exprs, e)
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return blk, nil
}

// expr parses an expression at the loosest level, where a quantified formula
// or let is the whole expression.
func (p *parser) expr() (ast.Expr, error) {
	if p.atQuantified() {
		return p.quantified()
	}
	return p.exprAt(ast.PrecOr)
}

// exprAt parses an expression whose operators all bind at level min or
// tighter, by precedence climbing. The operand built so far caps the level
// of the next operator: a primary caps nothing, a left-associative operator
// caps at its own level (a + b - c), and a prefix operator, a comparison or
// an implies one level looser, so "a = b = c" stops after b.
func (p *parser) exprAt(min ast.Prec) (ast.Expr, error) {
	left, ceil, err := p.prefix(min)
	if err != nil {
		return nil, err
	}
	for {
		lvl, ok := p.infixLevel()
		if !ok || lvl < min || lvl > ceil {
			return left, nil
		}
		ceil = lvl
		switch {
		case lvl == ast.PrecImplies:
			left, err = p.implies(left)
			ceil = lvl - 1
		case lvl == ast.PrecCompare:
			left, err = p.compare(left)
			ceil = lvl - 1
		case lvl == ast.PrecArrow:
			left, err = p.arrow(left)
		case p.at(token.LBrack):
			left, err = p.boxJoin(left)
		default:
			op := lookup(binOps[:], p.next().Kind)
			var right ast.Expr
			right, err = p.exprAt(lvl + 1)
			left = &ast.Binary{Op: op, Left: left, Right: right}
		}
		if err != nil {
			return nil, err
		}
	}
}

// prefix parses the start of an expression at level min: a quantified
// formula or let where min admits the not level, a prefix operator binding
// at min or tighter applied to its operand, or a primary. It also returns
// the ceiling for the operators that may follow (see exprAt).
func (p *parser) prefix(min ast.Prec) (ast.Expr, ast.Prec, error) {
	if min <= ast.PrecNot && p.atQuantified() {
		// As an operand a quantified formula binds like not, though its
		// body still extends as far right as it can.
		e, err := p.quantified()
		return e, ast.PrecNot - 1, err
	}
	op := lookup(unOps[:], p.cur().Kind)
	if op == 0 || op.Prec() < min {
		e, err := p.primaryExpr()
		return e, ast.PrecAtom, err
	}
	lvl := op.Prec()
	pos := p.next().Pos
	operand := lvl // not, # and ~ ^ * nest: "not not p", "#~r"
	if lvl == ast.PrecMultForm {
		operand++ // "no some x" is not a formula
	}
	sub, err := p.exprAt(operand)
	if err != nil {
		return nil, 0, err
	}
	return &ast.Unary{Op: op, Sub: sub, OpPos: pos}, lvl - 1, nil
}

// infixLevel reports the level of the infix operator at the current token,
// if there is one.
func (p *parser) infixLevel() (ast.Prec, bool) {
	k := p.cur().Kind
	switch {
	case k == token.LBrack: // box join
		return ast.PrecJoin, true
	case (k == token.KwNot || k == token.Bang) && p.peekIsCompareOp(): // negated comparison
		return ast.PrecCompare, true
	case lookup(mults[:], k) != 0 && p.peek().Kind == token.Arrow: // "A lone -> B"
		return ast.PrecArrow, true
	}
	op := lookup(binOps[:], k)
	return op.Prec(), op != 0
}

// peekIsCompareOp reports whether the next token is a comparison that a not
// or ! may negate: any but !=.
func (p *parser) peekIsCompareOp() bool {
	op := lookup(binOps[:], p.peek().Kind)
	return op.Prec() == ast.PrecCompare && op != ast.BinNotEq
}

// implies parses the rest of "cond implies then [else els]". It is right
// associative: then and els are themselves implications.
func (p *parser) implies(cond ast.Expr) (ast.Expr, error) {
	p.next() // implies
	then, err := p.exprAt(ast.PrecImplies)
	if err != nil {
		return nil, err
	}
	if !p.accept(token.KwElse) {
		return &ast.Binary{Op: ast.BinImplies, Left: cond, Right: then}, nil
	}
	els, err := p.exprAt(ast.PrecImplies)
	if err != nil {
		return nil, err
	}
	return &ast.IfElse{Cond: cond, Then: then, Else: els}, nil
}

// compare parses the rest of "left [not|!] op right". A negated in or =
// becomes not in or !=; any other negated comparison becomes not (left op
// right).
func (p *parser) compare(left ast.Expr) (ast.Expr, error) {
	neg := p.accept(token.KwNot) || p.accept(token.Bang)
	op := lookup(binOps[:], p.next().Kind)
	right, err := p.exprAt(ast.PrecCompare + 1)
	if err != nil {
		return nil, err
	}
	if neg {
		switch op {
		case ast.BinIn:
			op = ast.BinNotIn
		case ast.BinEq:
			op = ast.BinNotEq
		default:
			cmp := &ast.Binary{Op: op, Left: left, Right: right}
			return &ast.Unary{Op: ast.UnNot, Sub: cmp, OpPos: cmp.Pos()}, nil
		}
	}
	return &ast.Binary{Op: op, Left: left, Right: right}, nil
}

// arrow parses the rest of a product with optional arrow multiplicities:
// "Room -> lone RoomKey", "A some -> some B".
func (p *parser) arrow(left ast.Expr) (ast.Expr, error) {
	lm := p.mult()
	p.next() // ->
	rm := p.mult()
	right, err := p.exprAt(ast.PrecArrow + 1)
	if err != nil {
		return nil, err
	}
	return &ast.Binary{Op: ast.BinProduct, Left: left, Right: right, LeftMult: lm, RightMult: rm}, nil
}

// boxJoin parses the bracketed arguments of "target[a, b]".
func (p *parser) boxJoin(target ast.Expr) (ast.Expr, error) {
	p.next() // [
	bj := &ast.BoxJoin{Target: target}
	for !p.at(token.RBrack) {
		arg, err := p.exprAt(ast.PrecUnion)
		if err != nil {
			return nil, err
		}
		bj.Args = append(bj.Args, arg)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RBrack); err != nil {
		return nil, err
	}
	return bj, nil
}

// atQuantified reports whether a let or a quantified formula starts here.
// no, some, lone and one quantify only when declarations follow; otherwise
// they are formula prefixes.
func (p *parser) atQuantified() bool {
	switch k := p.cur().Kind; {
	case k == token.KwLet || k == token.KwAll:
		return true
	case lookup(quants[:], k) != 0:
		return p.declsFollow()
	}
	return false
}

// declsFollow reports whether declarations "[disj] x [, y]* :" follow the
// current token.
func (p *parser) declsFollow() bool {
	j := p.i + 1
	if j < len(p.toks) && p.toks[j].Kind == token.KwDisj {
		j++
	}
	if j >= len(p.toks) || p.toks[j].Kind != token.Ident {
		return false
	}
	j++
	for j+1 < len(p.toks) && p.toks[j].Kind == token.Comma && p.toks[j+1].Kind == token.Ident {
		j += 2
	}
	return j < len(p.toks) && p.toks[j].Kind == token.Colon
}

// quantified parses the let or quantified formula atQuantified found.
func (p *parser) quantified() (ast.Expr, error) {
	if p.at(token.KwLet) {
		return p.letExpr()
	}
	t := p.next() // quantifier keyword
	qe := &ast.Quantified{Quant: lookup(quants[:], t.Kind), QuantPos: t.Pos}
	var err error
	if qe.Decls, err = p.decls(0); err != nil {
		return nil, err
	}
	if qe.Body, err = p.quantBody(); err != nil {
		return nil, err
	}
	return qe, nil
}

func (p *parser) letExpr() (ast.Expr, error) {
	pos := p.next().Pos // let
	le := &ast.Let{LetPos: pos}
	for {
		t, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Eq); err != nil {
			return nil, err
		}
		v, err := p.exprAt(ast.PrecUnion)
		if err != nil {
			return nil, err
		}
		le.Names = append(le.Names, t.Lit)
		le.Values = append(le.Values, v)
		if !p.accept(token.Comma) {
			break
		}
	}
	body, err := p.quantBody()
	if err != nil {
		return nil, err
	}
	le.Body = body
	return le, nil
}

// quantBody parses "| formula" or "{ block }".
func (p *parser) quantBody() (ast.Expr, error) {
	if p.accept(token.Bar) {
		return p.expr()
	}
	if p.at(token.LBrace) {
		return p.parseBlock()
	}
	return nil, p.errorf("expected | or { after declarations, found %s", p.cur())
}

func (p *parser) primaryExpr() (ast.Expr, error) {
	var e ast.Expr
	switch p.cur().Kind {
	case token.Ident:
		t := p.next()
		e = &ast.Ident{Name: t.Lit, IdentPos: t.Pos}
	case token.KwNone:
		t := p.next()
		e = &ast.Const{Kind: ast.ConstNone, ConstPos: t.Pos}
	case token.KwUniv:
		t := p.next()
		e = &ast.Const{Kind: ast.ConstUniv, ConstPos: t.Pos}
	case token.KwIden:
		t := p.next()
		e = &ast.Const{Kind: ast.ConstIden, ConstPos: t.Pos}
	case token.KwInt:
		t := p.next()
		e = &ast.Ident{Name: "Int", IdentPos: t.Pos}
	case token.Number:
		t := p.next()
		n, err := strconv.Atoi(t.Lit)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Lit)
		}
		e = &ast.IntLit{Value: n, IntPos: t.Pos}
	case token.Minus:
		t := p.next()
		nt, err := p.expect(token.Number)
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(nt.Lit)
		if err != nil {
			return nil, p.errorf("bad number %q", nt.Lit)
		}
		e = &ast.IntLit{Value: -n, IntPos: t.Pos}
	case token.LParen:
		p.next()
		inner, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		e = inner
	case token.LBrace:
		// Comprehension "{x: S | body}" or grouped block "{formulas}".
		var err error
		if e, err = p.braces(); err != nil {
			return nil, err
		}
	case token.At:
		p.next()
		t, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		e = &ast.Ident{Name: t.Lit, NoImplicit: true, IdentPos: t.Pos}
	default:
		return nil, p.errorf("unexpected %s in expression", p.cur())
	}

	// Postfix primes bind tightest.
	for p.at(token.Prime) {
		p.next()
		e = &ast.Prime{Sub: e}
	}
	return e, nil
}

// braces parses a comprehension "{decls | body}", or a block when no
// declarations follow the brace.
func (p *parser) braces() (ast.Expr, error) {
	if !p.declsFollow() {
		return p.parseBlock()
	}
	ce := &ast.Comprehension{OpenPos: p.next().Pos}
	var err error
	if ce.Decls, err = p.decls(0); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Bar); err != nil {
		return nil, err
	}
	if ce.Body, err = p.expr(); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return ce, nil
}

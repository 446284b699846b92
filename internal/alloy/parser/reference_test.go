package parser_test

// This file keeps the parser as it was before its expression half became
// precedence climbing over the levels in package ast: a recursive-descent
// chain with one function per precedence level. It is the oracle that
// TestParseMatchesReference and FuzzParseMatchesReference hold the current
// parser to, AST for AST (positions included) and error text for error
// text. Only its package-level names carry a ref prefix.

import (
	"errors"
	"fmt"
	"strconv"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/lexer"
	"specrepair/internal/alloy/token"
)

// refError is a parse error with position information.
type refError struct {
	Pos token.Pos
	Msg string
}

// Error implements error.
func (e *refError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type refParser struct {
	toks []token.Token
	i    int
}

// refParse parses an entire Alloy module from source text.
func refParse(src string) (*ast.Module, error) {
	toks, errs := lexer.ScanAll(src)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lexing: %w", errors.Join(errs...))
	}
	p := &refParser{toks: toks}
	return p.parseModule()
}

// refParseExpr parses a single expression or formula from source text.
func refParseExpr(src string) (ast.Expr, error) {
	toks, errs := lexer.ScanAll(src)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lexing: %w", errors.Join(errs...))
	}
	p := &refParser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != token.EOF {
		return nil, p.errorf("unexpected %s after expression", p.cur())
	}
	return e, nil
}

func (p *refParser) cur() token.Token { return p.toks[p.i] }
func (p *refParser) peek() token.Token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *refParser) next() token.Token {
	t := p.toks[p.i]
	if t.Kind != token.EOF {
		p.i++
	}
	return t
}

func (p *refParser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *refParser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *refParser) expect(k token.Kind) (token.Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return token.Token{}, p.errorf("expected %s, found %s", k, p.cur())
}

func (p *refParser) errorf(format string, args ...any) error {
	return &refError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------------
// Module structure
// ---------------------------------------------------------------------------

func (p *refParser) parseModule() (*ast.Module, error) {
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

func (p *refParser) qualifiedName() (string, error) {
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

func (p *refParser) parseParagraph(mod *ast.Module) error {
	switch p.cur().Kind {
	case token.KwOpen:
		return p.errorf("open declarations are not supported by this Alloy subset")
	case token.KwAbstract, token.KwSig:
		return p.parseSig(mod, false, ast.MultDefault)
	case token.KwOne, token.KwLone, token.KwSome:
		// one/lone/some sig ...
		multTok := p.cur().Kind
		if p.peek().Kind != token.KwSig && p.peek().Kind != token.KwAbstract {
			return p.errorf("expected sig after %s at top level", p.cur())
		}
		p.next()
		var m ast.Mult
		switch multTok {
		case token.KwOne:
			m = ast.MultOne
		case token.KwLone:
			m = ast.MultLone
		case token.KwSome:
			m = ast.MultSome
		}
		return p.parseSig(mod, false, m)
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

func (p *refParser) parseSig(mod *ast.Module, abstract bool, mult ast.Mult) error {
	pos := p.cur().Pos
	if p.accept(token.KwAbstract) {
		abstract = true
		// abstract one sig / abstract sig
		switch p.cur().Kind {
		case token.KwOne:
			mult = ast.MultOne
			p.next()
		case token.KwLone:
			mult = ast.MultLone
			p.next()
		case token.KwSome:
			mult = ast.MultSome
			p.next()
		}
	}
	if _, err := p.expect(token.KwSig); err != nil {
		return err
	}
	sig := &ast.Sig{Abstract: abstract, Mult: mult, SigPos: pos}
	for {
		t, err := p.expect(token.Ident)
		if err != nil {
			return err
		}
		sig.Names = append(sig.Names, t.Lit)
		if !p.accept(token.Comma) {
			break
		}
	}
	switch {
	case p.accept(token.KwExtends):
		t, err := p.expect(token.Ident)
		if err != nil {
			return err
		}
		sig.Parent = t.Lit
	case p.accept(token.KwIn):
		for {
			t, err := p.expect(token.Ident)
			if err != nil {
				return err
			}
			sig.Subset = append(sig.Subset, t.Lit)
			if !p.accept(token.Plus) {
				break
			}
		}
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return err
	}
	for !p.at(token.RBrace) {
		d, err := p.parseDecl(true)
		if err != nil {
			return err
		}
		sig.Fields = append(sig.Fields, d)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return err
	}
	// Optional appended signature fact.
	if p.at(token.LBrace) {
		blk, err := p.parseBlock()
		if err != nil {
			return err
		}
		sig.Fact = blk
	}
	mod.Sigs = append(mod.Sigs, sig)
	return nil
}

// parseDecl parses "disj? names : mult? expr". Field declarations (isField)
// default the multiplicity of unary ranges to one, per Alloy semantics.
func (p *refParser) parseDecl(isField bool) (*ast.Decl, error) {
	pos := p.cur().Pos
	d := &ast.Decl{Mult: ast.MultDefault, DeclPos: pos}
	if p.at(token.KwDisj) && p.peek().Kind == token.Ident {
		p.next()
		d.Disj = true
	}
	for {
		t, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, t.Lit)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case token.KwOne:
		d.Mult = ast.MultOne
		p.next()
	case token.KwLone:
		d.Mult = ast.MultLone
		p.next()
	case token.KwSome:
		d.Mult = ast.MultSome
		p.next()
	case token.KwSet:
		d.Mult = ast.MultSet
		p.next()
	}
	e, err := p.unionExpr()
	if err != nil {
		return nil, err
	}
	d.Expr = e
	_ = isField
	return d, nil
}

func (p *refParser) parseFact(mod *ast.Module) error {
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

func (p *refParser) parseParams() ([]*ast.Decl, error) {
	var close token.Kind
	switch {
	case p.accept(token.LParen):
		close = token.RParen
	case p.accept(token.LBrack):
		close = token.RBrack
	default:
		return nil, nil // parameterless
	}
	var params []*ast.Decl
	for !p.at(close) {
		d, err := p.parseDecl(false)
		if err != nil {
			return nil, err
		}
		params = append(params, d)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(close); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *refParser) parsePred(mod *ast.Module) error {
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

func (p *refParser) parseFun(mod *ast.Module) error {
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
	// Optional result multiplicity is folded into the result expression.
	switch p.cur().Kind {
	case token.KwOne, token.KwLone, token.KwSome, token.KwSet:
		p.next()
	}
	if fn.Result, err = p.unionExpr(); err != nil {
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

func (p *refParser) parseAssert(mod *ast.Module) error {
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

func (p *refParser) parseCommand(mod *ast.Module, label string) error {
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

func (p *refParser) parseScope() (ast.Scope, error) {
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
			var name string
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
			name = nt.Lit
			if exact {
				scope.Exact[name] = n
			} else {
				scope.PerSig[name] = n
			}
			if !p.accept(token.Comma) {
				return nil
			}
		}
	}
	if p.at(token.Number) && (p.peek().Kind == token.KwBut || p.peek().Kind == token.EOF ||
		p.peek().Kind != token.Ident && p.peek().Kind != token.KwInt) {
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
	if err := parseTyped(); err != nil {
		return scope, err
	}
	return scope, nil
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// parseBlock parses "{ formula* }" as a Block expression.
func (p *refParser) parseBlock() (ast.Expr, error) {
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

// expr parses at the loosest precedence level.
func (p *refParser) expr() (ast.Expr, error) {
	switch p.cur().Kind {
	case token.KwLet:
		return p.letExpr()
	case token.KwAll:
		return p.quantExpr(ast.QuantAll)
	case token.KwNo, token.KwSome, token.KwLone, token.KwOne:
		// Quantifier only if followed by decls ("q x: e | ..."); otherwise it
		// is a formula prefix handled at the mult level.
		if p.isQuantDecl() {
			var q ast.Quant
			switch p.cur().Kind {
			case token.KwNo:
				q = ast.QuantNo
			case token.KwSome:
				q = ast.QuantSome
			case token.KwLone:
				q = ast.QuantLone
			case token.KwOne:
				q = ast.QuantOne
			}
			return p.quantExpr(q)
		}
	}
	return p.orExpr()
}

// isQuantDecl reports whether the current position starts quantifier
// declarations: "q [disj] x [, y]* :".
func (p *refParser) isQuantDecl() bool {
	j := p.i + 1 // skip the quantifier keyword
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

func (p *refParser) letExpr() (ast.Expr, error) {
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
		v, err := p.unionExpr()
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

func (p *refParser) quantExpr(q ast.Quant) (ast.Expr, error) {
	pos := p.next().Pos // quantifier keyword
	qe := &ast.Quantified{Quant: q, QuantPos: pos}
	for {
		d, err := p.parseDecl(false)
		if err != nil {
			return nil, err
		}
		qe.Decls = append(qe.Decls, d)
		if !p.accept(token.Comma) {
			break
		}
	}
	body, err := p.quantBody()
	if err != nil {
		return nil, err
	}
	qe.Body = body
	return qe, nil
}

// quantBody parses "| formula" or "{ block }".
func (p *refParser) quantBody() (ast.Expr, error) {
	if p.accept(token.Bar) {
		return p.expr()
	}
	if p.at(token.LBrace) {
		return p.parseBlock()
	}
	return nil, p.errorf("expected | or { after declarations, found %s", p.cur())
}

func (p *refParser) orExpr() (ast.Expr, error) {
	left, err := p.iffExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.KwOr) || p.at(token.BarBar) {
		p.next()
		right, err := p.iffExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: ast.BinOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *refParser) iffExpr() (ast.Expr, error) {
	left, err := p.impliesExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.KwIff) || p.at(token.IffOp) {
		p.next()
		right, err := p.impliesExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: ast.BinIff, Left: left, Right: right}
	}
	return left, nil
}

func (p *refParser) impliesExpr() (ast.Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	if p.at(token.KwImplies) || p.at(token.ImpliesOp) {
		p.next()
		then, err := p.impliesExpr() // right associative
		if err != nil {
			return nil, err
		}
		if p.accept(token.KwElse) {
			els, err := p.impliesExpr()
			if err != nil {
				return nil, err
			}
			return &ast.IfElse{Cond: left, Then: then, Else: els}, nil
		}
		return &ast.Binary{Op: ast.BinImplies, Left: left, Right: then}, nil
	}
	return left, nil
}

func (p *refParser) andExpr() (ast.Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.KwAnd) || p.at(token.AmpAmp) {
		p.next()
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: ast.BinAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *refParser) notExpr() (ast.Expr, error) {
	// Quantified formulas and lets may start in any operand position; their
	// bodies extend maximally to the right, per Alloy's grammar.
	switch p.cur().Kind {
	case token.KwLet:
		return p.letExpr()
	case token.KwAll:
		return p.quantExpr(ast.QuantAll)
	case token.KwNo, token.KwSome, token.KwLone, token.KwOne:
		if p.isQuantDecl() {
			var q ast.Quant
			switch p.cur().Kind {
			case token.KwNo:
				q = ast.QuantNo
			case token.KwSome:
				q = ast.QuantSome
			case token.KwLone:
				q = ast.QuantLone
			case token.KwOne:
				q = ast.QuantOne
			}
			return p.quantExpr(q)
		}
	}
	if p.at(token.KwNot) || p.at(token.Bang) {
		pos := p.next().Pos
		// "not in" / "!=" style negated comparisons are handled at the
		// comparison level; a bare not here negates a formula.
		sub, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.UnNot, Sub: sub, OpPos: pos}, nil
	}
	return p.compareExpr()
}

func (p *refParser) compareExpr() (ast.Expr, error) {
	left, err := p.multFormula()
	if err != nil {
		return nil, err
	}
	neg := false
	if (p.at(token.KwNot) || p.at(token.Bang)) && p.peekIsCompareOp() {
		p.next()
		neg = true
	}
	var op ast.BinOp
	switch p.cur().Kind {
	case token.KwIn:
		op = ast.BinIn
	case token.Eq:
		op = ast.BinEq
	case token.NotEq:
		op = ast.BinNotEq
	case token.Lt:
		op = ast.BinLt
	case token.Gt:
		op = ast.BinGt
	case token.LtEq:
		op = ast.BinLtEq
	case token.GtEq:
		op = ast.BinGtEq
	default:
		if neg {
			return nil, p.errorf("expected comparison operator after not")
		}
		return left, nil
	}
	p.next()
	right, err := p.multFormula()
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

func (p *refParser) peekIsCompareOp() bool {
	switch p.peek().Kind {
	case token.KwIn, token.Eq, token.Lt, token.Gt, token.LtEq, token.GtEq:
		return true
	default:
		return false
	}
}

// multFormula parses the no/some/lone/one/set formula prefixes:
// "no g.keys" means g.keys is empty.
func (p *refParser) multFormula() (ast.Expr, error) {
	var op ast.UnOp
	switch p.cur().Kind {
	case token.KwNo:
		op = ast.UnNo
	case token.KwSome:
		op = ast.UnSome
	case token.KwLone:
		op = ast.UnLone
	case token.KwOne:
		op = ast.UnOne
	case token.KwSet:
		op = ast.UnSet
	default:
		return p.unionExpr()
	}
	pos := p.next().Pos
	sub, err := p.unionExpr()
	if err != nil {
		return nil, err
	}
	return &ast.Unary{Op: op, Sub: sub, OpPos: pos}, nil
}

func (p *refParser) unionExpr() (ast.Expr, error) {
	left, err := p.cardExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.Plus) || p.at(token.Minus) {
		op := ast.BinUnion
		if p.at(token.Minus) {
			op = ast.BinDiff
		}
		p.next()
		right, err := p.cardExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *refParser) cardExpr() (ast.Expr, error) {
	if p.at(token.Hash) {
		pos := p.next().Pos
		sub, err := p.cardExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.UnCard, Sub: sub, OpPos: pos}, nil
	}
	return p.overrideExpr()
}

func (p *refParser) overrideExpr() (ast.Expr, error) {
	left, err := p.intersectExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.PlusPlus) {
		p.next()
		right, err := p.intersectExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: ast.BinOverride, Left: left, Right: right}
	}
	return left, nil
}

func (p *refParser) intersectExpr() (ast.Expr, error) {
	left, err := p.arrowExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.Amp) {
		p.next()
		right, err := p.arrowExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: ast.BinIntersect, Left: left, Right: right}
	}
	return left, nil
}

// arrowExpr parses products with optional arrow multiplicities:
// "Room -> lone RoomKey", "A some -> some B".
func (p *refParser) arrowExpr() (ast.Expr, error) {
	left, err := p.restrExpr()
	if err != nil {
		return nil, err
	}
	for {
		lm := ast.Mult(0)
		save := p.i
		switch p.cur().Kind {
		case token.KwOne, token.KwLone, token.KwSome, token.KwSet:
			if p.peek().Kind == token.Arrow {
				lm = refMultOf(p.cur().Kind)
				p.next()
			}
		}
		if !p.at(token.Arrow) {
			p.i = save
			return left, nil
		}
		p.next()
		rm := ast.Mult(0)
		switch p.cur().Kind {
		case token.KwOne, token.KwLone, token.KwSome, token.KwSet:
			rm = refMultOf(p.cur().Kind)
			p.next()
		}
		right, err := p.restrExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: ast.BinProduct, Left: left, Right: right, LeftMult: lm, RightMult: rm}
	}
}

func refMultOf(k token.Kind) ast.Mult {
	switch k {
	case token.KwOne:
		return ast.MultOne
	case token.KwLone:
		return ast.MultLone
	case token.KwSome:
		return ast.MultSome
	case token.KwSet:
		return ast.MultSet
	default:
		return ast.MultDefault
	}
}

func (p *refParser) restrExpr() (ast.Expr, error) {
	left, err := p.joinExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case token.DomRestr:
			p.next()
			right, err := p.joinExpr()
			if err != nil {
				return nil, err
			}
			left = &ast.Binary{Op: ast.BinDomRestr, Left: left, Right: right}
		case token.RanRestr:
			p.next()
			right, err := p.joinExpr()
			if err != nil {
				return nil, err
			}
			left = &ast.Binary{Op: ast.BinRanRestr, Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *refParser) joinExpr() (ast.Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case token.Dot:
			p.next()
			right, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			left = &ast.Binary{Op: ast.BinJoin, Left: left, Right: right}
		case token.LBrack:
			p.next()
			bj := &ast.BoxJoin{Target: left}
			for !p.at(token.RBrack) {
				arg, err := p.unionExpr()
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
			left = bj
		default:
			return left, nil
		}
	}
}

func (p *refParser) unaryExpr() (ast.Expr, error) {
	switch p.cur().Kind {
	case token.Tilde:
		pos := p.next().Pos
		sub, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.UnTranspose, Sub: sub, OpPos: pos}, nil
	case token.Caret:
		pos := p.next().Pos
		sub, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.UnClosure, Sub: sub, OpPos: pos}, nil
	case token.Star:
		pos := p.next().Pos
		sub, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.UnReflClose, Sub: sub, OpPos: pos}, nil
	}
	return p.primaryExpr()
}

func (p *refParser) primaryExpr() (ast.Expr, error) {
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
		if p.isComprehension() {
			open := p.next().Pos
			ce := &ast.Comprehension{OpenPos: open}
			for {
				d, err := p.parseDecl(false)
				if err != nil {
					return nil, err
				}
				ce.Decls = append(ce.Decls, d)
				if !p.accept(token.Comma) {
					break
				}
			}
			if _, err := p.expect(token.Bar); err != nil {
				return nil, err
			}
			body, err := p.expr()
			if err != nil {
				return nil, err
			}
			ce.Body = body
			if _, err := p.expect(token.RBrace); err != nil {
				return nil, err
			}
			e = ce
		} else {
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			e = blk
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

// isComprehension looks ahead after "{" for "[disj] x[, y]* :".
func (p *refParser) isComprehension() bool {
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

// Package ast defines the abstract syntax tree for the Alloy specification
// language subset used throughout this repository.
//
// The tree is deliberately simple: one Expr interface implemented by a small
// set of node structs, plus declaration nodes for module-level paragraphs.
// Repair tools mutate these trees, the translator compiles them to SAT, the
// instance evaluator interprets them, and the printer renders them back to
// concrete syntax.
package ast

import (
	"specrepair/internal/alloy/token"
)

// Node is implemented by every syntax-tree node.
type Node interface {
	// Pos reports the position of the first token of the node. Synthetic
	// nodes produced by repair tools may report an invalid position.
	Pos() token.Pos
}

// Expr is implemented by every expression and formula node. Alloy does not
// syntactically separate relational expressions from boolean formulas; the
// type checker assigns arities (boolean formulas have arity 0).
type Expr interface {
	Node
	exprNode()
	// CloneExpr returns a deep copy of the expression.
	CloneExpr() Expr
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

// BinOp enumerates binary operators. The zero value is invalid.
type BinOp int

// Binary operators, both relational and logical.
const (
	BinJoin      BinOp = iota + 1 // .
	BinProduct                    // ->
	BinUnion                      // +
	BinDiff                       // -
	BinIntersect                  // &
	BinOverride                   // ++
	BinDomRestr                   // <:
	BinRanRestr                   // :>
	BinIn                         // in
	BinNotIn                      // not in
	BinEq                         // =
	BinNotEq                      // !=
	BinLt                         // <
	BinGt                         // >
	BinLtEq                       // =<
	BinGtEq                       // >=
	BinAnd                        // and / &&
	BinOr                         // or / ||
	BinImplies                    // implies / =>
	BinIff                        // iff / <=>
)

var binOpNames = [...]string{
	BinJoin:      ".",
	BinProduct:   "->",
	BinUnion:     "+",
	BinDiff:      "-",
	BinIntersect: "&",
	BinOverride:  "++",
	BinDomRestr:  "<:",
	BinRanRestr:  ":>",
	BinIn:        "in",
	BinNotIn:     "not in",
	BinEq:        "=",
	BinNotEq:     "!=",
	BinLt:        "<",
	BinGt:        ">",
	BinLtEq:      "=<",
	BinGtEq:      ">=",
	BinAnd:       "and",
	BinOr:        "or",
	BinImplies:   "implies",
	BinIff:       "iff",
}

// String returns the Alloy spelling of the operator.
func (op BinOp) String() string {
	return name(binOpNames[:], op, "badop")
}

// name returns names[i], or bad when i has no name. The name tables are
// arrays indexed by the enum value, so printing an operator costs no map
// lookup.
func name[T ~int](names []string, i T, bad string) string {
	if i > 0 && int(i) < len(names) && names[i] != "" {
		return names[i]
	}
	return bad
}

// IsLogical reports whether the operator combines formulas rather than
// relational expressions.
func (op BinOp) IsLogical() bool {
	switch op {
	case BinAnd, BinOr, BinImplies, BinIff:
		return true
	default:
		return false
	}
}

// IsComparison reports whether the operator compares two relational or
// integer expressions and yields a formula.
func (op BinOp) IsComparison() bool {
	switch op {
	case BinIn, BinNotIn, BinEq, BinNotEq, BinLt, BinGt, BinLtEq, BinGtEq:
		return true
	default:
		return false
	}
}

// UnOp enumerates unary operators. The zero value is invalid.
type UnOp int

// Unary operators.
const (
	UnTranspose UnOp = iota + 1 // ~
	UnClosure                   // ^
	UnReflClose                 // *
	UnCard                      // #
	UnNot                       // not / !
	UnNo                        // no   (formula: expr is empty)
	UnSome                      // some (formula: expr is non-empty)
	UnLone                      // lone (formula: expr has at most one tuple)
	UnOne                       // one  (formula: expr has exactly one tuple)
	UnSet                       // set  (declaration multiplicity only)
)

var unOpNames = [...]string{
	UnTranspose: "~",
	UnClosure:   "^",
	UnReflClose: "*",
	UnCard:      "#",
	UnNot:       "not",
	UnNo:        "no",
	UnSome:      "some",
	UnLone:      "lone",
	UnOne:       "one",
	UnSet:       "set",
}

// String returns the Alloy spelling of the operator.
func (op UnOp) String() string {
	return name(unOpNames[:], op, "badop")
}

// Quant enumerates quantifiers. The zero value is invalid.
type Quant int

// Quantifiers.
const (
	QuantAll Quant = iota + 1
	QuantSome
	QuantNo
	QuantLone
	QuantOne
)

var quantNames = [...]string{
	QuantAll:  "all",
	QuantSome: "some",
	QuantNo:   "no",
	QuantLone: "lone",
	QuantOne:  "one",
}

// String returns the Alloy spelling of the quantifier.
func (q Quant) String() string {
	return name(quantNames[:], q, "badquant")
}

// Mult enumerates declaration multiplicities (x: one S, field: set S, ...).
type Mult int

// Multiplicities. MultDefault means the source omitted the keyword: for
// quantified variables and predicate parameters that means "one"; for fields
// it means "one" as well (per Alloy semantics for unary field ranges).
const (
	MultDefault Mult = iota + 1
	MultOne
	MultLone
	MultSome
	MultSet
)

var multNames = [...]string{
	MultDefault: "",
	MultOne:     "one",
	MultLone:    "lone",
	MultSome:    "some",
	MultSet:     "set",
}

// String returns the Alloy spelling of the multiplicity (empty for default).
func (m Mult) String() string { return name(multNames[:], m, "") }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Ident is a reference to a signature, field, bound variable, predicate or
// function (in call position), or the special receiver "this".
//
// NoImplicit marks "@name" references inside signature facts, which refer to
// the whole relation rather than the implicitly this-joined field.
type Ident struct {
	Name       string
	NoImplicit bool
	IdentPos   token.Pos
}

// Pos implements Node.
func (e *Ident) Pos() token.Pos { return e.IdentPos }
func (e *Ident) exprNode()      {}

// CloneExpr implements Expr.
func (e *Ident) CloneExpr() Expr { c := *e; return &c }

// ConstKind enumerates the built-in constants.
type ConstKind int

// Built-in constants.
const (
	ConstNone ConstKind = iota + 1 // none: empty unary relation
	ConstUniv                      // univ: all atoms
	ConstIden                      // iden: identity binary relation
)

var constNames = [...]string{
	ConstNone: "none",
	ConstUniv: "univ",
	ConstIden: "iden",
}

// String returns the Alloy spelling of the constant.
func (k ConstKind) String() string {
	return name(constNames[:], k, "badconst")
}

// Const is one of the built-in constants none, univ, iden.
type Const struct {
	Kind     ConstKind
	ConstPos token.Pos
}

// Pos implements Node.
func (e *Const) Pos() token.Pos { return e.ConstPos }
func (e *Const) exprNode()      {}

// CloneExpr implements Expr.
func (e *Const) CloneExpr() Expr { c := *e; return &c }

// IntLit is an integer literal, used in cardinality comparisons.
type IntLit struct {
	Value  int
	IntPos token.Pos
}

// Pos implements Node.
func (e *IntLit) Pos() token.Pos { return e.IntPos }
func (e *IntLit) exprNode()      {}

// CloneExpr implements Expr.
func (e *IntLit) CloneExpr() Expr { c := *e; return &c }

// Unary is a unary operator application.
type Unary struct {
	Op    UnOp
	Sub   Expr
	OpPos token.Pos
}

// Pos implements Node.
func (e *Unary) Pos() token.Pos { return e.OpPos }
func (e *Unary) exprNode()      {}

// CloneExpr implements Expr.
func (e *Unary) CloneExpr() Expr {
	return &Unary{Op: e.Op, Sub: e.Sub.CloneExpr(), OpPos: e.OpPos}
}

// Binary is a binary operator application.
//
// For BinProduct, LeftMult and RightMult carry the optional arrow
// multiplicities of declaration-style products such as "Room -> lone
// RoomKey"; both are zero for plain products and for every other operator.
type Binary struct {
	Op        BinOp
	Left      Expr
	Right     Expr
	LeftMult  Mult
	RightMult Mult
}

// Pos implements Node.
func (e *Binary) Pos() token.Pos { return e.Left.Pos() }
func (e *Binary) exprNode()      {}

// CloneExpr implements Expr.
func (e *Binary) CloneExpr() Expr {
	return &Binary{
		Op:        e.Op,
		Left:      e.Left.CloneExpr(),
		Right:     e.Right.CloneExpr(),
		LeftMult:  e.LeftMult,
		RightMult: e.RightMult,
	}
}

// BoxJoin is the bracket join e[a, b] which desugars to b.(a.e); retaining
// it as a node preserves source shape for printing and similarity metrics.
type BoxJoin struct {
	Target Expr
	Args   []Expr
}

// Pos implements Node.
func (e *BoxJoin) Pos() token.Pos { return e.Target.Pos() }
func (e *BoxJoin) exprNode()      {}

// CloneExpr implements Expr.
func (e *BoxJoin) CloneExpr() Expr {
	args := make([]Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.CloneExpr()
	}
	return &BoxJoin{Target: e.Target.CloneExpr(), Args: args}
}

// Prime marks a post-state reference r'. The analyzer models r' as an
// implicitly declared shadow relation with the same bounds as r, which gives
// pre/post predicates standard bounded-relational semantics.
type Prime struct {
	Sub Expr
}

// Pos implements Node.
func (e *Prime) Pos() token.Pos { return e.Sub.Pos() }
func (e *Prime) exprNode()      {}

// CloneExpr implements Expr.
func (e *Prime) CloneExpr() Expr { return &Prime{Sub: e.Sub.CloneExpr()} }

// Decl is a variable declaration "disj? names : mult? expr" used by
// quantifiers, comprehensions, predicate parameters and field declarations.
type Decl struct {
	Names   []string
	Disj    bool
	Mult    Mult
	Expr    Expr
	DeclPos token.Pos
}

// Pos implements Node.
func (d *Decl) Pos() token.Pos { return d.DeclPos }

// Clone returns a deep copy of the declaration.
func (d *Decl) Clone() *Decl {
	names := make([]string, len(d.Names))
	copy(names, d.Names)
	return &Decl{Names: names, Disj: d.Disj, Mult: d.Mult, Expr: d.Expr.CloneExpr(), DeclPos: d.DeclPos}
}

// Quantified is a quantified formula "quant decls | body".
type Quantified struct {
	Quant    Quant
	Decls    []*Decl
	Body     Expr
	QuantPos token.Pos
}

// Pos implements Node.
func (e *Quantified) Pos() token.Pos { return e.QuantPos }
func (e *Quantified) exprNode()      {}

// CloneExpr implements Expr.
func (e *Quantified) CloneExpr() Expr {
	decls := make([]*Decl, len(e.Decls))
	for i, d := range e.Decls {
		decls[i] = d.Clone()
	}
	return &Quantified{Quant: e.Quant, Decls: decls, Body: e.Body.CloneExpr(), QuantPos: e.QuantPos}
}

// Comprehension is a set comprehension "{decls | body}".
type Comprehension struct {
	Decls   []*Decl
	Body    Expr
	OpenPos token.Pos
}

// Pos implements Node.
func (e *Comprehension) Pos() token.Pos { return e.OpenPos }
func (e *Comprehension) exprNode()      {}

// CloneExpr implements Expr.
func (e *Comprehension) CloneExpr() Expr {
	decls := make([]*Decl, len(e.Decls))
	for i, d := range e.Decls {
		decls[i] = d.Clone()
	}
	return &Comprehension{Decls: decls, Body: e.Body.CloneExpr(), OpenPos: e.OpenPos}
}

// Let binds names to expressions within a body.
type Let struct {
	Names  []string
	Values []Expr
	Body   Expr
	LetPos token.Pos
}

// Pos implements Node.
func (e *Let) Pos() token.Pos { return e.LetPos }
func (e *Let) exprNode()      {}

// CloneExpr implements Expr.
func (e *Let) CloneExpr() Expr {
	names := make([]string, len(e.Names))
	copy(names, e.Names)
	vals := make([]Expr, len(e.Values))
	for i, v := range e.Values {
		vals[i] = v.CloneExpr()
	}
	return &Let{Names: names, Values: vals, Body: e.Body.CloneExpr(), LetPos: e.LetPos}
}

// IfElse is "cond implies then else else" / "cond => then else else".
// It covers both formula-level and expression-level conditionals.
type IfElse struct {
	Cond Expr
	Then Expr
	Else Expr
}

// Pos implements Node.
func (e *IfElse) Pos() token.Pos { return e.Cond.Pos() }
func (e *IfElse) exprNode()      {}

// CloneExpr implements Expr.
func (e *IfElse) CloneExpr() Expr {
	return &IfElse{Cond: e.Cond.CloneExpr(), Then: e.Then.CloneExpr(), Else: e.Else.CloneExpr()}
}

// Block is a brace-delimited sequence of formulas, interpreted as their
// conjunction. Fact, predicate, and assertion bodies are blocks.
type Block struct {
	Exprs   []Expr
	OpenPos token.Pos
}

// Pos implements Node.
func (e *Block) Pos() token.Pos { return e.OpenPos }
func (e *Block) exprNode()      {}

// CloneExpr implements Expr.
func (e *Block) CloneExpr() Expr {
	exprs := make([]Expr, len(e.Exprs))
	for i, x := range e.Exprs {
		exprs[i] = x.CloneExpr()
	}
	return &Block{Exprs: exprs, OpenPos: e.OpenPos}
}

// Call is an explicit predicate or function application "name[args]" where
// name resolves to a pred or fun rather than a relation. The parser produces
// BoxJoin for all bracket applications; the type checker rewrites those whose
// target is a pred/fun into Call nodes.
type Call struct {
	Name    string
	Args    []Expr
	NamePos token.Pos
}

// Pos implements Node.
func (e *Call) Pos() token.Pos { return e.NamePos }
func (e *Call) exprNode()      {}

// CloneExpr implements Expr.
func (e *Call) CloneExpr() Expr {
	args := make([]Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.CloneExpr()
	}
	return &Call{Name: e.Name, Args: args, NamePos: e.NamePos}
}

// ---------------------------------------------------------------------------
// Paragraphs (module-level declarations)
// ---------------------------------------------------------------------------

// Sig is a signature declaration.
type Sig struct {
	Names    []string
	Abstract bool
	Mult     Mult     // one/lone/some sig
	Parent   string   // extends parent, "" if none
	Subset   []string // "in" supersets, empty if none
	Fields   []*Decl
	Fact     Expr // optional appended signature fact (nil if none)
	SigPos   token.Pos
}

// Pos implements Node.
func (s *Sig) Pos() token.Pos { return s.SigPos }

// Clone returns a deep copy of the signature declaration.
func (s *Sig) Clone() *Sig {
	c := &Sig{
		Names:    append([]string(nil), s.Names...),
		Abstract: s.Abstract,
		Mult:     s.Mult,
		Parent:   s.Parent,
		Subset:   append([]string(nil), s.Subset...),
		SigPos:   s.SigPos,
	}
	for _, f := range s.Fields {
		c.Fields = append(c.Fields, f.Clone())
	}
	if s.Fact != nil {
		c.Fact = s.Fact.CloneExpr()
	}
	return c
}

// Fact is a named or anonymous fact paragraph.
type Fact struct {
	Name    string // "" if anonymous
	Body    Expr
	FactPos token.Pos
}

// Pos implements Node.
func (f *Fact) Pos() token.Pos { return f.FactPos }

// Clone returns a deep copy of the fact.
func (f *Fact) Clone() *Fact {
	return &Fact{Name: f.Name, Body: f.Body.CloneExpr(), FactPos: f.FactPos}
}

// Pred is a predicate declaration.
type Pred struct {
	Name    string
	Params  []*Decl
	Body    Expr
	PredPos token.Pos
}

// Pos implements Node.
func (p *Pred) Pos() token.Pos { return p.PredPos }

// Clone returns a deep copy of the predicate.
func (p *Pred) Clone() *Pred {
	c := &Pred{Name: p.Name, Body: p.Body.CloneExpr(), PredPos: p.PredPos}
	for _, d := range p.Params {
		c.Params = append(c.Params, d.Clone())
	}
	return c
}

// Fun is a function declaration.
type Fun struct {
	Name   string
	Params []*Decl
	Result Expr // declared result bounding expression
	Body   Expr
	FunPos token.Pos
}

// Pos implements Node.
func (f *Fun) Pos() token.Pos { return f.FunPos }

// Clone returns a deep copy of the function.
func (f *Fun) Clone() *Fun {
	c := &Fun{Name: f.Name, Result: f.Result.CloneExpr(), Body: f.Body.CloneExpr(), FunPos: f.FunPos}
	for _, d := range f.Params {
		c.Params = append(c.Params, d.Clone())
	}
	return c
}

// Assert is an assertion paragraph.
type Assert struct {
	Name      string
	Body      Expr
	AssertPos token.Pos
}

// Pos implements Node.
func (a *Assert) Pos() token.Pos { return a.AssertPos }

// Clone returns a deep copy of the assertion.
func (a *Assert) Clone() *Assert {
	return &Assert{Name: a.Name, Body: a.Body.CloneExpr(), AssertPos: a.AssertPos}
}

// CommandKind distinguishes run from check commands.
type CommandKind int

// Command kinds.
const (
	CmdRun CommandKind = iota + 1
	CmdCheck
)

// String returns the Alloy spelling of the command kind.
func (k CommandKind) String() string {
	if k == CmdRun {
		return "run"
	}
	return "check"
}

// Scope is the bounded scope of a command.
type Scope struct {
	Default  int            // overall bound; 0 means analyzer default
	Exact    map[string]int // per-sig exact bounds ("exactly n Sig")
	PerSig   map[string]int // per-sig upper bounds ("n Sig")
	Bitwidth int            // integer bitwidth; 0 means analyzer default
}

// Clone returns a deep copy of the scope.
func (s Scope) Clone() Scope {
	c := Scope{Default: s.Default, Bitwidth: s.Bitwidth}
	if s.Exact != nil {
		c.Exact = make(map[string]int, len(s.Exact))
		for k, v := range s.Exact {
			c.Exact[k] = v
		}
	}
	if s.PerSig != nil {
		c.PerSig = make(map[string]int, len(s.PerSig))
		for k, v := range s.PerSig {
			c.PerSig[k] = v
		}
	}
	return c
}

// Command is a run or check command.
type Command struct {
	Kind   CommandKind
	Name   string // label, or the target name when no label given
	Target string // pred name (run) or assert name (check); "" for block targets
	Block  Expr   // anonymous block target, nil if Target used
	Scope  Scope
	Expect int // -1 unset, else 0/1 from "expect n"
	CmdPos token.Pos
}

// Pos implements Node.
func (c *Command) Pos() token.Pos { return c.CmdPos }

// Clone returns a deep copy of the command.
func (c *Command) Clone() *Command {
	cc := *c
	cc.Scope = c.Scope.Clone()
	if c.Block != nil {
		cc.Block = c.Block.CloneExpr()
	}
	return &cc
}

// Module is a parsed Alloy module.
type Module struct {
	Name     string
	Sigs     []*Sig
	Facts    []*Fact
	Preds    []*Pred
	Funs     []*Fun
	Asserts  []*Assert
	Commands []*Command
}

// Clone returns a deep copy of the module.
func (m *Module) Clone() *Module {
	c := &Module{Name: m.Name}
	for _, s := range m.Sigs {
		c.Sigs = append(c.Sigs, s.Clone())
	}
	for _, f := range m.Facts {
		c.Facts = append(c.Facts, f.Clone())
	}
	for _, p := range m.Preds {
		c.Preds = append(c.Preds, p.Clone())
	}
	for _, f := range m.Funs {
		c.Funs = append(c.Funs, f.Clone())
	}
	for _, a := range m.Asserts {
		c.Asserts = append(c.Asserts, a.Clone())
	}
	for _, cmd := range m.Commands {
		c.Commands = append(c.Commands, cmd.Clone())
	}
	return c
}

// LookupSig returns the signature declaring name, or nil.
func (m *Module) LookupSig(name string) *Sig {
	for _, s := range m.Sigs {
		for _, n := range s.Names {
			if n == name {
				return s
			}
		}
	}
	return nil
}

// LookupPred returns the predicate with the given name, or nil.
func (m *Module) LookupPred(name string) *Pred {
	for _, p := range m.Preds {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// LookupFun returns the function with the given name, or nil.
func (m *Module) LookupFun(name string) *Fun {
	for _, f := range m.Funs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// LookupAssert returns the assertion with the given name, or nil.
func (m *Module) LookupAssert(name string) *Assert {
	for _, a := range m.Asserts {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// SigNames returns every declared signature name in declaration order.
func (m *Module) SigNames() []string {
	var names []string
	for _, s := range m.Sigs {
		names = append(names, s.Names...)
	}
	return names
}

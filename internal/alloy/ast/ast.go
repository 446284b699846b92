// Package ast defines the abstract syntax tree for the Alloy specification
// language subset used throughout this repository.
//
// The tree is deliberately simple: one Expr interface implemented by a small
// set of node structs, plus declaration nodes for module-level paragraphs.
// Repair tools derive edited variants of these trees, the translator compiles
// them to SAT, the instance evaluator interprets them, and the printer renders
// them back to concrete syntax.
//
// Ownership: a node — expression, declaration, paragraph or module — is never
// written after it is built. Trees therefore share freely: an edit rebuilds
// only the path from the edited node to its paragraph (WithChild, Rewrite) and
// shares everything else, and modules, paragraphs and subtrees are handed
// between specs, techniques, candidates and goroutines without copying. The
// one place a subtree must not be shared is inside a single module checked
// with per-node types, which are keyed by node pointer (see types.Info).
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

// binOps gives each binary operator its spelling and precedence level.
var binOps = [...]opInfo{
	BinJoin:      {".", PrecJoin},
	BinProduct:   {"->", PrecArrow},
	BinUnion:     {"+", PrecUnion},
	BinDiff:      {"-", PrecUnion},
	BinIntersect: {"&", PrecIntersect},
	BinOverride:  {"++", PrecOverride},
	BinDomRestr:  {"<:", PrecRestr},
	BinRanRestr:  {":>", PrecRestr},
	BinIn:        {"in", PrecCompare},
	BinNotIn:     {"not in", PrecCompare},
	BinEq:        {"=", PrecCompare},
	BinNotEq:     {"!=", PrecCompare},
	BinLt:        {"<", PrecCompare},
	BinGt:        {">", PrecCompare},
	BinLtEq:      {"=<", PrecCompare},
	BinGtEq:      {">=", PrecCompare},
	BinAnd:       {"and", PrecAnd},
	BinOr:        {"or", PrecOr},
	BinImplies:   {"implies", PrecImplies},
	BinIff:       {"iff", PrecIff},
}

// String returns the Alloy spelling of the operator.
func (op BinOp) String() string { return info(binOps[:], op).name }

// Prec returns the precedence level the operator binds at.
func (op BinOp) Prec() Prec { return info(binOps[:], op).prec }

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

// unOps gives each unary operator its spelling and precedence level.
var unOps = [...]opInfo{
	UnTranspose: {"~", PrecUnary},
	UnClosure:   {"^", PrecUnary},
	UnReflClose: {"*", PrecUnary},
	UnCard:      {"#", PrecCard},
	UnNot:       {"not", PrecNot},
	UnNo:        {"no", PrecMultForm},
	UnSome:      {"some", PrecMultForm},
	UnLone:      {"lone", PrecMultForm},
	UnOne:       {"one", PrecMultForm},
	UnSet:       {"set", PrecMultForm},
}

// String returns the Alloy spelling of the operator.
func (op UnOp) String() string { return info(unOps[:], op).name }

// Prec returns the precedence level the operator binds at.
func (op UnOp) Prec() Prec { return info(unOps[:], op).prec }

// Prec is a precedence level: how tightly an expression binds. The parser
// climbs these levels and the printer parenthesizes a child whose level is
// below what its position requires, so both read this one table. A prefix
// operator's level is that of the expression it forms.
type Prec int

// Precedence levels, loosest to tightest.
const (
	PrecQuant     Prec = iota // quantified formula, let: the body extends as far right as it can
	PrecOr                    // or ||
	PrecIff                   // iff <=>
	PrecImplies               // implies =>: right associative, optional else
	PrecAnd                   // and &&
	PrecNot                   // not ! (prefix)
	PrecCompare               // in = != < > =< >=: not associative
	PrecMultForm              // no some lone one set (prefix formulas)
	PrecUnion                 // + -
	PrecCard                  // # (prefix)
	PrecOverride              // ++
	PrecIntersect             // &
	PrecArrow                 // -> with optional multiplicities
	PrecRestr                 // <: :>
	PrecJoin                  // . and box join e[...]
	PrecUnary                 // ~ ^ * (prefix)
	PrecAtom                  // names, literals, parentheses, blocks, comprehensions; ' (postfix)
)

// PrecOf returns the precedence level at which e binds.
func PrecOf(e Expr) Prec {
	switch x := e.(type) {
	case *Unary:
		return x.Op.Prec()
	case *Binary:
		return x.Op.Prec()
	case *BoxJoin:
		return PrecJoin
	case *Quantified, *Let:
		return PrecQuant
	case *IfElse:
		return PrecImplies
	default:
		return PrecAtom
	}
}

// opInfo is an operator's spelling and precedence level.
type opInfo struct {
	name string
	prec Prec
}

// info returns ops[op], or a "badop" atom for an operator with no entry.
func info[T ~int](ops []opInfo, op T) opInfo {
	if op > 0 && int(op) < len(ops) && ops[op].name != "" {
		return ops[op]
	}
	return opInfo{"badop", PrecAtom}
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

// IntLit is an integer literal, used in cardinality comparisons.
type IntLit struct {
	Value  int
	IntPos token.Pos
}

// Pos implements Node.
func (e *IntLit) Pos() token.Pos { return e.IntPos }
func (e *IntLit) exprNode()      {}

// Unary is a unary operator application.
type Unary struct {
	Op    UnOp
	Sub   Expr
	OpPos token.Pos
}

// Pos implements Node.
func (e *Unary) Pos() token.Pos { return e.OpPos }
func (e *Unary) exprNode()      {}

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

// BoxJoin is the bracket join e[a, b] which desugars to b.(a.e); retaining
// it as a node preserves source shape for printing and similarity metrics.
type BoxJoin struct {
	Target Expr
	Args   []Expr
}

// Pos implements Node.
func (e *BoxJoin) Pos() token.Pos { return e.Target.Pos() }
func (e *BoxJoin) exprNode()      {}

// Prime marks a post-state reference r'. The analyzer models r' as an
// implicitly declared shadow relation with the same bounds as r, which gives
// pre/post predicates standard bounded-relational semantics.
type Prime struct {
	Sub Expr
}

// Pos implements Node.
func (e *Prime) Pos() token.Pos { return e.Sub.Pos() }
func (e *Prime) exprNode()      {}

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

// Comprehension is a set comprehension "{decls | body}".
type Comprehension struct {
	Decls   []*Decl
	Body    Expr
	OpenPos token.Pos
}

// Pos implements Node.
func (e *Comprehension) Pos() token.Pos { return e.OpenPos }
func (e *Comprehension) exprNode()      {}

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

// Block is a brace-delimited sequence of formulas, interpreted as their
// conjunction. Fact, predicate, and assertion bodies are blocks.
type Block struct {
	Exprs   []Expr
	OpenPos token.Pos
}

// Pos implements Node.
func (e *Block) Pos() token.Pos { return e.OpenPos }
func (e *Block) exprNode()      {}

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

// Fact is a named or anonymous fact paragraph.
type Fact struct {
	Name    string // "" if anonymous
	Body    Expr
	FactPos token.Pos
}

// Pos implements Node.
func (f *Fact) Pos() token.Pos { return f.FactPos }

// Pred is a predicate declaration.
type Pred struct {
	Name    string
	Params  []*Decl
	Body    Expr
	PredPos token.Pos
}

// Pos implements Node.
func (p *Pred) Pos() token.Pos { return p.PredPos }

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

// Assert is an assertion paragraph.
type Assert struct {
	Name      string
	Body      Expr
	AssertPos token.Pos
}

// Pos implements Node.
func (a *Assert) Pos() token.Pos { return a.AssertPos }

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

// Clone returns a header copy of the module: its own paragraph slices,
// holding the same paragraphs.
//
// Deprecated: modules are immutable, so a copy is never needed to keep one
// safe. To swap out a paragraph list, copy the Module struct and assign the
// new slice.
func (m *Module) Clone() *Module {
	return &Module{
		Name:     m.Name,
		Sigs:     append([]*Sig(nil), m.Sigs...),
		Facts:    append([]*Fact(nil), m.Facts...),
		Preds:    append([]*Pred(nil), m.Preds...),
		Funs:     append([]*Fun(nil), m.Funs...),
		Asserts:  append([]*Assert(nil), m.Asserts...),
		Commands: append([]*Command(nil), m.Commands...),
	}
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

// Package token defines the lexical tokens of the Alloy specification
// language subset understood by this repository, together with source
// positions used in diagnostics.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Enum starts at one so the zero value is invalid and easy to
// spot in tests.
const (
	// Special tokens.
	Invalid Kind = iota + 1
	EOF
	Comment

	// Literals and identifiers.
	Ident  // classroom, FrontDesk, r
	Number // 3, 42

	// Keywords.
	KwAbstract
	KwSig
	KwExtends
	KwIn
	KwFact
	KwPred
	KwFun
	KwAssert
	KwCheck
	KwRun
	KwAll
	KwSome
	KwNo
	KwLone
	KwOne
	KwSet
	KwLet
	KwNot
	KwAnd
	KwOr
	KwImplies
	KwIff
	KwElse
	KwFor
	KwBut
	KwExactly
	KwNone
	KwUniv
	KwIden
	KwInt
	KwDisj
	KwModule
	KwOpen
	KwExpect

	// Punctuation and operators.
	LBrace    // {
	RBrace    // }
	LBrack    // [
	RBrack    // ]
	LParen    // (
	RParen    // )
	Colon     // :
	Comma     // ,
	Dot       // .
	Arrow     // ->
	Plus      // +
	Minus     // -
	Amp       // &
	Tilde     // ~
	Caret     // ^
	Star      // *
	Hash      // #
	Eq        // =
	NotEq     // !=
	Lt        // <
	Gt        // >
	LtEq      // =< or <=
	GtEq      // >=
	PlusPlus  // ++
	DomRestr  // <:
	RanRestr  // :>
	Bar       // |
	Bang      // !
	AmpAmp    // &&
	BarBar    // ||
	IffOp     // <=>
	ImpliesOp // =>
	Prime     // '
	At        // @
	Slash     // /
)

// kindNames spells each kind; the keyword kinds, KwAbstract through
// KwExpect, are spelled as written in source.
var kindNames = [...]string{
	Invalid:    "invalid",
	EOF:        "EOF",
	Comment:    "comment",
	Ident:      "identifier",
	Number:     "number",
	KwAbstract: "abstract",
	KwSig:      "sig",
	KwExtends:  "extends",
	KwIn:       "in",
	KwFact:     "fact",
	KwPred:     "pred",
	KwFun:      "fun",
	KwAssert:   "assert",
	KwCheck:    "check",
	KwRun:      "run",
	KwAll:      "all",
	KwSome:     "some",
	KwNo:       "no",
	KwLone:     "lone",
	KwOne:      "one",
	KwSet:      "set",
	KwLet:      "let",
	KwNot:      "not",
	KwAnd:      "and",
	KwOr:       "or",
	KwImplies:  "implies",
	KwIff:      "iff",
	KwElse:     "else",
	KwFor:      "for",
	KwBut:      "but",
	KwExactly:  "exactly",
	KwNone:     "none",
	KwUniv:     "univ",
	KwIden:     "iden",
	KwInt:      "Int",
	KwDisj:     "disj",
	KwModule:   "module",
	KwOpen:     "open",
	KwExpect:   "expect",
	LBrace:     "{",
	RBrace:     "}",
	LBrack:     "[",
	RBrack:     "]",
	LParen:     "(",
	RParen:     ")",
	Colon:      ":",
	Comma:      ",",
	Dot:        ".",
	Arrow:      "->",
	Plus:       "+",
	Minus:      "-",
	Amp:        "&",
	Tilde:      "~",
	Caret:      "^",
	Star:       "*",
	Hash:       "#",
	Eq:         "=",
	NotEq:      "!=",
	Lt:         "<",
	Gt:         ">",
	LtEq:       "=<",
	GtEq:       ">=",
	PlusPlus:   "++",
	DomRestr:   "<:",
	RanRestr:   ":>",
	Bar:        "|",
	Bang:       "!",
	AmpAmp:     "&&",
	BarBar:     "||",
	IffOp:      "<=>",
	ImpliesOp:  "=>",
	Prime:      "'",
	At:         "@",
	Slash:      "/",
}

// String returns the human-readable spelling of the kind.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to their token kinds.
var Keywords = func() map[string]Kind {
	kws := make(map[string]Kind, KwExpect-KwAbstract+1)
	for k := KwAbstract; k <= KwExpect; k++ {
		kws[kindNames[k]] = k
	}
	return kws
}()

// Pos is a source position expressed as 1-based line and column.
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position was set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token with its source position and literal text.
type Token struct {
	Kind Kind
	Lit  string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Lit != "" && t.Lit != t.Kind.String() {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	}
	return t.Kind.String()
}

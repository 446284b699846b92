// Package lexer implements a hand-written scanner for the Alloy subset.
package lexer

import (
	"fmt"

	"specrepair/internal/alloy/token"
)

// Lexer scans Alloy source text into tokens.
type Lexer struct {
	src  string
	off  int // byte offset of the next unread character
	line int
	col  int
	errs []error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the scan errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) skipSpaceAndComments() {
	for {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peek2() == '-', c == '/' && l.peek2() == '/':
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.peek() == 0 {
					l.errorf(start, "unterminated block comment")
					return
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token. At end of input it returns an EOF
// token; calling Next after EOF keeps returning EOF.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	c := l.peek()
	if c == 0 {
		return token.Token{Kind: token.EOF, Pos: pos}
	}

	switch {
	case isLetter(c):
		start := l.off
		for isLetter(l.peek()) || isDigit(l.peek()) {
			l.advance()
		}
		lit := l.src[start:l.off]
		if kind, ok := token.Keywords[lit]; ok {
			return token.Token{Kind: kind, Lit: lit, Pos: pos}
		}
		return token.Token{Kind: token.Ident, Lit: lit, Pos: pos}
	case isDigit(c):
		start := l.off
		for isDigit(l.peek()) {
			l.advance()
		}
		return token.Token{Kind: token.Number, Lit: l.src[start:l.off], Pos: pos}
	}

	l.advance()
	two := func(next byte, twoKind, oneKind token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: twoKind, Pos: pos}
		}
		return token.Token{Kind: oneKind, Pos: pos}
	}

	switch c {
	case '{':
		return token.Token{Kind: token.LBrace, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBrace, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBrack, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBrack, Pos: pos}
	case '(':
		return token.Token{Kind: token.LParen, Pos: pos}
	case ')':
		return token.Token{Kind: token.RParen, Pos: pos}
	case ',':
		return token.Token{Kind: token.Comma, Pos: pos}
	case '.':
		return token.Token{Kind: token.Dot, Pos: pos}
	case '~':
		return token.Token{Kind: token.Tilde, Pos: pos}
	case '^':
		return token.Token{Kind: token.Caret, Pos: pos}
	case '*':
		return token.Token{Kind: token.Star, Pos: pos}
	case '#':
		return token.Token{Kind: token.Hash, Pos: pos}
	case '\'':
		return token.Token{Kind: token.Prime, Pos: pos}
	case '@':
		return token.Token{Kind: token.At, Pos: pos}
	case '/':
		return token.Token{Kind: token.Slash, Pos: pos}
	case ':':
		return two('>', token.RanRestr, token.Colon)
	case '-':
		return two('>', token.Arrow, token.Minus)
	case '+':
		return two('+', token.PlusPlus, token.Plus)
	case '&':
		return two('&', token.AmpAmp, token.Amp)
	case '|':
		return two('|', token.BarBar, token.Bar)
	case '!':
		return two('=', token.NotEq, token.Bang)
	case '>':
		return two('=', token.GtEq, token.Gt)
	case '<':
		if l.peek() == '=' && l.peek2() == '>' {
			l.advance()
			l.advance()
			return token.Token{Kind: token.IffOp, Pos: pos}
		}
		if l.peek() == '=' {
			l.advance()
			return token.Token{Kind: token.LtEq, Pos: pos}
		}
		return two(':', token.DomRestr, token.Lt)
	case '=':
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.ImpliesOp, Pos: pos}
		}
		if l.peek() == '<' {
			l.advance()
			return token.Token{Kind: token.LtEq, Pos: pos}
		}
		return token.Token{Kind: token.Eq, Pos: pos}
	}

	l.errorf(pos, "unexpected character %q", string(c))
	return token.Token{Kind: token.Invalid, Lit: string(c), Pos: pos}
}

// bytesPerToken sizes ScanAll's token slice. Printed modules of the A4F,
// ARepair and SYN corpora average 4.1 source bytes per token and never go
// below 3.1, so len(src)/bytesPerToken slots hold them without regrowing.
const bytesPerToken = 3

// ScanAll lexes the entire source and returns all tokens up to and including
// EOF, plus any scan errors.
func ScanAll(src string) ([]token.Token, []error) {
	l := New(src)
	toks := make([]token.Token, 0, len(src)/bytesPerToken+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			break
		}
	}
	return toks, l.Errors()
}

// Tokenize returns the whitespace-separated textual tokens of src with
// comments removed. It is the tokenization used by the Token Match metric.
func Tokenize(src string) []string {
	toks, _ := ScanAll(src)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.Kind == token.EOF || t.Kind == token.Invalid {
			continue
		}
		if t.Lit != "" {
			out = append(out, t.Lit)
		} else {
			out = append(out, t.Kind.String())
		}
	}
	return out
}

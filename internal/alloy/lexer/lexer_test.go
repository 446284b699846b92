package lexer

import (
	"reflect"
	"testing"

	"specrepair/internal/alloy/token"
)

func kinds(src string) []token.Kind {
	toks, _ := ScanAll(src)
	out := make([]token.Kind, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Kind)
	}
	return out
}

func TestScanPunctuation(t *testing.T) {
	tests := []struct {
		src  string
		want []token.Kind
	}{
		{"->", []token.Kind{token.Arrow, token.EOF}},
		{"-", []token.Kind{token.Minus, token.EOF}},
		{"++", []token.Kind{token.PlusPlus, token.EOF}},
		{"+ +", []token.Kind{token.Plus, token.Plus, token.EOF}},
		{"<:", []token.Kind{token.DomRestr, token.EOF}},
		{":>", []token.Kind{token.RanRestr, token.EOF}},
		{":", []token.Kind{token.Colon, token.EOF}},
		{"<=>", []token.Kind{token.IffOp, token.EOF}},
		{"<=", []token.Kind{token.LtEq, token.EOF}},
		{"=<", []token.Kind{token.LtEq, token.EOF}},
		{"=>", []token.Kind{token.ImpliesOp, token.EOF}},
		{"=", []token.Kind{token.Eq, token.EOF}},
		{"!=", []token.Kind{token.NotEq, token.EOF}},
		{"!", []token.Kind{token.Bang, token.EOF}},
		{">=", []token.Kind{token.GtEq, token.EOF}},
		{"&&", []token.Kind{token.AmpAmp, token.EOF}},
		{"&", []token.Kind{token.Amp, token.EOF}},
		{"||", []token.Kind{token.BarBar, token.EOF}},
		{"|", []token.Kind{token.Bar, token.EOF}},
		{"'", []token.Kind{token.Prime, token.EOF}},
		{"#x", []token.Kind{token.Hash, token.Ident, token.EOF}},
		{"~^*", []token.Kind{token.Tilde, token.Caret, token.Star, token.EOF}},
	}
	for _, tt := range tests {
		if got := kinds(tt.src); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("ScanAll(%q) kinds = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestScanKeywordsAndIdents(t *testing.T) {
	toks, errs := ScanAll("abstract sig Key extends keys all42 Int")
	if len(errs) > 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := []token.Kind{
		token.KwAbstract, token.KwSig, token.Ident, token.KwExtends,
		token.Ident, token.Ident, token.KwInt, token.EOF,
	}
	got := make([]token.Kind, 0, len(toks))
	for _, tok := range toks {
		got = append(got, tok.Kind)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
	if toks[2].Lit != "Key" || toks[4].Lit != "keys" || toks[5].Lit != "all42" {
		t.Errorf("unexpected literals: %v", toks)
	}
}

func TestScanComments(t *testing.T) {
	src := "sig A {} -- line comment\n// another\n/* block\ncomment */ sig B {}"
	got := kinds(src)
	want := []token.Kind{
		token.KwSig, token.Ident, token.LBrace, token.RBrace,
		token.KwSig, token.Ident, token.LBrace, token.RBrace, token.EOF,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestScanPositions(t *testing.T) {
	toks, _ := ScanAll("sig A\n  pred")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("sig pos = %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 1 || toks[1].Pos.Col != 5 {
		t.Errorf("A pos = %v, want 1:5", toks[1].Pos)
	}
	if toks[2].Pos.Line != 2 || toks[2].Pos.Col != 3 {
		t.Errorf("pred pos = %v, want 2:3", toks[2].Pos)
	}
}

func TestScanUnterminatedBlockComment(t *testing.T) {
	_, errs := ScanAll("/* never closed")
	if len(errs) == 0 {
		t.Error("expected error for unterminated block comment")
	}
}

func TestScanInvalidChar(t *testing.T) {
	toks, errs := ScanAll("sig $")
	if len(errs) == 0 {
		t.Error("expected error for $")
	}
	if toks[1].Kind != token.Invalid {
		t.Errorf("kind = %v, want Invalid", toks[1].Kind)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("all r: Room | some FrontDesk.lastKey[r]")
	want := []string{"all", "r", ":", "Room", "|", "some", "FrontDesk", ".", "lastKey", "[", "r", "]"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestNumber(t *testing.T) {
	toks, _ := ScanAll("for 3 but 12 Int")
	if toks[1].Kind != token.Number || toks[1].Lit != "3" {
		t.Errorf("got %v", toks[1])
	}
	if toks[3].Kind != token.Number || toks[3].Lit != "12" {
		t.Errorf("got %v", toks[3])
	}
}

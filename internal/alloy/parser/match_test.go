package parser_test

import (
	"reflect"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/lexer"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
	"specrepair/internal/mutation"
)

// corpusModules returns the faulty and the ground-truth module of every
// scale-40 A4F, ARepair and SYN spec, in corpus order; a domain's ground
// truth repeats once per spec.
func corpusModules(tb testing.TB) []*ast.Module {
	tb.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 40
	a4f, ar, err := g.Both()
	if err != nil {
		tb.Fatal(err)
	}
	syn, err := g.Synthetic()
	if err != nil {
		tb.Fatal(err)
	}
	var out []*ast.Module
	for _, s := range []*bench.Suite{a4f, ar, syn} {
		for _, sp := range s.Specs {
			out = append(out, sp.Faulty, sp.GroundTruth)
		}
	}
	return out
}

// corpusSources returns the corpus modules printed, each text once.
func corpusSources(tb testing.TB) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range corpusModules(tb) {
		if src := printer.Module(m); !seen[src] {
			seen[src] = true
			out = append(out, src)
		}
	}
	return out
}

// errText is err's message, or "" for no error.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkModule parses src with both parsers and fails unless they agree. It
// returns the parser's error.
func checkModule(t *testing.T, src string) error {
	t.Helper()
	got, gerr := parser.Parse(src)
	want, werr := refParse(src)
	if errText(gerr) != errText(werr) {
		t.Fatalf("Parse(%q):\nerror   %q\nreference %q", src, errText(gerr), errText(werr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse(%q): the tree differs from the reference's", src)
	}
	return gerr
}

// checkExpr parses src as an expression with both parsers and fails unless
// they agree.
func checkExpr(t *testing.T, src string) {
	t.Helper()
	got, gerr := parser.ParseExpr(src)
	want, werr := refParseExpr(src)
	if errText(gerr) != errText(werr) {
		t.Fatalf("ParseExpr(%q):\nerror   %q\nreference %q", src, errText(gerr), errText(werr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseExpr(%q): the tree differs from the reference's", src)
	}
}

// tokenPrefixes returns src cut before every step-th token, so each prefix
// ends at a token boundary. Printed modules are ASCII, so a token's column
// is its byte offset in the line plus one.
func tokenPrefixes(src string, step int) []string {
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	toks, _ := lexer.ScanAll(src)
	var out []string
	for i := 0; i < len(toks); i += step {
		p := toks[i].Pos
		out = append(out, src[:lineStart[p.Line-1]+p.Col-1])
	}
	return out
}

// TestParseMatchesReference holds the parser to the recursive-descent
// reference on the study's own inputs: every printed scale-40 faulty and
// ground-truth module, every template-budget mutation candidate of those
// modules as an expression, and every module cut at every 8th token, which
// drives the error paths.
func TestParseMatchesReference(t *testing.T) {
	srcs := corpusSources(t)
	exprs, prefixes, errs := 0, 0, 0
	for _, src := range srcs {
		if err := checkModule(t, src); err != nil {
			t.Fatal(err)
		}
		mod, _ := parser.Parse(src)
		eng, err := mutation.NewEngine(mod)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range eng.Sites() {
			for _, repl := range eng.Candidates(s, mutation.BudgetTemplates) {
				checkExpr(t, printer.Expr(repl))
				exprs++
			}
		}
		for _, cut := range tokenPrefixes(src, 8) {
			prefixes++
			if checkModule(t, cut) != nil {
				errs++
			}
		}
	}
	t.Logf("%d modules, %d candidate expressions, %d prefixes (%d rejected)", len(srcs), exprs, prefixes, errs)
	if len(srcs) < 100 || exprs < 10000 || errs < 1000 {
		t.Fatalf("too little compared: %d modules, %d expressions, %d rejected prefixes", len(srcs), exprs, errs)
	}
}

// FuzzParseMatchesReference holds the parser to the reference on arbitrary
// source, parsed both as a module and as an expression.
func FuzzParseMatchesReference(f *testing.F) {
	for _, src := range corpusSources(f) {
		f.Add(src)
	}
	for _, src := range []string{"", "a - b - c", "p => q else r", "x !in y", "no some x", "a lone -> b", "f[x][y]", "not a = b = c"} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkModule(t, src)
		checkExpr(t, src)
	})
}

// parseSink keeps the benchmarked results alive.
var parseSink *ast.Module

// BenchmarkParse parses every printed scale-40 faulty and ground-truth
// module, 1,106 modules per op, as the study's metrics and LLM replies do.
func BenchmarkParse(b *testing.B) {
	var srcs []string
	for _, m := range corpusModules(b) {
		srcs = append(srcs, printer.Module(m))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			m, err := parser.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			parseSink = m
		}
	}
}

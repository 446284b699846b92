package metrics

import (
	"math"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/lexer"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
	"specrepair/internal/mutation"
)

// The reference implementations below key n-grams and subtrees by strings:
// an n-gram by its tokens joined, a subtree by its full canonical encoding.
// They are the metrics as first written, kept as the oracle the interned
// implementations must match float for float.

func referenceTokenMatch(groundTruth, candidate string) float64 {
	return referenceBLEU(lexer.Tokenize(groundTruth), lexer.Tokenize(candidate), 4)
}

func referenceBLEU(ref, hyp []string, maxN int) float64 {
	if len(hyp) == 0 {
		return 0
	}
	if maxN < 1 {
		maxN = 1
	}
	logSum := 0.0
	for n := 1; n <= maxN; n++ {
		matches, total := ngramOverlap(ref, hyp, n)
		var p float64
		if n == 1 {
			if total == 0 {
				return 0
			}
			p = float64(matches) / float64(total)
		} else {
			p = (float64(matches) + 1) / (float64(total) + 1)
		}
		if p == 0 {
			return 0
		}
		logSum += math.Log(p)
	}
	bleu := math.Exp(logSum / float64(maxN))
	if len(hyp) < len(ref) {
		bleu *= math.Exp(1 - float64(len(ref))/float64(len(hyp)))
	}
	if bleu > 1 {
		bleu = 1
	}
	return bleu
}

// ngramOverlap counts clipped n-gram matches of hyp against ref and the
// total number of hyp n-grams.
func ngramOverlap(ref, hyp []string, n int) (matches, total int) {
	if len(hyp) < n {
		return 0, 0
	}
	refCounts := map[string]int{}
	for i := 0; i+n <= len(ref); i++ {
		refCounts[joinGram(ref[i:i+n])]++
	}
	hypCounts := map[string]int{}
	for i := 0; i+n <= len(hyp); i++ {
		hypCounts[joinGram(hyp[i:i+n])]++
		total++
	}
	for g, c := range hypCounts {
		r := refCounts[g]
		if r < c {
			matches += r
		} else {
			matches += c
		}
	}
	return matches, total
}

func joinGram(toks []string) string {
	out := ""
	for _, t := range toks {
		out += t + "\x00"
	}
	return out
}

func referenceSyntaxMatch(groundTruth, candidate string) float64 {
	gt, err := parser.Parse(groundTruth)
	if err != nil {
		return 0
	}
	cand, err := parser.Parse(candidate)
	if err != nil {
		return 0
	}
	ca, cb := subtreeCounts(gt), subtreeCounts(cand)
	kab, kaa, kbb := referenceKernel(ca, cb), referenceKernel(ca, ca), referenceKernel(cb, cb)
	if kaa == 0 || kbb == 0 {
		return 0
	}
	return kab / math.Sqrt(kaa*kbb)
}

func referenceKernel(a, b map[string]int) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	sum := 0.0
	for h, ca := range a {
		if cb, ok := b[h]; ok {
			sum += float64(ca) * float64(cb)
		}
	}
	return sum
}

// subtreeCounts returns the multiset of complete-subtree fingerprints of a
// module, keyed by a canonical string encoding.
func subtreeCounts(m *ast.Module) map[string]int {
	counts := map[string]int{}
	var enc func(e ast.Expr) string
	enc = func(e ast.Expr) string {
		label := nodeLabel(e)
		s := "(" + label
		for i := range ast.NumChildren(e) {
			s += enc(ast.Child(e, i))
		}
		s += ")"
		counts[s]++
		return s
	}
	root := "(module"
	for _, sig := range m.Sigs {
		s := "(sig:" + sigKey(sig)
		for _, f := range sig.Fields {
			fs := "(field:" + joinNames(f.Names) + f.Mult.String() + enc(f.Expr) + ")"
			counts[fs]++
			s += fs
		}
		if sig.Fact != nil {
			s += enc(sig.Fact)
		}
		s += ")"
		counts[s]++
		root += s
	}
	for _, f := range m.Facts {
		s := "(fact:" + f.Name + enc(f.Body) + ")"
		counts[s]++
		root += s
	}
	for _, p := range m.Preds {
		s := "(pred:" + p.Name
		for _, d := range p.Params {
			s += "(param:" + joinNames(d.Names) + enc(d.Expr) + ")"
		}
		s += enc(p.Body) + ")"
		counts[s]++
		root += s
	}
	for _, fn := range m.Funs {
		s := "(fun:" + fn.Name + enc(fn.Result) + enc(fn.Body) + ")"
		counts[s]++
		root += s
	}
	for _, a := range m.Asserts {
		s := "(assert:" + a.Name + enc(a.Body) + ")"
		counts[s]++
		root += s
	}
	for _, c := range m.Commands {
		s := "(cmd:" + c.Kind.String() + ":" + c.Target
		if c.Block != nil {
			s += enc(c.Block)
		}
		s += ")"
		counts[s]++
		root += s
	}
	counts[root+")"]++
	return counts
}

// checkReference fails unless TM and SM of the pair equal the reference's
// bit for bit.
func checkReference(t *testing.T, label, gt, cand string) {
	t.Helper()
	if got, want := TokenMatch(gt, cand), referenceTokenMatch(gt, cand); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("%s: TM = %v, reference %v", label, got, want)
	}
	if got, want := SyntaxMatch(gt, cand), referenceSyntaxMatch(gt, cand); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("%s: SM = %v, reference %v", label, got, want)
	}
}

// corpusSpecs returns every A4F, ARepair and SYN spec at scale 40.
func corpusSpecs(tb testing.TB) []*bench.Spec {
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
	var out []*bench.Spec
	for _, s := range []*bench.Suite{a4f, ar, syn} {
		out = append(out, s.Specs...)
	}
	return out
}

// firstCandidates returns the first n candidates the mutation engine
// enumerates for mod, printed.
func firstCandidates(tb testing.TB, mod *ast.Module, n int) []string {
	tb.Helper()
	eng, err := mutation.NewEngine(mod)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, s := range eng.Sites() {
		for _, repl := range eng.Candidates(s, mutation.BudgetTemplates) {
			if len(out) == n {
				return out
			}
			if cand, err := eng.Apply(s.Site, repl); err == nil {
				out = append(out, printer.Module(cand))
			}
		}
	}
	return out
}

// TestMetricsMatchReference checks TM and SM against the string-keyed
// reference on the study's own inputs: every scale-40 spec's ground truth
// against its faulty version and against its first mutation candidates.
func TestMetricsMatchReference(t *testing.T) {
	pairs := 0
	for _, sp := range corpusSpecs(t) {
		gt := printer.Module(sp.GroundTruth)
		checkReference(t, sp.Name+" faulty", gt, printer.Module(sp.Faulty))
		pairs++
		for i, cand := range firstCandidates(t, sp.Faulty, 5) {
			checkReference(t, sp.Name+" candidate "+string(rune('0'+i)), gt, cand)
			pairs++
		}
	}
	if pairs < 100 {
		t.Fatalf("only %d pairs compared", pairs)
	}
}

// TestPreparedReferenceMatches checks that scoring against a Reference
// gives TokenMatch's and SyntaxMatch's floats, on the pairs
// TestMetricsMatchReference compares, and that a Reference prepared with
// the module a ground truth was printed from holds no tree of its own.
func TestPreparedReferenceMatches(t *testing.T) {
	for _, sp := range corpusSpecs(t) {
		gt := printer.Module(sp.GroundTruth)
		refs := []*Reference{NewReference(gt, sp.GroundTruth), NewReference(gt, nil)}
		if refs[0].mod != sp.GroundTruth {
			t.Fatalf("%s: the prepared ground truth holds a parse of its own", sp.Name)
		}
		if NewReference(gt, sp.Faulty).mod == sp.Faulty {
			t.Fatalf("%s: a module the ground truth was not printed from stands for its parse", sp.Name)
		}
		cands := append(firstCandidates(t, sp.Faulty, 5), printer.Module(sp.Faulty), gt, "")
		for _, cand := range cands {
			for _, ref := range refs {
				if got, want := ref.TokenMatch(cand), TokenMatch(gt, cand); got != want {
					t.Fatalf("%s: prepared TM = %v, TokenMatch %v", sp.Name, got, want)
				}
				if got, want := ref.SyntaxMatch(cand), SyntaxMatch(gt, cand); got != want {
					t.Fatalf("%s: prepared SM = %v, SyntaxMatch %v", sp.Name, got, want)
				}
			}
		}
	}
}

// TestBLEUMatchesReferenceOrders covers n-gram orders past the texts'
// lengths and repeated n-grams, where clipping matters.
func TestBLEUMatchesReferenceOrders(t *testing.T) {
	texts := [][]string{
		nil,
		{"a"},
		{"a", "a", "a", "a"},
		{"a", "b", "a", "b", "a"},
		{"b", "a", "b", "a", "b", "a", "c"},
		{"x", "y", "z"},
	}
	for _, ref := range texts {
		for _, hyp := range texts {
			for n := 0; n <= 8; n++ {
				if got, want := BLEU(ref, hyp, n), referenceBLEU(ref, hyp, n); got != want {
					t.Fatalf("BLEU(%q, %q, %d) = %v, reference %v", ref, hyp, n, got, want)
				}
			}
		}
	}
}

// FuzzMetrics checks TM and SM of two arbitrary sources against the
// reference.
func FuzzMetrics(f *testing.F) {
	g := bench.NewGenerator(nil)
	g.Scale = 400
	a4f, ar, err := g.Both()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []*bench.Suite{a4f, ar} {
		for _, sp := range s.Specs {
			f.Add(printer.Module(sp.GroundTruth), printer.Module(sp.Faulty))
		}
	}
	f.Add("sig A { f: set A }", "sig A { f: lone A } fact { all a: A | a in a.f }")
	f.Add("", "sig A {}")
	f.Fuzz(func(t *testing.T, gt, cand string) {
		checkReference(t, "fuzz", gt, cand)
	})
}

func BenchmarkTokenMatch(b *testing.B) {
	gt, cand := benchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TokenMatch(gt, cand)
	}
}

func BenchmarkSyntaxMatch(b *testing.B) {
	gt, cand := benchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SyntaxMatch(gt, cand)
	}
}

// benchPair returns the ground truth and faulty version of a mid-sized A4F
// spec, printed as the study scores them.
func benchPair(b *testing.B) (gt, cand string) {
	b.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 400
	a4f, err := g.Alloy4Fun()
	if err != nil {
		b.Fatal(err)
	}
	for _, sp := range a4f.Specs {
		if sp.Name == "graphs/0000" {
			return printer.Module(sp.GroundTruth), printer.Module(sp.Faulty)
		}
	}
	b.Fatal("spec graphs/0000 missing")
	return "", ""
}

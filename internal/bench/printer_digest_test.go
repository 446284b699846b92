package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/mutation"
)

// printerDigest is the SHA-256 of everything TestPrinterOutputPinned prints.
// The analysis cache, the candidate dedup keys and the similarity metrics
// all consume the printer's output, so a change that moves a single byte of
// it changes study results or cache keys. Update this only for a change
// meant to alter the canonical form.
const printerDigest = "acfa2d1cc39b1a13e256c9cc5e8a7aed5dccd2ee7ba08ab40f53aadac8c68705"

// TestPrinterOutputPinned hashes printer.Module, Sig, Command and Expr over
// the A4F, ARepair and SYN corpora at scale 40 (faulty and ground-truth
// modules, every sig, every command and every subexpression of every
// paragraph) plus the printed module of every BudgetTemplates candidate of
// every faulty spec, and compares the digest with the pinned one.
func TestPrinterOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the scale-40 corpora")
	}
	suites, err := scale40Suites()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	printed := 0
	for _, suite := range suites {
		for _, s := range suite.Specs {
			printed += hashModule(h, s.Faulty) + hashModule(h, s.GroundTruth)
			eng, err := mutation.NewEngine(s.Faulty)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			for _, site := range eng.Sites() {
				for _, c := range eng.Candidates(site, mutation.BudgetTemplates) {
					io.WriteString(h, printer.Expr(c))
					got, err := mutation.Apply(eng.Mod, site.Site, c)
					if err != nil {
						continue
					}
					io.WriteString(h, printer.Module(got))
					printed += 2
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != printerDigest {
		t.Errorf("printer output over %d renderings hashes to %s, pinned %s", printed, got, printerDigest)
	}
}

// hashModule writes every printer rendering of mod into h and returns how
// many it wrote.
func hashModule(h hash.Hash, mod *ast.Module) int {
	n := 1
	io.WriteString(h, printer.Module(mod))
	for _, s := range mod.Sigs {
		io.WriteString(h, printer.Sig(s))
		n++
	}
	for _, c := range mod.Commands {
		io.WriteString(h, printer.Command(c))
		n++
	}
	var bodies []ast.Expr
	for _, f := range mod.Facts {
		bodies = append(bodies, f.Body)
	}
	for _, f := range mod.Funs {
		bodies = append(bodies, f.Result, f.Body)
	}
	for _, p := range mod.Preds {
		bodies = append(bodies, p.Body)
	}
	for _, a := range mod.Asserts {
		bodies = append(bodies, a.Body)
	}
	for _, s := range mod.Sigs {
		for _, d := range s.Fields {
			bodies = append(bodies, d.Expr)
		}
		if s.Fact != nil {
			bodies = append(bodies, s.Fact)
		}
	}
	for _, b := range bodies {
		ast.Walk(b, func(e ast.Expr) bool {
			io.WriteString(h, printer.Expr(e))
			n++
			return true
		})
	}
	return n
}

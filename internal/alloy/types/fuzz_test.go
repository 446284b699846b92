package types_test

import (
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
)

// FuzzParse feeds arbitrary sources through the frontend. For every source
// that parses, printing is a fixpoint (parse → print → parse → print gives
// the same text), and Check, CheckTyped and Lower neither panic nor modify
// the parsed module, whether or not it type-checks. Seeds are the printed
// benchmark corpora and the sig-fact sources of the contract test.
//
//	go test -run='^$' -fuzz=FuzzParse -fuzztime=20s ./internal/alloy/types
func FuzzParse(f *testing.F) {
	seen := map[string]bool{}
	for _, mod := range contractModules(f) {
		src := printer.Module(mod)
		if !seen[src] {
			seen[src] = true
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := parser.Parse(src)
		if err != nil {
			return
		}
		printed := printer.Module(mod)
		again, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, printed)
		}
		if reprinted := printer.Module(again); reprinted != printed {
			t.Fatalf("printing is not a fixpoint:\n%s\nreprinted as:\n%s", printed, reprinted)
		}
		snap := takeSnapshot(mod)
		for _, c := range []struct {
			name string
			run  func(*ast.Module) error
		}{
			{"Check", func(m *ast.Module) error { _, err := types.Check(m); return err }},
			{"CheckTyped", func(m *ast.Module) error { _, err := types.CheckTyped(m); return err }},
			{"Lower", func(m *ast.Module) error { _, _, err := types.Lower(m); return err }},
		} {
			_ = c.run(mod)
			if !snap.unchanged(mod) {
				t.Fatalf("%s modified its input:\n%s", c.name, printed)
			}
		}
	})
}

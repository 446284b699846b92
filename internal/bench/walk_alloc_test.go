package bench

import (
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/types"
)

// TestWalkAllocatesNothing pins that ast.Walk allocates nothing over the
// lowered facts of every corpus base model: the child accessor reads each
// node in place. The incremental analyzer walks every formula it gates.
func TestWalkAllocatesNothing(t *testing.T) {
	var profiles []domainProfile
	profiles = append(profiles, a4fProfiles()...)
	profiles = append(profiles, arepairProfiles()...)
	profiles = append(profiles, synProfiles()...)
	facts := 0
	for _, p := range profiles {
		mod, err := parser.Parse(p.source)
		if err != nil {
			t.Fatalf("%s: %v", p.domain, err)
		}
		low, _, err := types.Lower(mod)
		if err != nil {
			t.Fatalf("%s: %v", p.domain, err)
		}
		for _, f := range low.Facts {
			nodes := 0
			visit := func(ast.Expr) bool { nodes++; return true }
			if a := testing.AllocsPerRun(10, func() { ast.Walk(f.Body, visit) }); a != 0 {
				t.Errorf("%s fact %s: Walk allocates %.1f times", p.domain, f.Name, a)
			}
			if nodes == 0 {
				t.Errorf("%s fact %s: Walk visited nothing", p.domain, f.Name)
			}
			facts++
		}
	}
	if facts == 0 {
		t.Fatal("no corpus fact walked")
	}
}

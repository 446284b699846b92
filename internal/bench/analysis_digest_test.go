package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/analyzer"
	"specrepair/internal/mutation"
)

// freshAnalysisDigest is the SHA-256 of everything TestFreshAnalysisPinned
// hashes. The fresh path decodes the instances ARepair, ICEBAR, LLM feedback
// and ATR consume, so a change to bounds, translation, CNF encoding or the
// solver that moves one verdict, one effort counter or one atom of one
// instance moves this digest. Update it only for a change meant to alter
// the fresh path's answers or effort.
const freshAnalysisDigest = "3d4146d92747ccfa364626f929372d99dcd5473ba133383a7c32733bbdd497bd"

// mutantsPerSpec bounds how many BudgetTemplates candidates of each faulty
// spec TestFreshAnalysisPinned analyzes.
const mutantsPerSpec = 2

// TestFreshAnalysisPinned runs an uncached analyzer on the fresh path over
// the A4F, ARepair and SYN corpora at scale 40: ExecuteAll and a RunCommand
// per check command on every faulty and ground-truth module and on the
// first mutantsPerSpec BudgetTemplates candidates of every faulty module.
// It hashes every result's verdict, status, effort and instance and
// compares the digest with the pinned one.
func TestFreshAnalysisPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and analyzes the scale-40 corpora")
	}
	suites, err := scale40Suites()
	if err != nil {
		t.Fatal(err)
	}
	an := analyzer.New(analyzer.Options{DisableIncremental: true})
	h := sha256.New()
	modules, results := 0, 0
	for _, suite := range suites {
		for _, s := range suite.Specs {
			mods := []*ast.Module{s.Faulty, s.GroundTruth}
			eng, err := mutation.NewEngine(s.Faulty)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			mutants := 0
		sites:
			for _, site := range eng.Sites() {
				for _, c := range eng.Candidates(site, mutation.BudgetTemplates) {
					if mutants == mutantsPerSpec {
						break sites
					}
					if got, err := mutation.Apply(eng.Mod, site.Site, c); err == nil {
						mods = append(mods, got)
						mutants++
					}
				}
			}
			for _, mod := range mods {
				modules++
				results += hashAnalysis(h, an, mod)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != freshAnalysisDigest {
		t.Errorf("fresh analysis of %d modules (%d results) hashes to %s, pinned %s",
			modules, results, got, freshAnalysisDigest)
	}
}

// hashAnalysis writes mod's ExecuteAll results and a RunCommand result per
// check command into h and returns how many results it wrote. Errors are
// hashed too: a module that stops analyzing moves the digest.
func hashAnalysis(h hash.Hash, an *analyzer.Analyzer, mod *ast.Module) int {
	all, err := an.ExecuteAll(mod)
	if err != nil {
		fmt.Fprintf(h, "execute-all error: %v\n", err)
	}
	n := 0
	for _, r := range all {
		hashResult(h, r)
		n++
	}
	for _, cmd := range mod.Commands {
		if cmd.Kind != ast.CmdCheck {
			continue
		}
		r, err := an.RunCommand(mod, cmd)
		if err != nil {
			fmt.Fprintf(h, "command error: %v\n", err)
			continue
		}
		hashResult(h, r)
		n++
	}
	return n
}

func hashResult(h hash.Hash, r *analyzer.Result) {
	fmt.Fprintf(h, "%s %s sat=%v status=%v %+v\n", r.Command.Kind, r.Command.Name, r.Sat, r.Status, r.Stats)
	if r.Instance != nil {
		fmt.Fprint(h, r.Instance.String())
	}
}

package core

import (
	"encoding/json"
	"testing"

	"specrepair/internal/anacache"
	"specrepair/internal/bench"
)

// TestStudyLeavesSpecsUntouched guards the ownership rule of the syntax
// tree: a node is never written after it is built, so modules, paragraphs
// and expressions are shared between specs, techniques, candidates and
// workers instead of copied. It snapshots every spec's faulty module and
// ground truth as JSON, which covers positions and flags as well as the
// printed text, runs all twelve techniques and the REP/TM/SM scoring over
// the corpora on two workers sharing one analysis cache, and requires
// every snapshot to be unchanged. Under the race detector a write to a
// node shared across the workers also fails the run as a data race.
func TestStudyLeavesSpecsUntouched(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the corpora and runs every technique on them")
	}
	g := bench.NewGenerator(nil)
	g.Scale = guardScale
	a4f, ar, err := g.Both()
	if err != nil {
		t.Fatal(err)
	}
	syn, err := g.Synthetic()
	if err != nil {
		t.Fatal(err)
	}
	suites := []*bench.Suite{a4f, ar, syn}

	snapshot := func(sp *bench.Spec) string {
		b, err := json.Marshal([2]any{sp.Faulty, sp.GroundTruth})
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		return string(b)
	}
	before := map[*bench.Spec]string{}
	for _, s := range suites {
		for _, sp := range s.Specs {
			before[sp] = snapshot(sp)
		}
	}

	cache := anacache.New(0)
	runner := &Runner{Workers: 2, Cache: cache}
	factories := StudyFactoriesWith(1, FactoryOptions{Cache: cache})
	for _, s := range suites {
		eval, err := runner.Evaluate(s, factories)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, f := range factories {
			if n := len(eval.Results[f.Name]); n != len(s.Specs) {
				t.Fatalf("%s %s: %d results, want %d", s.Name, f.Name, n, len(s.Specs))
			}
		}
	}

	for sp, want := range before {
		if got := snapshot(sp); got != want {
			t.Errorf("%s: the study modified the spec's faulty module or ground truth", sp.Name)
		}
	}
}

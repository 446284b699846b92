package bench

import (
	"sync"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/anacache"
	"specrepair/internal/analyzer"
)

// fullSuites generates both suites at full scale exactly once per test
// binary, so every full-scale test shares the ~1 minute of generation work.
var (
	fullOnce sync.Once
	fullA4F  *Suite
	fullAR   *Suite
	fullErr  error
)

func fullSuites() (*Suite, *Suite, error) {
	fullOnce.Do(func() {
		g := NewGenerator(nil)
		fullA4F, fullAR, fullErr = g.Both()
	})
	return fullA4F, fullAR, fullErr
}

// scale40Suites generates the A4F, ARepair and SYN suites at scale 40 with
// an uncached analyzer exactly once per test binary, for the tests that only
// read them (TestFreshAnalysisPinned, TestPrinterOutputPinned).
var (
	scale40Once  sync.Once
	scale40      []*Suite
	scale40Error error
)

func scale40Suites() ([]*Suite, error) {
	scale40Once.Do(func() {
		g := NewGenerator(nil)
		g.Scale = 40
		a4f, ar, err := g.Both()
		if err != nil {
			scale40Error = err
			return
		}
		syn, err := g.Synthetic()
		scale40, scale40Error = []*Suite{a4f, ar, syn}, err
	})
	return scale40, scale40Error
}

// TestCachedResultsMatchUncached runs every analyzer entry point the repair
// pipeline uses over the benchmark corpus twice — once against a plain
// analyzer and once against a cache-backed one — and demands byte-for-byte
// identical answers, both on the cache-filling pass and on the cache-hitting
// pass. In -short mode a scaled-down corpus is used; otherwise the full
// corpus from the paper.
func TestCachedResultsMatchUncached(t *testing.T) {
	var a4f, ar *Suite
	var err error
	if testing.Short() {
		g := NewGenerator(nil)
		g.Scale = 40
		a4f, ar, err = g.Both()
	} else {
		a4f, ar, err = fullSuites()
	}
	if err != nil {
		t.Fatal(err)
	}

	cache := anacache.New(0)
	cached := analyzer.New(analyzer.Options{Cache: cache})
	uncached := analyzer.New(analyzer.Options{})

	specs := append(append([]*Spec{}, a4f.Specs...), ar.Specs...)
	for _, s := range specs {
		for _, m := range []struct {
			label string
			mod   *ast.Module
		}{{"faulty", s.Faulty}, {"gt", s.GroundTruth}} {
			want, err := uncached.ExecuteAll(m.mod)
			if err != nil {
				t.Fatalf("%s %s: uncached ExecuteAll: %v", s.Name, m.label, err)
			}
			// First cached pass fills the cache, second must hit it; both
			// have to agree with the uncached reference exactly.
			for pass := 0; pass < 2; pass++ {
				got, err := cached.ExecuteAll(m.mod)
				if err != nil {
					t.Fatalf("%s %s: cached ExecuteAll (pass %d): %v", s.Name, m.label, pass, err)
				}
				compareResults(t, s.Name+"/"+m.label, want, got)
			}

			wantPass, err := uncached.PassesAll(m.mod)
			if err != nil {
				t.Fatalf("%s %s: uncached PassesAll: %v", s.Name, m.label, err)
			}
			gotPass, err := cached.PassesAll(m.mod)
			if err != nil {
				t.Fatalf("%s %s: cached PassesAll: %v", s.Name, m.label, err)
			}
			if wantPass != gotPass {
				t.Errorf("%s %s: PassesAll cached=%v uncached=%v", s.Name, m.label, gotPass, wantPass)
			}
		}

		wantEq, err := uncached.Equisat(s.GroundTruth, s.Faulty)
		if err != nil {
			t.Fatalf("%s: uncached Equisat: %v", s.Name, err)
		}
		gotEq, err := cached.Equisat(s.GroundTruth, s.Faulty)
		if err != nil {
			t.Fatalf("%s: cached Equisat: %v", s.Name, err)
		}
		if wantEq != gotEq {
			t.Errorf("%s: Equisat cached=%v uncached=%v", s.Name, gotEq, wantEq)
		}
	}

	stats := cache.Stats()
	if stats.Hits == 0 {
		t.Errorf("cache recorded no hits over the corpus: %s", stats)
	}
	t.Logf("analysis cache after corpus sweep: %s", stats)
}

// compareResults demands full observable equality between two ExecuteAll
// answers: same length, and per command the same satisfiability, solver
// status, and (when present) the byte-for-byte identical instance.
func compareResults(t *testing.T, name string, want, got []*analyzer.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: result count cached=%d uncached=%d", name, len(got), len(want))
		return
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Sat != g.Sat || w.Status != g.Status {
			t.Errorf("%s cmd %d: cached (sat=%v status=%v) != uncached (sat=%v status=%v)",
				name, i, g.Sat, g.Status, w.Sat, w.Status)
		}
		switch {
		case w.Instance == nil && g.Instance == nil:
		case w.Instance == nil || g.Instance == nil:
			t.Errorf("%s cmd %d: instance presence cached=%v uncached=%v",
				name, i, g.Instance != nil, w.Instance != nil)
		case w.Instance.String() != g.Instance.String():
			t.Errorf("%s cmd %d: instances differ\ncached:\n%s\nuncached:\n%s",
				name, i, g.Instance.String(), w.Instance.String())
		}
		if w.Passed() != g.Passed() {
			t.Errorf("%s cmd %d: Passed cached=%v uncached=%v", name, i, g.Passed(), w.Passed())
		}
	}
}

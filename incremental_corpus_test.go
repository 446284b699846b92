package specrepair

// Corpus-wide differential guard for the incremental candidate-evaluation
// layer: over the deterministic 1/200 benchmark slice, mutation-generated
// candidate streams must get byte-for-byte identical PassesAll verdicts from
// the long-lived incremental evaluator and the fresh per-candidate path
// (analyzer.Options.DisableIncremental). This is the contract every repair
// technique's candidate loop relies on.

import (
	"sync"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
	"specrepair/internal/mutation"
)

var (
	corpusOnce sync.Once
	corpusA4F  *bench.Suite
	corpusAR   *bench.Suite
	corpusErr  error
)

// corpusSuites generates (once) the 1/200 benchmark slice shared by the
// corpus differential test and BenchmarkIncrementalCandidates.
func corpusSuites(tb testing.TB) (*bench.Suite, *bench.Suite) {
	tb.Helper()
	corpusOnce.Do(func() {
		gen := bench.NewGenerator(nil)
		gen.Scale = benchScale
		corpusA4F, corpusAR, corpusErr = gen.Both()
	})
	if corpusErr != nil {
		tb.Fatalf("generating benchmark slice: %v", corpusErr)
	}
	return corpusA4F, corpusAR
}

// candidateStream enumerates up to max type-correct mutation candidates of
// the module, the same way the repair techniques' loops do (the base module
// first, then engine candidates, then conjunct drops).
func candidateStream(mod *ast.Module, max int) []*ast.Module {
	out := []*ast.Module{mod.Clone()}
	eng, err := mutation.NewEngine(mod)
	if err != nil {
		return out
	}
	for _, s := range eng.Sites() {
		for _, c := range eng.Candidates(s, mutation.BudgetRelations) {
			if len(out) >= max {
				return out
			}
			cand, err := eng.Apply(s.Site, c)
			if err != nil {
				continue
			}
			if _, err := types.Check(cand.Clone()); err != nil {
				continue
			}
			out = append(out, cand)
		}
		drops, err := mutation.DropConjunct(eng.Mod, s.Site)
		if err != nil {
			continue
		}
		for _, cand := range drops {
			if len(out) >= max {
				return out
			}
			out = append(out, cand)
		}
	}
	return out
}

// TestIncrementalCorpusDifferential pins incremental ≡ fresh across the
// whole benchmark slice.
func TestIncrementalCorpusDifferential(t *testing.T) {
	a4f, ar := corpusSuites(t)
	const perSpec = 25

	fresh := analyzer.New(analyzer.Options{DisableIncremental: true})
	specs, queries, incremental := 0, 0, 0
	for _, suite := range []*bench.Suite{a4f, ar} {
		for _, spec := range suite.Specs {
			specs++
			inc := analyzer.New(analyzer.Options{})
			ev := inc.Evaluator(types.NewBase(spec.Faulty))
			for i, cand := range candidateStream(spec.Faulty, perSpec) {
				got, gotErr := ev.PassesAll(cand)
				want, wantErr := fresh.PassesAll(cand)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%s/%s candidate %d: error mismatch: incremental=%v fresh=%v",
						suite.Name, spec.Name, i, gotErr, wantErr)
				}
				if got != want {
					t.Fatalf("%s/%s candidate %d: incremental=%v fresh=%v",
						suite.Name, spec.Name, i, got, want)
				}
				queries++
			}
			incremental += int(ev.Stats().Queries)
		}
	}
	if queries == 0 {
		t.Fatal("no candidates were evaluated")
	}
	if incremental == 0 {
		t.Fatal("every query fell back to the fresh path; the incremental layer is dead")
	}
	t.Logf("%d specs, %d candidate verdicts compared (%d answered incrementally)",
		specs, queries, incremental)
}

// BenchmarkIncrementalCandidates measures candidate-evaluation throughput
// (verdicts per second) of the long-lived incremental session against the
// fresh per-candidate path on the same mutation streams over the 1/200
// slice. The incremental arm must be at least ~2x the fresh arm; the gap
// comes from reusing bounds, translation, and learned clauses across the
// stream.
func BenchmarkIncrementalCandidates(b *testing.B) {
	a4f, ar := corpusSuites(b)
	// Repair loops evaluate long candidate streams (BeAFix exhausts whole
	// mutation budgets), so the benchmark replays deeper streams than the
	// differential test to weight the session's steady state, not its
	// warm-up.
	const perSpec = 60

	type stream struct {
		base  *ast.Module
		cands []*ast.Module
	}
	var streams []stream
	total := 0
	for _, suite := range []*bench.Suite{a4f, ar} {
		for _, spec := range suite.Specs {
			s := stream{base: spec.Faulty, cands: candidateStream(spec.Faulty, perSpec)}
			total += len(s.cands)
			streams = append(streams, s)
		}
	}

	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			an := analyzer.New(analyzer.Options{DisableIncremental: true})
			for _, s := range streams {
				for _, cand := range s.cands {
					if _, err := an.PassesAll(cand); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "cand/s")
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			an := analyzer.New(analyzer.Options{})
			for _, s := range streams {
				ev := an.Evaluator(types.NewBase(s.base))
				for _, cand := range s.cands {
					if _, err := ev.PassesAll(cand); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "cand/s")
	})
}

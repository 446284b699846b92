package specrepair

// The benchmark harness regenerates the data behind every table and figure
// of the paper's evaluation on a deterministic 1/200 slice of the corpora
// (full-scale regeneration is cmd/experiments -all), plus ablation
// benchmarks for the design choices called out in DESIGN.md:
//
//	BenchmarkTableI            REP evaluation grid (all 12 techniques)
//	BenchmarkFigure2           TM/SM similarity means
//	BenchmarkFigure3           Pearson correlation matrix
//	BenchmarkTableII           hybrid combinations
//	BenchmarkFigure4           hybrid Venn regions
//	BenchmarkAblationSAT       CDCL vs no-reduce vs no-learning vs naive DPLL
//	BenchmarkAblationPruning   BeAFix with vs without pruning
//	BenchmarkAblationFaultLoc  localized vs exhaustive mutation ordering
//	BenchmarkAblationRounds    Multi-Round REP as rounds grow
//
// plus microbenchmarks of the substrate (parse, translate, solve).

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"specrepair/internal/alloy/parser"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/experiments"
	"specrepair/internal/faultloc"
	"specrepair/internal/llm"
	"specrepair/internal/metrics"
	"specrepair/internal/repair"
	"specrepair/internal/repair/beafix"
	"specrepair/internal/repair/multiround"
	"specrepair/internal/sat"
)

// benchScale divides the corpora for the table/figure benchmarks.
const benchScale = 200

var (
	studyOnce sync.Once
	study     *experiments.Study
	studyErr  error
)

func sliceStudy(b *testing.B) *experiments.Study {
	b.Helper()
	studyOnce.Do(func() {
		study, studyErr = experiments.RunStudy(experiments.Config{Seed: 1, Scale: benchScale})
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return study
}

// BenchmarkTableI regenerates the REP grid of Table I on the benchmark
// slice: all twelve techniques over both suites, scored by
// equisatisfiability against ground truth.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		studyOnce = sync.Once{} // force a fresh evaluation each iteration
		s := sliceStudy(b)
		if len(s.TableI()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure2 regenerates the similarity means of Figure 2 from the
// evaluation grid.
func BenchmarkFigure2(b *testing.B) {
	s := sliceStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Figure2()
		if len(rows) != 12 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFigure3 regenerates the Pearson correlation matrix of Figure 3.
func BenchmarkFigure3(b *testing.B) {
	s := sliceStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		names, matrix, _ := s.Figure3()
		if len(names) != 12 || len(matrix) != 12 {
			b.Fatal("wrong matrix shape")
		}
	}
}

// BenchmarkTableII regenerates the 32 hybrid combinations of Table II.
func BenchmarkTableII(b *testing.B) {
	s := sliceStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.TableII()) != 32 {
			b.Fatal("wrong hybrid count")
		}
	}
}

// BenchmarkFigure4 regenerates the Venn regions of Figure 4.
func BenchmarkFigure4(b *testing.B) {
	s := sliceStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := s.Figure4()
		if len(cells) != 32 {
			b.Fatal("wrong cell count")
		}
	}
}

// BenchmarkStudySliceCache runs the same study slice with the shared
// analysis cache disabled and enabled. The cached leg reports its hit rate
// and the number of actual solver runs ("solves", i.e. cache misses); the
// hit rate must be nonzero — techniques re-validate the same faulty spec
// and near-identical candidates constantly, which is exactly what the cache
// collapses.
func BenchmarkStudySliceCache(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			s, err := experiments.RunStudy(experiments.Config{
				Seed:         1,
				Scale:        benchScale,
				DisableCache: disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !disable {
				stats := s.CacheStats()
				if stats.Hits == 0 {
					b.Fatal("shared cache recorded no hits on the study slice")
				}
				b.ReportMetric(100*stats.HitRate(), "hit%")
				b.ReportMetric(float64(stats.Misses), "solves")
				b.Logf("analysis cache: %s", stats)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, true) })
	b.Run("cached", func(b *testing.B) { run(b, false) })
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// unsatThreeSAT generates a fixed unsatisfiable random 3-SAT instance near
// the phase-transition ratio (seed-pinned; unsatisfiability is asserted by
// the CDCL leg of the benchmark).
func unsatThreeSAT(numVars int) [][]sat.Lit {
	rng := rand.New(rand.NewSource(77))
	numClauses := numVars * 43 / 10
	cnf := make([][]sat.Lit, 0, numClauses)
	for i := 0; i < numClauses; i++ {
		seen := map[int]bool{}
		var cl []sat.Lit
		for len(cl) < 3 {
			v := rng.Intn(numVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			cl = append(cl, sat.MkLit(v, rng.Intn(2) == 0))
		}
		cnf = append(cnf, cl)
	}
	return cnf
}

// BenchmarkAblationSAT compares the full CDCL solver against the
// learning-disabled variant and the naive DPLL reference on a hard UNSAT
// random 3-SAT instance. Clause learning is the decisive ingredient: at 110
// variables the gap to chronological backtracking is an order of magnitude,
// and the naive reference needs a smaller instance to finish at all.
func BenchmarkAblationSAT(b *testing.B) {
	large := unsatThreeSAT(110)
	small := unsatThreeSAT(80)
	b.Run("cdcl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewSolver(sat.Options{})
			for _, cl := range large {
				s.AddClause(cl...)
			}
			if s.Solve() != sat.StatusUnsat {
				b.Fatal("expected UNSAT")
			}
		}
	})
	b.Run("cdcl-noreduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewSolver(sat.Options{DisableReduce: true})
			for _, cl := range large {
				s.AddClause(cl...)
			}
			if s.Solve() != sat.StatusUnsat {
				b.Fatal("expected UNSAT")
			}
		}
	})
	b.Run("no-learning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewSolver(sat.Options{DisableLearning: true})
			for _, cl := range large {
				s.AddClause(cl...)
			}
			if s.Solve() != sat.StatusUnsat {
				b.Fatal("expected UNSAT")
			}
		}
	})
	b.Run("naive-dpll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewNaive()
			for _, cl := range small { // smaller: naive blows up exponentially
				s.AddClause(cl...)
			}
			if st, _ := s.Solve(); st != sat.StatusUnsat {
				b.Fatal("expected UNSAT")
			}
		}
	})
}

const ablationFaultySrc = `
sig Node { next: lone Node, prev: set Node }
fact Wiring {
  all n: Node | n.prev = next.n
  all n: Node | n in n.next
}
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run { some Node } for 3
`

// BenchmarkAblationPruning compares BeAFix's bounded-exhaustive search with
// and without its pruning strategies on the same faulty model.
func BenchmarkAblationPruning(b *testing.B) {
	mod, err := parser.Parse(ablationFaultySrc)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			tool := beafix.New(beafix.Options{DisablePruning: disable})
			out, err := tool.Repair(context.Background(), repair.Problem{Name: "ablation", Faulty: mod.Clone()})
			if err != nil {
				b.Fatal(err)
			}
			if !out.Repaired {
				b.Fatal("expected a repair")
			}
			b.ReportMetric(float64(out.Stats.AnalyzerCalls), "analyzer-calls/op")
		}
	}
	b.Run("pruned", func(b *testing.B) { run(b, false) })
	b.Run("unpruned", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationFaultLoc compares suspiciousness-guided localization
// against scoring-free enumeration of the same sites.
func BenchmarkAblationFaultLoc(b *testing.B) {
	mod, err := parser.Parse(ablationFaultySrc)
	if err != nil {
		b.Fatal(err)
	}
	an := analyzer.New(analyzer.Options{})
	failing, passing, err := faultloc.CollectInstances(an, mod)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("localized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ranked, err := faultloc.Localize(mod, failing, passing)
			if err != nil {
				b.Fatal(err)
			}
			if len(ranked) == 0 || ranked[0].Score == 0 {
				b.Fatal("localization produced no signal")
			}
		}
	})
	b.Run("unranked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The scoring-free baseline still enumerates sites but assigns
			// uniform suspicion (what repair degrades to without faultloc).
			ranked, err := faultloc.Localize(mod, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(ranked) == 0 {
				b.Fatal("no sites")
			}
		}
	})
}

// BenchmarkAblationRounds measures Multi-Round repair capability as the
// round budget grows, on a fixed mini-corpus.
func BenchmarkAblationRounds(b *testing.B) {
	gen := bench.NewGenerator(nil)
	gen.Scale = 400
	suite, err := gen.Alloy4Fun()
	if err != nil {
		b.Fatal(err)
	}
	an := analyzer.New(analyzer.Options{})
	for _, rounds := range []int{1, 2, 4, 8} {
		rounds := rounds
		b.Run(map[int]string{1: "rounds-1", 2: "rounds-2", 4: "rounds-4", 8: "rounds-8"}[rounds], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				repaired := 0
				for _, spec := range suite.Specs {
					tool := multiround.New(multiround.Options{
						Feedback: llm.FeedbackNone,
						Rounds:   rounds,
						Client:   llm.NewSimulatedModel(1),
						Analyzer: an,
					})
					out, err := tool.Repair(context.Background(), spec.Problem())
					if err != nil {
						b.Fatal(err)
					}
					if out.Candidate != nil {
						if rep, _ := metrics.REP(an, spec.GroundTruth, out.Candidate); rep == 1 {
							repaired++
						}
					}
				}
				b.ReportMetric(float64(repaired), "repairs/op")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate microbenchmarks
// ---------------------------------------------------------------------------

func BenchmarkParseModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(ablationFaultySrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeModule(b *testing.B) {
	mod, err := parser.Parse(ablationFaultySrc)
	if err != nil {
		b.Fatal(err)
	}
	an := analyzer.New(analyzer.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.ExecuteAll(mod); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEquisat(b *testing.B) {
	mod, err := parser.Parse(ablationFaultySrc)
	if err != nil {
		b.Fatal(err)
	}
	an := analyzer.New(analyzer.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Equisat(mod, mod); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = core.TechniqueNames // document the registry dependency of the study benches

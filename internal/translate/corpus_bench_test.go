package translate_test

import (
	"fmt"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bench"
	"specrepair/internal/bounds"
	"specrepair/internal/sat"
	"specrepair/internal/translate"
)

// discardSink is a ClauseSink that only counts, so a benchmark over it
// measures the translator and the builder alone.
type discardSink struct{ vars, clauses int }

func (s *discardSink) NewVar() int                    { s.vars++; return s.vars - 1 }
func (s *discardSink) AddClause(lits ...sat.Lit) bool { s.clauses++; return true }
func (s *discardSink) NumVars() int                   { return s.vars }

// corpusScope is one scope of one module: what a fresh analysis session
// translates for the commands sharing that scope.
type corpusScope struct {
	info  *types.Info
	scope ast.Scope
	facts []*ast.Fact
	goals []ast.Expr
	neg   []bool // goals[i] is a check's, encoded negated
}

// corpusScopes returns every scope of the faulty modules of the A4F,
// ARepair and SYN corpora at scale 40, with the goals of its run and check
// commands (runs of predicates with parameters are left out).
func corpusScopes(b *testing.B) []corpusScope {
	b.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 40
	a4f, ar, err := g.Both()
	if err != nil {
		b.Fatal(err)
	}
	syn, err := g.Synthetic()
	if err != nil {
		b.Fatal(err)
	}
	var out []corpusScope
	for _, suite := range []*bench.Suite{a4f, ar, syn} {
		for _, s := range suite.Specs {
			low, info, err := types.Lower(s.Faulty)
			if err != nil {
				b.Fatalf("%s: %v", s.Name, err)
			}
			byScope := map[string]int{}
			for _, cmd := range low.Commands {
				var goal ast.Expr
				switch {
				case cmd.Block != nil:
					goal = cmd.Block
				case cmd.Kind == ast.CmdCheck:
					if as := low.LookupAssert(cmd.Target); as != nil {
						goal = as.Body
					}
				default:
					if p := low.LookupPred(cmd.Target); p != nil && len(p.Params) == 0 {
						goal = p.Body
					}
				}
				key := fmt.Sprint(cmd.Scope)
				i, ok := byScope[key]
				if !ok {
					i = len(out)
					byScope[key] = i
					out = append(out, corpusScope{info: info, scope: cmd.Scope, facts: low.Facts})
				}
				if goal != nil {
					out[i].goals = append(out[i].goals, goal)
					out[i].neg = append(out[i].neg, cmd.Kind == ast.CmdCheck)
				}
			}
		}
	}
	return out
}

// BenchmarkTranslateCorpus times, per op, what fresh analysis sessions do
// before solving over the whole scale-40 corpus: for every scope of every
// faulty module, build its bounds, translate its implicit constraints,
// facts and command goals, and Tseitin-encode them into a sink that only
// counts.
func BenchmarkTranslateCorpus(b *testing.B) {
	scopes := corpusScopes(b)
	b.ReportAllocs()
	b.ResetTimer()
	clauses := 0
	for i := 0; i < b.N; i++ {
		clauses = 0
		for _, sc := range scopes {
			bnd, err := bounds.Build(sc.info, sc.scope)
			if err != nil {
				b.Fatal(err)
			}
			tr := translate.New(sc.info, bnd)
			implicit, err := tr.ImplicitConstraints()
			if err != nil {
				b.Fatal(err)
			}
			parts := []translate.Node{implicit}
			for _, f := range sc.facts {
				n, err := tr.Formula(f.Body)
				if err != nil {
					b.Fatal(err)
				}
				parts = append(parts, n)
			}
			sink := &discardSink{}
			cb := tr.NewCNFBuilder(sink, tr.NumVars())
			cb.AddAssert(tr.And(parts...))
			for j, goal := range sc.goals {
				n, err := tr.Formula(goal)
				if err != nil {
					b.Fatal(err)
				}
				if sc.neg[j] {
					n = translate.Not(n)
				}
				cb.Lit(n)
			}
			clauses += sink.clauses
		}
	}
	b.ReportMetric(float64(len(scopes)), "scopes/op")
	b.ReportMetric(float64(clauses), "clauses/op")
}

package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bounds"
	"specrepair/internal/mutation"
	"specrepair/internal/sat"
	"specrepair/internal/translate"
)

// clauseStreamDigest is the SHA-256 of every variable and clause
// TestClauseStreamPinned's encodings hand their sinks. It moves when
// translation or CNF encoding builds a different circuit or visits it in a
// different order, even where no verdict moves; update it only for a change
// meant to alter the encoding.
const clauseStreamDigest = "7a5cd98cf9fbda7a2d10db937f86fe9b719fefff45fedd502155b5dc3843793a"

// hashSink is a translate.ClauseSink that writes every NewVar and every
// clause's literals into a hash and keeps nothing else.
type hashSink struct {
	h    hash.Hash
	vars int
	buf  []byte
}

func (s *hashSink) NewVar() int {
	s.vars++
	s.h.Write([]byte{'v'})
	return s.vars - 1
}

func (s *hashSink) AddClause(lits ...sat.Lit) bool {
	s.buf = append(s.buf[:0], 'c')
	s.buf = binary.AppendUvarint(s.buf, uint64(len(lits)))
	for _, l := range lits {
		s.buf = binary.AppendUvarint(s.buf, uint64(l))
	}
	s.h.Write(s.buf)
	return true
}

func (s *hashSink) NumVars() int { return s.vars }

// streamScope is one scope's translator and builder, shared by every
// command of that scope as the analyzer shares them.
type streamScope struct {
	tr *translate.Translator
	cb *translate.CNFBuilder
	// gates memoizes the gate literal of each formula text (prefixed by its
	// direction and, for formulas with calls, the candidate's index), as the
	// incremental analyzer reuses a formula's gate across candidates.
	gates map[string]sat.Lit
}

// streamState returns the scope state for sc, building it on first use: the
// scope's bounds and translator, and a builder over h's sink that asserts
// the implicit constraints together with facts (none on the incremental
// path). A scope that fails to build writes its error to h and returns nil.
func streamState(h hash.Hash, byScope map[string]*streamScope, info *types.Info, sc ast.Scope, facts []*ast.Fact) *streamScope {
	key := fmt.Sprintf("%d|%d|%v|%v", sc.Default, sc.Bitwidth, sc.Exact, sc.PerSig)
	if st, ok := byScope[key]; ok {
		return st
	}
	byScope[key] = nil
	b, err := bounds.Build(info, sc)
	if err != nil {
		fmt.Fprintf(h, "bounds error: %v\n", err)
		return nil
	}
	tr := translate.New(info, b)
	implicit, err := tr.ImplicitConstraints()
	if err != nil {
		fmt.Fprintf(h, "implicit error: %v\n", err)
		return nil
	}
	parts := []translate.Node{implicit}
	for _, f := range facts {
		n, err := tr.Formula(f.Body)
		if err != nil {
			fmt.Fprintf(h, "fact error: %v\n", err)
			return nil
		}
		parts = append(parts, n)
	}
	st := &streamScope{tr: tr, cb: tr.NewCNFBuilder(&hashSink{h: h}, tr.NumVars()), gates: map[string]sat.Lit{}}
	st.cb.AddAssert(tr.And(parts...))
	byScope[key] = st
	return st
}

// streamGoal is the formula a command analyzes, built as the analyzer
// builds it: a run of a predicate with parameters quantifies them
// existentially.
func streamGoal(low *ast.Module, cmd *ast.Command) (ast.Expr, error) {
	if cmd.Block != nil {
		return cmd.Block, nil
	}
	if cmd.Kind == ast.CmdCheck {
		as := low.LookupAssert(cmd.Target)
		if as == nil {
			return nil, fmt.Errorf("check target %q not found", cmd.Target)
		}
		return as.Body, nil
	}
	p := low.LookupPred(cmd.Target)
	if p == nil {
		return nil, fmt.Errorf("run target %q not found", cmd.Target)
	}
	if len(p.Params) == 0 {
		return p.Body, nil
	}
	return &ast.Quantified{Quant: ast.QuantSome, Decls: p.Params, Body: p.Body, QuantPos: p.Pos()}, nil
}

// hashFresh encodes mod as a fresh analysis session does: per scope, the
// implicit constraints and facts asserted at once, then each command's goal
// (negated for a check) as a Tseitin literal.
func hashFresh(h hash.Hash, mod *ast.Module) {
	low, info, err := types.Lower(mod)
	if err != nil {
		fmt.Fprintf(h, "lower error: %v\n", err)
		return
	}
	byScope := map[string]*streamScope{}
	for _, cmd := range low.Commands {
		fmt.Fprintf(h, "fresh %s %s\n", cmd.Kind, cmd.Name)
		st := streamState(h, byScope, info, cmd.Scope, low.Facts)
		if st == nil {
			continue
		}
		goal, err := streamGoal(low, cmd)
		if err != nil {
			fmt.Fprintf(h, "goal error: %v\n", err)
			continue
		}
		n, err := st.tr.Formula(goal)
		if err != nil {
			fmt.Fprintf(h, "goal error: %v\n", err)
			continue
		}
		if cmd.Kind == ast.CmdCheck {
			n = translate.Not(n)
		}
		st.cb.Lit(n)
	}
}

// hashIncremental encodes the candidates as an incremental session over
// base does: per scope, only the implicit constraints asserted, and each
// candidate's facts and goals translated with calls resolved in the
// candidate and encoded as one-directional gates (negative for a check).
func hashIncremental(h hash.Hash, base *ast.Module, candidates []*ast.Module) {
	_, info, err := types.Lower(base)
	if err != nil {
		fmt.Fprintf(h, "lower error: %v\n", err)
		return
	}
	byScope := map[string]*streamScope{}
	gate := func(st *streamScope, ci int, low *ast.Module, body ast.Expr, neg bool) {
		key := fmt.Sprintf("%v|%s", neg, printer.Expr(body))
		ast.Walk(body, func(x ast.Expr) bool {
			if _, ok := x.(*ast.Call); ok {
				key = fmt.Sprintf("%d|%s", ci, key)
				return false
			}
			return true
		})
		if _, ok := st.gates[key]; ok {
			return
		}
		st.tr.SetCallModule(low)
		n, err := st.tr.Formula(body)
		st.tr.SetCallModule(nil)
		if err != nil {
			fmt.Fprintf(h, "gate error: %v\n", err)
			return
		}
		st.gates[key] = st.cb.GateLit(n, neg)
	}
	for ci, mod := range candidates {
		low, _, err := types.Lower(mod)
		if err != nil {
			fmt.Fprintf(h, "candidate %d lower error: %v\n", ci, err)
			continue
		}
		for _, cmd := range low.Commands {
			fmt.Fprintf(h, "incremental %d %s %s\n", ci, cmd.Kind, cmd.Name)
			st := streamState(h, byScope, info, cmd.Scope, nil)
			if st == nil {
				continue
			}
			for _, f := range low.Facts {
				gate(st, ci, low, f.Body, false)
			}
			goal, err := streamGoal(low, cmd)
			if err != nil {
				fmt.Fprintf(h, "goal error: %v\n", err)
				continue
			}
			gate(st, ci, low, goal, cmd.Kind == ast.CmdCheck)
		}
	}
}

// TestClauseStreamPinned hashes the exact clause stream of the two ways the
// analyzer encodes a module, over the A4F, ARepair and SYN corpora at scale
// 40: the fresh encoding of every faulty and ground-truth module and of the
// first mutantsPerSpec BudgetTemplates candidates of every faulty module,
// and the incremental gate encoding of each faulty module followed by those
// candidates. Every NewVar and every clause, literal for literal and in
// order, enters the digest.
func TestClauseStreamPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and translates the scale-40 corpora")
	}
	suites, err := scale40Suites()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	modules := 0
	for _, suite := range suites {
		for _, s := range suite.Specs {
			eng, err := mutation.NewEngine(s.Faulty)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			var mutants []*ast.Module
		sites:
			for _, site := range eng.Sites() {
				for _, c := range eng.Candidates(site, mutation.BudgetTemplates) {
					if len(mutants) == mutantsPerSpec {
						break sites
					}
					if got, err := mutation.Apply(eng.Mod, site.Site, c); err == nil {
						mutants = append(mutants, got)
					}
				}
			}
			fmt.Fprintf(h, "spec %s\n", s.Name)
			for _, mod := range append([]*ast.Module{s.Faulty, s.GroundTruth}, mutants...) {
				hashFresh(h, mod)
				modules++
			}
			hashIncremental(h, s.Faulty, append([]*ast.Module{s.Faulty}, mutants...))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != clauseStreamDigest {
		t.Errorf("clause streams of %d modules hash to %s, pinned %s", modules, got, clauseStreamDigest)
	}
}

package analyzer

import (
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/types"
	"specrepair/internal/mutation"
)

// evalSrc is a small faulty spec with the shape repair candidates have: one
// mutated fact against fixed signatures, a failing check, and a run command.
const evalSrc = `
sig Node { next: lone Node }
fact NoLoop { all n: Node | n != n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run {} for 3
`

// TestEvaluatorMatchesFreshOnMutants pins the incremental evaluator to the
// fresh analyzer over a realistic candidate stream: every mutant of the base
// module must get the same PassesAll verdict from both paths.
func TestEvaluatorMatchesFreshOnMutants(t *testing.T) {
	base := mustParse(t, evalSrc)
	inc := New(Options{})
	fresh := New(Options{DisableIncremental: true})

	ev := inc.Evaluator(types.NewBase(base))
	if ev.inc == nil {
		t.Fatal("evaluator did not build an incremental session for an analyzable base")
	}

	eng, err := mutation.NewEngine(base)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	candidates := []*ast.Module{base.Clone()}
	for _, s := range eng.Sites() {
		for _, c := range eng.Candidates(s, mutation.BudgetRelations) {
			cand, err := eng.Apply(s.Site, c)
			if err != nil {
				continue
			}
			if _, err := types.Check(cand.Clone()); err != nil {
				continue
			}
			candidates = append(candidates, cand)
			if len(candidates) >= 60 {
				break
			}
		}
		if len(candidates) >= 60 {
			break
		}
	}
	if len(candidates) < 10 {
		t.Fatalf("only %d candidates generated; mutation engine too weak for this test", len(candidates))
	}

	for i, cand := range candidates {
		got, gotErr := ev.PassesAll(cand)
		want, wantErr := fresh.PassesAll(cand)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("candidate %d: error mismatch: incremental=%v fresh=%v", i, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("candidate %d: incremental=%v fresh=%v", i, got, want)
		}
	}
	st := ev.Stats()
	if st.Queries == 0 {
		t.Errorf("no candidate was answered incrementally: stats=%+v", st)
	}
	t.Logf("stats over %d candidates: %+v", len(candidates), st)
}

// TestEvaluatorFallsBackOnSigChange pins the bounds-safety fallback: a
// candidate whose signature paragraphs differ from the base must be answered
// on the fresh path (different bounds and relation-variable layout), and the
// verdict must still match a fresh analyzer.
func TestEvaluatorFallsBackOnSigChange(t *testing.T) {
	base := mustParse(t, evalSrc)
	an := New(Options{})
	ev := an.Evaluator(types.NewBase(base))

	cand := mustParse(t, `
sig Node { next: lone Node, prev: lone Node }
fact NoLoop { all n: Node | n != n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run {} for 3
`)
	got, err := ev.PassesAll(cand)
	if err != nil {
		t.Fatalf("PassesAll: %v", err)
	}
	want, err := New(Options{DisableIncremental: true}).PassesAll(cand)
	if err != nil {
		t.Fatalf("fresh PassesAll: %v", err)
	}
	if got != want {
		t.Fatalf("incremental=%v fresh=%v", got, want)
	}
	if st := ev.Stats(); st.Fallbacks != 1 || st.Queries != 0 {
		t.Errorf("sig-changed candidate should fall back exactly once, got %+v", st)
	}
}

// TestEvaluatorCallEnvironment pins the pred-inlining hazard: two candidates
// whose fact text is identical but whose called predicate bodies differ must
// get distinct gates (and distinct verdicts where the semantics differ).
func TestEvaluatorCallEnvironment(t *testing.T) {
	src := func(predBody string) string {
		return `
sig Node { next: lone Node }
pred ok { ` + predBody + ` }
fact Invariant { ok[] }
run {} for 3
`
	}
	base := mustParse(t, src("no next"))
	an := New(Options{})
	fresh := New(Options{DisableIncremental: true})
	ev := an.Evaluator(types.NewBase(base))

	// Candidate A keeps the base's pred text: satisfiable (empty next).
	// Candidate B's pred is contradictory, so the run command fails —
	// with identical fact text ("ok") in both candidates. Each is a copy
	// of the base's header with its own pred swapped in, as mutation.Apply
	// builds a candidate, so both share the base's signatures.
	withPreds := func(from *ast.Module) *ast.Module {
		m := *base
		m.Preds = from.Preds
		return &m
	}
	candA := withPreds(mustParse(t, src("no next")))
	candB := withPreds(mustParse(t, src("some next and no next")))

	for i, cand := range []*ast.Module{candA, candB} {
		got, gotErr := ev.PassesAll(cand)
		want, wantErr := fresh.PassesAll(cand)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("candidate %d: error mismatch: incremental=%v fresh=%v", i, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("candidate %d: incremental=%v fresh=%v (stale pred inlining?)", i, got, want)
		}
	}
	// Both were answered by the session, whose gate keys then carry the
	// call environment.
	if st := ev.Stats(); st.Queries != 2 {
		t.Errorf("candidates sharing the base's signatures should be answered incrementally, got %+v", st)
	}
	gotA, _ := ev.PassesAll(candA)
	gotB, _ := ev.PassesAll(candB)
	if gotA == gotB {
		t.Fatalf("candidates with different pred bodies got the same verdict %v; call-environment fingerprint broken", gotA)
	}
}

// TestEvaluatorRebuildWindow pins the solver-rebuild path: with a tiny gate
// window the session rebuilds its scope solvers every couple of candidates,
// and verdicts must stay identical to the fresh path across rebuilds.
func TestEvaluatorRebuildWindow(t *testing.T) {
	old := gateWindow
	gateWindow = 2
	defer func() { gateWindow = old }()

	base := mustParse(t, evalSrc)
	inc := New(Options{})
	fresh := New(Options{DisableIncremental: true})
	ev := inc.Evaluator(types.NewBase(base))

	eng, err := mutation.NewEngine(base)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	n := 0
	for _, s := range eng.Sites() {
		for _, c := range eng.Candidates(s, mutation.BudgetRelations) {
			cand, err := eng.Apply(s.Site, c)
			if err != nil {
				continue
			}
			if _, err := types.Check(cand.Clone()); err != nil {
				continue
			}
			got, gotErr := ev.PassesAll(cand)
			want, wantErr := fresh.PassesAll(cand)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("candidate %d: error mismatch: incremental=%v fresh=%v", n, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("candidate %d: incremental=%v fresh=%v", n, got, want)
			}
			n++
			if n >= 20 {
				break
			}
		}
		if n >= 20 {
			break
		}
	}
	if n < 8 {
		t.Fatalf("only %d candidates evaluated; not enough to cross the rebuild window", n)
	}
	if st := ev.Stats(); st.Queries == 0 {
		t.Errorf("no incremental queries recorded: %+v", st)
	}
}

// TestEvaluatorDisabled pins the -noincremental contract: with the option
// set, no session is built and verdicts still match.
func TestEvaluatorDisabled(t *testing.T) {
	base := mustParse(t, evalSrc)
	an := New(Options{DisableIncremental: true})
	ev := an.Evaluator(types.NewBase(base))
	if ev.inc != nil {
		t.Fatal("DisableIncremental evaluator built an incremental session")
	}
	got, err := ev.PassesAll(base)
	if err != nil {
		t.Fatalf("PassesAll: %v", err)
	}
	want, err := New(Options{}).PassesAll(base)
	if err != nil {
		t.Fatalf("fresh PassesAll: %v", err)
	}
	if got != want {
		t.Fatalf("disabled evaluator=%v fresh=%v", got, want)
	}
	if st := ev.Stats(); st.Queries != 0 {
		t.Errorf("disabled evaluator recorded incremental queries: %+v", st)
	}
}

// TestEvaluatorSignatureFacts pins the one-root rule on a spec with an
// appended signature fact: the engine's candidates carry its desugared
// signatures, which are the root module's when the evaluator is rooted at
// the engine's base, so the session answers every one of them, each with
// the fresh analyzer's verdict.
func TestEvaluatorSignatureFacts(t *testing.T) {
	mod := mustParse(t, `
sig Node { next: lone Node } { this not in next }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
`)
	eng, err := mutation.NewEngine(mod)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ev := New(Options{}).Evaluator(eng.Base())
	fresh := New(Options{})
	n := 0
	for _, s := range eng.Sites() {
		for _, c := range eng.Candidates(s, mutation.BudgetRelations) {
			cand, err := eng.Apply(s.Site, c)
			if err != nil {
				continue
			}
			got, gotErr := ev.PassesAll(cand)
			want, wantErr := fresh.PassesAll(cand)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("candidate %d: incremental error %v, fresh error %v", n, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("candidate %d: incremental=%v fresh=%v", n, got, want)
			}
			n++
		}
	}
	if st := ev.Stats(); n != 28 || st != (EvaluatorStats{Queries: 28}) {
		t.Errorf("%d candidates gave %+v, want 28 candidates all answered incrementally", n, st)
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/aunit"
	"specrepair/internal/bench"
	"specrepair/internal/telemetry"
)

// faultySrc is the canonical fixable fixture: the fact contradicts the
// assertion, and BeAFix's bounded mutation search repairs it quickly.
const faultySrc = `
sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run { some Node } for 3
`

// hardSrc is still repairable but an order of magnitude more expensive
// (scope 6, two relations, three commands — tens of milliseconds per job
// instead of microseconds), which the kill/restart and deadline tests need
// so the worker pool cannot race through the whole queue instantly.
const hardSrc = `
sig Node { next: lone Node, prev: lone Node }
fact Links { all n: Node | n in n.next }
fact Back { all n: Node | n.next.prev = n }
assert NoSelf { no n: Node | n in n.next }
assert Sym { all n: Node | n.prev.next = n }
check NoSelf for 6
check Sym for 6
run { some Node } for 6
`

func newService(t *testing.T, opt Options) *Service {
	t.Helper()
	svc, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func waitDone(t *testing.T, svc *Service, id string) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	snap, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return snap
}

func TestSubmitRunFetch(t *testing.T) {
	svc := newService(t, Options{})
	snap, dup, err := svc.Submit(Submission{Spec: faultySrc, Technique: "BeAFix"})
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatal("first submission reported as duplicate")
	}
	snap = waitDone(t, svc, snap.ID)
	if snap.State != StateDone || !snap.Repaired {
		t.Fatalf("job ended state=%s repaired=%v error=%q", snap.State, snap.Repaired, snap.Error)
	}
	result, _, ok := svc.Result(snap.ID)
	if !ok || result == "" {
		t.Fatalf("no result for done job %s", snap.ID)
	}
	if _, err := parser.Parse(result); err != nil {
		t.Fatalf("repaired spec does not parse: %v", err)
	}
}

// refusedSubmissions are invalid requests, one per check Submit makes
// before it looks at the tests' contents.
var refusedSubmissions = []Submission{
	{Spec: faultySrc},                                                  // no technique
	{Spec: faultySrc, Technique: "NoSuchTool"},                         // unknown technique
	{Spec: "sig {", Technique: "BeAFix"},                               // unparsable spec
	{Spec: faultySrc, Technique: "BeAFix", TimeoutMs: -5},              // negative timeout
	{Spec: faultySrc, Technique: "ARepair", Tests: []*aunit.Test{nil}}, // null test
}

// malformedValuations pairs test valuations over faultySrc that Submit must
// refuse with the problems its error must name.
var malformedValuations = []struct {
	val  map[string][][]string
	want []string
}{
	{map[string][][]string{"Node": {{}}}, []string{"Node tuple 0 is empty"}},
	{map[string][][]string{"Node": {{"N0"}, {"N0", "N1"}}}, []string{"Node tuple 1 has 2 atoms, but Node has arity 1"}},
	{map[string][][]string{"next": {{"N0"}}}, []string{"next tuple 0 has 1 atoms, but next has arity 2"}},
	{map[string][][]string{"next'": {{"N0", "N1", "N0"}}}, []string{"next' tuple 0 has 3 atoms, but next' has arity 2"}},
	{map[string][][]string{"$x": {{}, {"N0", "N1"}, {"N0"}}}, []string{"$x tuple 0 is empty", "$x tuple 2 has 1 atoms, but tuple 1 has 2"}},
	{map[string][][]string{"Node": {{"N0"}, {}}, "next": {{"N0", "N0"}, {"N0"}}}, []string{"Node tuple 1 is empty", "next tuple 1 has 1 atoms"}},
	{map[string][][]string{"Node": {{"N0"}}, "$y": {{"N0", "N1"}}, "prev'": {}}, []string{"$y names no sig or field", "prev' names no sig or field"}},
}

// unrunnableFormulas cannot run against faultySrc: the first does not
// parse, the second names a relation the spec lacks, and the third takes
// the closure of a set, an evaluation error.
var unrunnableFormulas = []string{"some n: Node |", "some Foo", "some *Node"}

// valuationTest asserts "some Node" under val.
func valuationTest(val map[string][][]string) *aunit.Test {
	return &aunit.Test{Name: "t", Formula: "some Node", Expect: true, Valuation: val}
}

// formulaTest asserts formula under a one-node valuation.
func formulaTest(formula string) *aunit.Test {
	return &aunit.Test{Name: "f", Formula: formula, Expect: true, Valuation: map[string][][]string{"Node": {{"N0"}}}}
}

// admittedSubmission holds well-formed valuations, empty and primed
// relations included.
func admittedSubmission() Submission {
	return Submission{Spec: faultySrc, Technique: "ARepair", Tests: []*aunit.Test{
		valuationTest(map[string][][]string{"Node": {{"N0"}, {"N1"}}, "next": {{"N0", "N1"}}}),
		valuationTest(map[string][][]string{"Node": {}, "next": nil, "next'": {{"N0", "N1"}, {"N1", "N0"}}}),
	}}
}

func TestSubmitValidation(t *testing.T) {
	svc := newService(t, Options{})
	for i, sub := range refusedSubmissions {
		if _, _, err := svc.Submit(sub); err == nil {
			t.Errorf("case %d: invalid submission admitted", i)
		}
	}

	// Malformed valuations would make the technique fail on every run,
	// restarts included; the error names every problem found.
	good := valuationTest(map[string][][]string{"Node": {{"N0"}}})
	for _, c := range malformedValuations {
		sub := Submission{Spec: faultySrc, Technique: "ARepair", Tests: []*aunit.Test{good, valuationTest(c.val)}}
		_, _, err := svc.Submit(sub)
		if err == nil {
			t.Errorf("valuation %v admitted", c.val)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), "test 1: "+w) {
				t.Errorf("valuation %v: error %q does not name %q", c.val, err, "test 1: "+w)
			}
		}
	}

	// A test that cannot run against the spec would end the job "done, not
	// repaired"; every such test is named.
	all := []*aunit.Test{good}
	cases := [][]*aunit.Test{}
	for _, f := range unrunnableFormulas {
		all = append(all, formulaTest(f))
		cases = append(cases, []*aunit.Test{good, formulaTest(f)})
	}
	for _, tests := range append(cases, all) {
		_, _, err := svc.Submit(Submission{Spec: faultySrc, Technique: "ARepair", Tests: tests})
		if err == nil {
			t.Errorf("tests %q admitted", tests[len(tests)-1].Formula)
			continue
		}
		for i := range tests {
			if named := strings.Contains(err.Error(), fmt.Sprintf("test %d: ", i)); named != (i > 0) {
				t.Errorf("error %q names test %d: %v, want %v", err, i, named, i > 0)
			}
		}
	}

	if _, _, err := svc.Submit(admittedSubmission()); err != nil {
		t.Fatalf("well-formed valuations refused: %v", err)
	}
}

// Every benchmark spec's own AUnit tests run against it, so the validation
// that refuses tests which cannot run admits all of them. The service
// drains first: Submit then answers ErrDraining exactly for a submission
// that passed validation, and runs no job.
func TestSubmitAdmitsBenchmarkTests(t *testing.T) {
	svc := newService(t, Options{})
	svc.beginDrain()
	gen := bench.NewGenerator(nil)
	gen.Scale = 40
	a4f, arepair, err := gen.Both()
	if err != nil {
		t.Fatal(err)
	}
	syn, err := gen.Synthetic()
	if err != nil {
		t.Fatal(err)
	}
	tests := 0
	for _, suite := range []*bench.Suite{a4f, arepair, syn} {
		for _, sp := range suite.Specs {
			sub := Submission{Spec: printer.Module(sp.Faulty), Technique: "ARepair", Tests: sp.Tests.Tests}
			if _, _, err := svc.Submit(sub); !errors.Is(err, ErrDraining) {
				t.Errorf("%s %s: own tests refused: %v", suite.Name, sp.Name, err)
			}
			tests += len(sub.Tests)
		}
	}
	if tests == 0 {
		t.Fatal("no benchmark tests submitted")
	}
}

// A duplicate submission must alias the existing job — same ID, no second
// execution — and the shared analysis cache must serve repeated analyses
// across distinct jobs on the same spec.
func TestDuplicateAliasesAndCacheShares(t *testing.T) {
	svc := newService(t, Options{})
	first, dup, err := svc.Submit(Submission{Spec: faultySrc, Technique: "BeAFix"})
	if err != nil || dup {
		t.Fatalf("first submit: dup=%v err=%v", dup, err)
	}
	waitDone(t, svc, first.ID)

	// Same content, different surface syntax: extra whitespace collapses
	// under canonical printing, so this is the same job.
	second, dup, err := svc.Submit(Submission{Spec: faultySrc + "\n\n", Technique: "BeAFix"})
	if err != nil {
		t.Fatal(err)
	}
	if !dup || second.ID != first.ID {
		t.Fatalf("duplicate not aliased: dup=%v id=%s want %s", dup, second.ID, first.ID)
	}
	if second.State != StateDone {
		t.Fatalf("aliased duplicate of a finished job reports %s", second.State)
	}

	// A different seed is a different job on the same spec — its analyses
	// should hit the multi-tenant cache warmed by the first job.
	before := svc.Cache().Stats().Hits
	third, dup, err := svc.Submit(Submission{Spec: faultySrc, Technique: "BeAFix", Seed: 99})
	if err != nil || dup {
		t.Fatalf("distinct-seed submit: dup=%v err=%v", dup, err)
	}
	if third.ID == first.ID {
		t.Fatal("distinct seed content-addressed to the same job")
	}
	waitDone(t, svc, third.ID)
	if hits := svc.Cache().Stats().Hits; hits <= before {
		t.Fatalf("shared cache hits did not grow across jobs: before=%d after=%d", before, hits)
	}

	st := svc.Stats()
	if st.Deduped != 1 || st.Submitted != 2 {
		t.Fatalf("stats submitted=%d deduplicated=%d, want 2 and 1", st.Submitted, st.Deduped)
	}
}

// Admission control: with a full queue and busy workers, the next submission
// is rejected with ErrQueueFull and nothing is journaled for it.
func TestQueueFullRejects(t *testing.T) {
	svc := newService(t, Options{QueueDepth: 2, Workers: 1})
	// Distinct seeds make distinct jobs; keep submitting until admission
	// pushes back. With depth 2 and hardSrc jobs taking tens of milliseconds,
	// the rejection arrives within the first handful of submissions.
	var accepted int
	var rejected bool
	for seed := int64(1); seed <= 20; seed++ {
		_, _, err := svc.Submit(Submission{Spec: hardSrc, Technique: "BeAFix", Seed: seed})
		if errors.Is(err, ErrQueueFull) {
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	if !rejected {
		t.Fatal("queue never rejected past its depth")
	}
	if accepted < 2 {
		t.Fatalf("only %d submissions admitted before rejection, depth is 2", accepted)
	}
	if svc.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

// Kill-and-restart: hard-stop a service mid-run, reopen the same journal,
// and every accepted job must reach the same terminal result it would have
// reached uninterrupted.
func TestKillAndRestartResumes(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	seeds := []int64{1, 2, 3, 4}

	// Reference run: uninterrupted results per job ID.
	ref := newService(t, Options{})
	want := make(map[string]string)
	for _, seed := range seeds {
		snap, _, err := ref.Submit(Submission{Spec: hardSrc, Technique: "BeAFix", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		snap = waitDone(t, ref, snap.ID)
		result, _, _ := ref.Result(snap.ID)
		if snap.State != StateDone || result == "" {
			t.Fatalf("reference job %s: state=%s", snap.ID, snap.State)
		}
		want[snap.ID] = result
	}

	// Interrupted run: submit everything, let the first finish, then kill
	// while the single worker is still grinding through the rest.
	svc, err := New(Options{Journal: journal, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(seeds))
	for _, seed := range seeds {
		snap, _, err := svc.Submit(Submission{Spec: hardSrc, Technique: "BeAFix", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	waitDone(t, svc, ids[0])
	if err := svc.Close(); err != nil {
		t.Fatalf("hard close: %v", err)
	}

	// Restart on the same journal: the unfinished jobs must be re-queued and
	// run to the same results.
	svc2 := newService(t, Options{Journal: journal})
	if got := svc2.Stats().Resumed; got == 0 {
		t.Fatal("restart resumed no jobs")
	}
	for _, id := range ids {
		snap := waitDone(t, svc2, id)
		if snap.State != StateDone {
			t.Fatalf("resumed job %s ended %s (%s)", id, snap.State, snap.Error)
		}
		result, _, _ := svc2.Result(id)
		if result != want[id] {
			t.Fatalf("resumed job %s result diverged from uninterrupted run", id)
		}
	}
}

// Draining: submissions are refused with ErrDraining, in-flight jobs finish,
// and queued jobs stay journaled for the next start instead of running.
func TestDrainRefusesAndPreservesQueue(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	svc, err := New(Options{Journal: journal, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		snap, _, err := svc.Submit(Submission{Spec: faultySrc, Technique: "BeAFix", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	waitDone(t, svc, ids[0])
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := svc.Submit(Submission{Spec: faultySrc, Technique: "BeAFix", Seed: 9}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	st := svc.Stats()
	if st.Running != 0 {
		t.Fatalf("drain left %d jobs running", st.Running)
	}
	if st.Queued+st.Done != len(ids) {
		t.Fatalf("drain lost jobs: queued=%d done=%d of %d", st.Queued, st.Done, len(ids))
	}

	// The queued remainder resumes on the next start.
	svc2 := newService(t, Options{Journal: journal})
	for _, id := range ids {
		if snap := waitDone(t, svc2, id); snap.State != StateDone {
			t.Fatalf("post-drain job %s ended %s", id, snap.State)
		}
	}
}

// A submission deadline must fail the job with a deadline error, not hang.
func TestPerJobTimeout(t *testing.T) {
	svc := newService(t, Options{})
	snap, _, err := svc.Submit(Submission{
		Spec: hardSrc, Technique: "BeAFix", TimeoutMs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap = waitDone(t, svc, snap.ID)
	if snap.State != StateFailed {
		t.Fatalf("1ms job ended %s, want failed", snap.State)
	}
}

// A fired submission deadline is a timeout on the service's registry, the
// same fault counter a study run bumps.
func TestPerJobTimeoutCounted(t *testing.T) {
	reg := telemetry.New()
	svc := newService(t, Options{Telemetry: reg})
	snap, _, err := svc.Submit(Submission{
		Spec: hardSrc, Technique: "BeAFix", TimeoutMs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap = waitDone(t, svc, snap.ID); snap.State != StateFailed {
		t.Fatalf("1ms job ended %s, want failed", snap.State)
	}
	if got := reg.CounterValue(telemetry.CtrJobTimeouts); got != 1 {
		t.Errorf("%s = %d, want 1 (job error: %s)", telemetry.CtrJobTimeouts, got, snap.Error)
	}
}

// Concurrent identical submissions must all resolve to one job — the
// journal-before-index admission path cannot double-admit under contention.
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	svc := newService(t, Options{Telemetry: telemetry.New()})
	const callers = 16
	ids := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, _, err := svc.Submit(Submission{Spec: faultySrc, Technique: "BeAFix"})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			ids[i] = snap.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("caller %d got job %s, caller 0 got %s", i, ids[i], ids[0])
		}
	}
	st := svc.Stats()
	if st.Submitted != 1 || st.Deduped != callers-1 {
		t.Fatalf("submitted=%d deduplicated=%d, want 1 and %d", st.Submitted, st.Deduped, callers-1)
	}
}

// Restart must report the original admission and finish times, not the
// restart time: the journal carries both and replay restores them.
func TestRestartPreservesTimestamps(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	svc, err := New(Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := svc.Submit(Submission{Spec: faultySrc, Technique: "BeAFix"})
	if err != nil {
		t.Fatal(err)
	}
	snap = waitDone(t, svc, snap.ID)
	if snap.FinishedAt == nil {
		t.Fatal("terminal job has no FinishedAt")
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	svc2 := newService(t, Options{Journal: journal})
	got, ok := svc2.Job(snap.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", snap.ID)
	}
	if !got.CreatedAt.Equal(snap.CreatedAt) {
		t.Errorf("CreatedAt %v after restart, want %v", got.CreatedAt, snap.CreatedAt)
	}
	if got.FinishedAt == nil || !got.FinishedAt.Equal(*snap.FinishedAt) {
		t.Errorf("FinishedAt %v after restart, want %v", got.FinishedAt, snap.FinishedAt)
	}
}

// A crash mid-append leaves a torn final line. The next start must not only
// drop it but remove it from the file: before the truncation fix, the first
// post-crash submission concatenated onto the torn tail and every start
// after that failed with "corrupt journal".
func TestResumeAfterTornJournalTail(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	svc, err := New(Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := svc.Submit(Submission{Spec: faultySrc, Technique: "BeAFix"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, snap.ID)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Simulate the crash: a submit record cut off mid-append.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"submit","id":"jdead`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// First restart drops (and truncates) the torn tail, then appends.
	svc2, err := New(Options{Journal: journal})
	if err != nil {
		t.Fatalf("restart on torn journal: %v", err)
	}
	if _, ok := svc2.Job("jdead"); ok {
		t.Fatal("torn submit record should not have loaded")
	}
	snap2, _, err := svc2.Submit(Submission{Spec: hardSrc, Technique: "BeAFix"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc2, snap2.ID)
	if err := svc2.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Second restart is the regression: the post-crash append must load.
	svc3, err := New(Options{Journal: journal})
	if err != nil {
		t.Fatalf("journal corrupt after post-crash append: %v", err)
	}
	defer svc3.Close()
	for _, id := range []string{snap.ID, snap2.ID} {
		got, ok := svc3.Job(id)
		if !ok || got.State != StateDone {
			t.Fatalf("job %s after second restart: ok=%v state=%v", id, ok, got.State)
		}
	}
}

// untypedSpecs parse but do not type-check: the first names a field the
// spec lacks, the third calls a predicate with too many arguments, and the
// second does both.
var untypedSpecs = []string{`
sig Node { next: lone Node }
fact Links { all n: Node | n in n.nxt }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
`, `
sig Node { next: lone Node }
pred self[n: Node] { n in n.next }
fact Links { all n: Node | self[n, n] and n in n.nxt }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
`, `
sig Node { next: lone Node }
pred self[n: Node] { n in n.next }
fact Links { all n: Node | self[n, n] }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
`}

// A spec that does not type-check is admitted and fails in the technique,
// and the job reports the technique's error text.
func TestUntypedSpecFailsWithCheckError(t *testing.T) {
	svc := newService(t, Options{})
	tests := []*aunit.Test{formulaTest("no Node")}
	for i, want := range []map[string]string{{
		"ARepair": "3:35: unresolved name \"nxt\"\n3:33: join of arity 1 and 1 underflows",
		"ICEBAR":  "analyzing: 3:35: unresolved name \"nxt\"\n3:33: join of arity 1 and 1 underflows",
		"BeAFix":  "analyzing: 3:35: unresolved name \"nxt\"\n3:33: join of arity 1 and 1 underflows",
		"ATR":     "analyzing: 3:35: unresolved name \"nxt\"\n3:33: join of arity 1 and 1 underflows",
	}, {
		"ARepair": "4:28: self expects 1 arguments, got 2\n4:50: unresolved name \"nxt\"\n4:48: join of arity 1 and 1 underflows",
		"ICEBAR":  "analyzing: 4:28: self expects 1 arguments, got 2\n4:50: unresolved name \"nxt\"\n4:48: join of arity 1 and 1 underflows",
		"BeAFix":  "analyzing: 4:28: self expects 1 arguments, got 2\n4:50: unresolved name \"nxt\"\n4:48: join of arity 1 and 1 underflows",
		"ATR":     "analyzing: 4:28: self expects 1 arguments, got 2\n4:50: unresolved name \"nxt\"\n4:48: join of arity 1 and 1 underflows",
	}, {
		"ARepair": "4:28: self expects 1 arguments, got 2",
		"ICEBAR":  "analyzing: 4:28: self expects 1 arguments, got 2",
		"BeAFix":  "analyzing: 4:28: self expects 1 arguments, got 2",
		"ATR":     "analyzing: 4:28: self expects 1 arguments, got 2",
	}} {
		for _, technique := range []string{"ARepair", "ICEBAR", "BeAFix", "ATR"} {
			snap, _, err := svc.Submit(Submission{Spec: untypedSpecs[i], Technique: technique, Tests: tests})
			if err != nil {
				t.Fatalf("spec %d, %s: %v", i, technique, err)
			}
			snap = waitDone(t, svc, snap.ID)
			if snap.State != StateFailed || snap.Error != want[technique] {
				t.Errorf("spec %d, %s: job ended %s with error %q, want failed with %q", i, technique, snap.State, snap.Error, want[technique])
			}
		}
	}
}

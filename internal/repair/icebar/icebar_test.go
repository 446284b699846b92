package icebar_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
	"specrepair/internal/repair/icebar"
)

// scale40Spec returns the named entry of the scale-40 A4F, ARepair or SYN
// corpus.
func scale40Spec(t *testing.T, g *bench.Generator, name string) *bench.Spec {
	t.Helper()
	for _, gen := range []func() (*bench.Suite, error){g.Alloy4Fun, g.ARepair, g.Synthetic} {
		suite, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range suite.Specs {
			if sp.Name == name {
				return sp
			}
		}
	}
	t.Fatalf("no scale-40 benchmark entry %q", name)
	return nil
}

// TestRepairPinned pins ICEBAR's outcome and effort on fixed benchmark
// entries (A4F, ARepair, and a SYN one the refinement loop gives up on):
// whether it repaired, a digest of the printed final candidate with the
// lines it changed, the inner candidates tried and the oracle calls. A
// change to how candidates are built, judged or refined must not move any
// of them.
func TestRepairPinned(t *testing.T) {
	g := bench.NewGenerator(nil)
	g.Scale = 40
	for _, tc := range []struct {
		spec         string
		repaired     bool
		tried, calls int
		digest, edit string
	}{
		{"classroom/0003", true, 85, 1, "ede5f0bb16651b00", "all s: Person | some s.tutors implies some s.mentor"},
		{"arr/0000", true, 33, 1, "445cdb4cd57b1652", "all i: Index | some Element.at or some i.at"},
		{"library/0006", false, 107, 2, "0ceb06ba2e9c9ed7", "lone b: Book | Book in Library.archived implies no b.heldBy\nall m: Member, b: Book | b in m.waitlist implies some heldBy.b"},
	} {
		sp := scale40Spec(t, g, tc.spec)
		out, err := icebar.New(icebar.Options{}).Repair(context.Background(), sp.Problem())
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		digest, edit := "", ""
		if out.Candidate != nil {
			digest, edit = candidateDiff(printer.Module(sp.Faulty), printer.Module(out.Candidate))
		}
		if out.Repaired != tc.repaired || out.Stats.CandidatesTried != tc.tried || out.Stats.AnalyzerCalls != tc.calls ||
			digest != tc.digest || edit != tc.edit {
			t.Errorf("%s: repaired %v, tried %d, calls %d, candidate %s %q; want %v, %d, %d, %s %q",
				tc.spec, out.Repaired, out.Stats.CandidatesTried, out.Stats.AnalyzerCalls, digest, edit,
				tc.repaired, tc.tried, tc.calls, tc.digest, tc.edit)
		}
	}
}

// TestRepairLeavesFaultyUnchanged: refining the suite runs witness
// commands on header copies of the spec, so the faulty module the problem
// hands in prints the same afterwards.
func TestRepairLeavesFaultyUnchanged(t *testing.T) {
	g := bench.NewGenerator(nil)
	g.Scale = 40
	p := scale40Spec(t, g, "library/0006").Problem()
	before := printer.Module(p.Faulty)
	if _, err := icebar.New(icebar.Options{}).Repair(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if after := printer.Module(p.Faulty); after != before {
		t.Errorf("faulty spec changed:\n%s\nwant:\n%s", after, before)
	}
}

// candidateDiff returns the first 16 hex digits of the candidate's SHA-256
// and the trimmed candidate lines the faulty spec does not contain.
func candidateDiff(faulty, cand string) (string, string) {
	orig := map[string]bool{}
	for _, l := range strings.Split(faulty, "\n") {
		orig[l] = true
	}
	var edit []string
	for _, l := range strings.Split(cand, "\n") {
		if !orig[l] {
			edit = append(edit, strings.TrimSpace(l))
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(cand)))[:16], strings.Join(edit, "\n")
}

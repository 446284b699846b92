package multiround_test

import (
	"context"
	"testing"

	"specrepair/internal/bench"
	"specrepair/internal/llm"
	"specrepair/internal/repair/multiround"
)

// pinnedSpecs returns one A4F and one ARepair spec of the scale-400 corpus.
func pinnedSpecs(t *testing.T) []*bench.Spec {
	t.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 400
	a4f, ar, err := g.Both()
	if err != nil {
		t.Fatal(err)
	}
	var out []*bench.Spec
	for _, want := range []struct {
		suite *bench.Suite
		name  string
	}{
		{a4f, "cv/0000"}, {ar, "balancedBSt/0000"},
	} {
		for _, sp := range want.suite.Specs {
			if sp.Name == want.name {
				out = append(out, sp)
			}
		}
	}
	if len(out) != 2 {
		t.Fatalf("pinned specs missing: found %d of 2", len(out))
	}
	return out
}

// TestPinnedOutcomes pins the study configuration's outcome and effort on
// two specs under each feedback kind. One tool (and so one model) serves
// both specs in turn, as a study worker does.
func TestPinnedOutcomes(t *testing.T) {
	type pin struct {
		repaired                    bool
		iterations, tried, anaCalls int
	}
	want := map[llm.FeedbackKind][2]pin{
		llm.FeedbackNone:    {{true, 9, 9, 9}, {false, 12, 12, 12}},
		llm.FeedbackGeneric: {{true, 7, 7, 7}, {true, 9, 9, 9}},
		llm.FeedbackAuto:    {{false, 12, 12, 12}, {true, 9, 9, 9}},
	}
	specs := pinnedSpecs(t)
	for _, fb := range []llm.FeedbackKind{llm.FeedbackNone, llm.FeedbackGeneric, llm.FeedbackAuto} {
		tool := multiround.New(multiround.Options{Feedback: fb, Client: llm.NewSimulatedModel(1)})
		for i, sp := range specs {
			out, err := tool.Repair(context.Background(), sp.Problem())
			if err != nil {
				t.Fatalf("%s %s: %v", tool.Name(), sp.Name, err)
			}
			got := pin{out.Repaired, out.Stats.Iterations, out.Stats.CandidatesTried, out.Stats.AnalyzerCalls}
			if got != want[fb][i] {
				t.Errorf("%s %s: got %+v, want %+v", tool.Name(), sp.Name, got, want[fb][i])
			}
		}
	}
}

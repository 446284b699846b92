package singleround_test

import (
	"context"
	"testing"

	"specrepair/internal/bench"
	"specrepair/internal/llm"
	"specrepair/internal/repair/singleround"
)

// TestPinnedOutcomes pins the Loc+Fix setting's outcome and effort on one
// A4F and one ARepair spec of the scale-400 corpus, served in turn by one
// tool as a study worker does.
func TestPinnedOutcomes(t *testing.T) {
	g := bench.NewGenerator(nil)
	g.Scale = 400
	a4f, ar, err := g.Both()
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		repaired                    bool
		iterations, tried, anaCalls int
	}
	cases := []struct {
		suite *bench.Suite
		name  string
		want  pin
	}{
		{a4f, "cv/0000", pin{true, 1, 1, 1}},
		{ar, "balancedBSt/0000", pin{true, 1, 1, 1}},
		{ar, "ctree/0000", pin{false, 1, 1, 0}}, // the reply does not parse
	}
	tool := singleround.New(singleround.Options{Setting: singleround.SettingLocFix, Client: llm.NewSimulatedModel(1)})
	for _, c := range cases {
		var found bool
		for _, sp := range c.suite.Specs {
			if sp.Name != c.name {
				continue
			}
			found = true
			out, err := tool.Repair(context.Background(), sp.Problem())
			if err != nil {
				t.Fatalf("%s: %v", sp.Name, err)
			}
			got := pin{out.Repaired, out.Stats.Iterations, out.Stats.CandidatesTried, out.Stats.AnalyzerCalls}
			if got != c.want {
				t.Errorf("%s: got %+v, want %+v", sp.Name, got, c.want)
			}
		}
		if !found {
			t.Fatalf("spec %s missing", c.name)
		}
	}
}

package llmrepair_test

import (
	"context"
	"testing"

	"specrepair/internal/alloy/parser"
	"specrepair/internal/bench"
	"specrepair/internal/llm"
	"specrepair/internal/repair"
	"specrepair/internal/repair/llmrepair"
	"specrepair/internal/telemetry"
)

// pinnedSpecs returns the named specs of the scale-400 corpus.
func pinnedSpecs(t *testing.T, names ...string) []*bench.Spec {
	t.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 400
	a4f, ar, err := g.Both()
	if err != nil {
		t.Fatal(err)
	}
	var out []*bench.Spec
	for _, name := range names {
		for _, sp := range append(append([]*bench.Spec(nil), a4f.Specs...), ar.Specs...) {
			if sp.Name == name {
				out = append(out, sp)
			}
		}
	}
	if len(out) != len(names) {
		t.Fatalf("pinned specs missing: found %d of %d", len(out), len(names))
	}
	return out
}

type pin struct {
	repaired                    bool
	iterations, tried, anaCalls int
}

// repairAll runs one tool on the specs in turn, as a study worker does.
func repairAll(t *testing.T, tool *llmrepair.Tool, specs []*bench.Spec) []pin {
	t.Helper()
	var got []pin
	for _, sp := range specs {
		out, err := tool.Repair(context.Background(), sp.Problem())
		if err != nil {
			t.Fatalf("%s %s: %v", tool.Name(), sp.Name, err)
		}
		got = append(got, pin{out.Repaired, out.Stats.Iterations, out.Stats.CandidatesTried, out.Stats.AnalyzerCalls})
	}
	return got
}

// TestSingleRoundPinnedOutcomes pins the Loc+Fix setting's outcome and
// effort on one A4F and two ARepair specs of the scale-400 corpus.
func TestSingleRoundPinnedOutcomes(t *testing.T) {
	specs := pinnedSpecs(t, "cv/0000", "balancedBSt/0000", "ctree/0000")
	want := []pin{
		{true, 1, 1, 1},
		{true, 1, 1, 1},
		{false, 1, 1, 0}, // the reply does not parse
	}
	tool := llmrepair.NewSingleRound(llmrepair.SettingLocFix, llmrepair.Options{Client: llm.NewSimulatedModel(1)})
	for i, got := range repairAll(t, tool, specs) {
		if got != want[i] {
			t.Errorf("%s: got %+v, want %+v", specs[i].Name, got, want[i])
		}
	}
}

// TestMultiRoundPinnedOutcomes pins the study configuration's outcome and
// effort on two specs under each feedback kind.
func TestMultiRoundPinnedOutcomes(t *testing.T) {
	want := map[llm.FeedbackKind][2]pin{
		llm.FeedbackNone:    {{true, 9, 9, 9}, {false, 12, 12, 12}},
		llm.FeedbackGeneric: {{true, 7, 7, 7}, {true, 9, 9, 9}},
		llm.FeedbackAuto:    {{false, 12, 12, 12}, {true, 9, 9, 9}},
	}
	specs := pinnedSpecs(t, "cv/0000", "balancedBSt/0000")
	for _, fb := range []llm.FeedbackKind{llm.FeedbackNone, llm.FeedbackGeneric, llm.FeedbackAuto} {
		tool := llmrepair.NewMultiRound(fb, 0, llmrepair.Options{Client: llm.NewSimulatedModel(1)})
		for i, got := range repairAll(t, tool, specs) {
			if got != want[fb][i] {
				t.Errorf("%s %s: got %+v, want %+v", tool.Name(), specs[i].Name, got, want[fb][i])
			}
		}
	}
}

const faultySrc = `
sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run { some Node } for 3
`

// echoClient proposes the faulty spec unchanged in every round, so no round
// repairs it, and counts the completions each agent asks for.
type echoClient struct{ repair, prompt int }

func (c *echoClient) Complete(msgs []llm.Message) (string, error) {
	if msgs[0].Content == llm.PromptAgentSystemPrompt {
		c.prompt++
		return "FOCUS: the fact Links.", nil
	}
	c.repair++
	return "```alloy\n" + faultySrc + "```", nil
}

// TestAutoSkipsPromptAgentAfterLastRound: an unrepaired Auto run with R
// rounds asks the Repair Agent R times and the Prompt Agent R−1 times, since
// no round follows the last one to read its guidance.
func TestAutoSkipsPromptAgentAfterLastRound(t *testing.T) {
	mod, err := parser.Parse(faultySrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, rounds := range []int{1, 2, 4} {
		client := &echoClient{}
		tool := llmrepair.NewMultiRound(llm.FeedbackAuto, rounds, llmrepair.Options{Client: client})
		out, err := tool.Repair(context.Background(), repair.Problem{Name: "noself", Faulty: mod})
		if err != nil {
			t.Fatal(err)
		}
		if out.Repaired || out.Stats.AnalyzerCalls != rounds {
			t.Fatalf("rounds %d: outcome %+v, want unrepaired with %d analyzer calls", rounds, out, rounds)
		}
		if client.repair != rounds || client.prompt != rounds-1 {
			t.Errorf("rounds %d: %d repair-agent and %d prompt-agent completions, want %d and %d",
				rounds, client.repair, client.prompt, rounds, rounds-1)
		}
	}
}

type spanKinds map[string]int

func (k spanKinds) Record(r telemetry.SpanRecord) { k[r.Name]++ }

// TestValidationReadsOnlyWhatFeedbackNeeds: in a job, a round decodes
// every failing command (analyzer.execute_all) only when Generic or Auto
// feedback for a following round reads them; every other validation, all
// of Multi-Round_None's included, stops at the first failing command
// (analyzer.passes_all).
func TestValidationReadsOnlyWhatFeedbackNeeds(t *testing.T) {
	mod, err := parser.Parse(faultySrc)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for _, c := range []struct {
		tool                  *llmrepair.Tool
		executeAll, passesAll int
	}{
		{llmrepair.NewSingleRound(llmrepair.SettingNone, llmrepair.Options{Client: &echoClient{}}), 0, 1},
		{llmrepair.NewMultiRound(llm.FeedbackNone, rounds, llmrepair.Options{Client: &echoClient{}}), 0, rounds},
		{llmrepair.NewMultiRound(llm.FeedbackGeneric, rounds, llmrepair.Options{Client: &echoClient{}}), rounds - 1, 1},
		{llmrepair.NewMultiRound(llm.FeedbackAuto, rounds, llmrepair.Options{Client: &echoClient{}}), rounds - 1, 1},
	} {
		kinds := spanKinds{}
		reg := telemetry.New()
		reg.SetSink(kinds)
		job := reg.StartSpan("job")
		ctx := telemetry.ContextWithSpan(context.Background(), job)
		if _, err := c.tool.Repair(ctx, repair.Problem{Name: "noself", Faulty: mod}); err != nil {
			t.Fatal(err)
		}
		job.End()
		if kinds["analyzer.execute_all"] != c.executeAll || kinds["analyzer.passes_all"] != c.passesAll {
			t.Errorf("%s: %d execute_all and %d passes_all spans, want %d and %d", c.tool.Name(),
				kinds["analyzer.execute_all"], kinds["analyzer.passes_all"], c.executeAll, c.passesAll)
		}
	}
}

package repair_test

import (
	"context"
	"strings"
	"testing"

	"specrepair/internal/llm"
	"specrepair/internal/repair"
	"specrepair/internal/repair/llmrepair"
)

func llmProblem(t *testing.T) repair.Problem {
	return repair.Problem{
		Name:   "noself",
		Faulty: mustParse(t, faultySrc),
		Hints: repair.Hints{
			Location:       "fact Links",
			FixDescription: "replace `n in n.next` with `n not in n.next`",
			PassAssertion:  "NoSelf",
		},
	}
}

func TestSingleRoundWithLocFixHints(t *testing.T) {
	model := llm.NewSimulatedModel(101)
	model.GarbageNoise = 0
	model.WildNoise = 0
	tool := llmrepair.NewSingleRound(llmrepair.SettingLocFix, llmrepair.Options{Client: model})
	out, err := tool.Repair(context.Background(), llmProblem(t))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Repaired {
		t.Error("with explicit Loc+Fix hints the single-round repair should land")
	}
	if out.Repaired {
		assertEquisatWithGT(t, out.Candidate)
	}
}

func TestSingleRoundSettingsNames(t *testing.T) {
	wants := []string{"Single-Round_Loc+Fix", "Single-Round_Loc", "Single-Round_Pass",
		"Single-Round_None", "Single-Round_Loc+Pass"}
	for i, s := range llmrepair.Settings {
		tool := llmrepair.NewSingleRound(s, llmrepair.Options{Client: llm.NewSimulatedModel(1)})
		if tool.Name() != wants[i] {
			t.Errorf("name = %q, want %q", tool.Name(), wants[i])
		}
	}
}

func TestSingleRoundRequiresClient(t *testing.T) {
	tool := llmrepair.NewSingleRound(llmrepair.SettingNone, llmrepair.Options{})
	if _, err := tool.Repair(context.Background(), llmProblem(t)); err == nil {
		t.Error("expected error without a client")
	}
}

func TestMultiRoundRepairs(t *testing.T) {
	for _, fb := range []llm.FeedbackKind{llm.FeedbackNone, llm.FeedbackGeneric, llm.FeedbackAuto} {
		model := llm.NewSimulatedModel(202)
		model.GarbageNoise = 0
		tool := llmrepair.NewMultiRound(fb, 6, llmrepair.Options{Client: model})
		out, err := tool.Repair(context.Background(), llmProblem(t))
		if err != nil {
			t.Fatalf("%s: %v", tool.Name(), err)
		}
		if !out.Repaired {
			t.Errorf("%s failed after %d rounds", tool.Name(), out.Stats.Iterations)
			continue
		}
		assertEquisatWithGT(t, out.Candidate)
	}
}

func TestMultiRoundNames(t *testing.T) {
	for fb, want := range map[llm.FeedbackKind]string{
		llm.FeedbackNone:    "Multi-Round_None",
		llm.FeedbackGeneric: "Multi-Round_Generic",
		llm.FeedbackAuto:    "Multi-Round_Auto",
	} {
		tool := llmrepair.NewMultiRound(fb, 0, llmrepair.Options{Client: llm.NewSimulatedModel(1)})
		if got := tool.Name(); got != want {
			t.Errorf("name = %q, want %q", got, want)
		}
	}
}

func TestMultiRoundIterationBudget(t *testing.T) {
	// A garbage-only model: every round fails to produce a spec; the tool
	// must stop at the round budget.
	tool := llmrepair.NewMultiRound(llm.FeedbackNone, 3, llmrepair.Options{Client: garbageClient{}})
	out, err := tool.Repair(context.Background(), llmProblem(t))
	if err != nil {
		t.Fatal(err)
	}
	if out.Repaired || out.Stats.Iterations != 3 {
		t.Errorf("out = %+v", out)
	}
}

// garbageClient never produces a usable spec.
type garbageClient struct{}

func (garbageClient) Complete(msgs []llm.Message) (string, error) {
	return "I cannot help with that, but the issue is probably in the constraints.", nil
}

// transcriptClient wraps the simulated model, recording conversations.
type transcriptClient struct {
	inner llm.Client
	calls [][]llm.Message
}

func (c *transcriptClient) Complete(msgs []llm.Message) (string, error) {
	cp := append([]llm.Message(nil), msgs...)
	c.calls = append(c.calls, cp)
	return c.inner.Complete(msgs)
}

func TestMultiRoundAutoInvokesPromptAgent(t *testing.T) {
	model := llm.NewSimulatedModel(303)
	model.GarbageNoise = 0
	model.WildNoise = 1.0 // force bad first picks so feedback rounds happen
	rec := &transcriptClient{inner: model}
	tool := llmrepair.NewMultiRound(llm.FeedbackAuto, 3, llmrepair.Options{Client: rec})
	if _, err := tool.Repair(context.Background(), llmProblem(t)); err != nil {
		t.Fatal(err)
	}
	sawPromptAgent := false
	for _, call := range rec.calls {
		if len(call) > 0 && strings.Contains(call[0].Content, "Prompt Agent") {
			sawPromptAgent = true
		}
	}
	if !sawPromptAgent {
		t.Error("Auto feedback must route through the Prompt Agent")
	}
}

func TestMultiRoundGenericFeedbackCarriesCounterexample(t *testing.T) {
	model := llm.NewSimulatedModel(404)
	model.GarbageNoise = 0
	model.WildNoise = 1.0
	rec := &transcriptClient{inner: model}
	tool := llmrepair.NewMultiRound(llm.FeedbackGeneric, 3, llmrepair.Options{Client: rec})
	if _, err := tool.Repair(context.Background(), llmProblem(t)); err != nil {
		t.Fatal(err)
	}
	sawCex := false
	for _, call := range rec.calls {
		for _, m := range call {
			if m.Role == llm.RoleUser && strings.Contains(m.Content, "Counterexample:") {
				sawCex = true
			}
		}
	}
	if !sawCex {
		t.Error("Generic feedback should include counterexamples")
	}
}

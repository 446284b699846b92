package llm

import (
	"strings"
	"testing"

	"specrepair/internal/bounds"
	"specrepair/internal/instance"
)

func TestExtractSpecFenced(t *testing.T) {
	resp := "Here you go:\n```alloy\nsig A {}\nrun {} for 2\n```\nEnjoy."
	spec, ok := ExtractSpec(resp)
	if !ok || !strings.HasPrefix(spec, "sig A") {
		t.Errorf("ExtractSpec = %q, %v", spec, ok)
	}
}

func TestExtractSpecLastFenceWins(t *testing.T) {
	resp := "First try:\n```alloy\nsig Old {}\n```\nActually, better:\n```alloy\nsig New {}\n```"
	spec, ok := ExtractSpec(resp)
	if !ok || !strings.Contains(spec, "New") {
		t.Errorf("ExtractSpec should pick the last block, got %q", spec)
	}
}

func TestExtractSpecUnfenced(t *testing.T) {
	resp := "The fix is simple.\n\nsig A {}\nfact F { some A }\nrun {} for 2"
	spec, ok := ExtractSpec(resp)
	if !ok || !strings.HasPrefix(spec, "sig A") {
		t.Errorf("fallback extraction failed: %q %v", spec, ok)
	}
}

func TestExtractSpecNothing(t *testing.T) {
	if _, ok := ExtractSpec("I am not sure what to do here."); ok {
		t.Error("prose without a spec should not extract")
	}
}

func TestExtractSpecUnterminatedFence(t *testing.T) {
	spec, ok := ExtractSpec("```alloy\nsig A {}")
	if !ok || !strings.Contains(spec, "sig A") {
		t.Errorf("unterminated fence should still extract: %q %v", spec, ok)
	}
}

func TestRenderParseValuationRoundTrip(t *testing.T) {
	u, err := bounds.NewUniverse([]string{"N$0", "N$1"})
	if err != nil {
		t.Fatal(err)
	}
	inst := instance.New(u)
	node := bounds.UnarySet(0, 1)
	next := bounds.NewTupleSet(2)
	next.Add(bounds.Tuple{0, 1})
	inst.Rels["Node"] = node
	inst.Rels["next"] = next
	inst.Rels["empty"] = bounds.NewTupleSet(1)

	text := RenderInstance(inst)
	val := ParseValuation(text)
	if len(val["Node"]) != 2 {
		t.Errorf("Node tuples = %v", val["Node"])
	}
	if len(val["next"]) != 1 || val["next"][0][0] != "N$0" || val["next"][0][1] != "N$1" {
		t.Errorf("next tuples = %v", val["next"])
	}
	if tuples, ok := val["empty"]; !ok || len(tuples) != 0 {
		t.Errorf("empty relation should parse to zero tuples: %v present=%v", tuples, ok)
	}
}

func TestBuildRepairPromptHints(t *testing.T) {
	p := BuildRepairPrompt("sig A {}", PromptOptions{
		Location:       "fact F",
		FixDescription: "replace `a` with `b`",
		PassAssertion:  "NoSelf",
	})
	for _, want := range []string{locationMarker, fixMarker, passMarker, "```alloy"} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q:\n%s", want, p)
		}
	}
	bare := BuildRepairPrompt("sig A {}", PromptOptions{})
	for _, absent := range []string{locationMarker, fixMarker, passMarker} {
		if strings.Contains(bare, absent) {
			t.Errorf("bare prompt should not contain %q", absent)
		}
	}
}

func TestParseConversation(t *testing.T) {
	msgs := []Message{
		{Role: RoleSystem, Content: RepairSystemPrompt},
		{Role: RoleUser, Content: BuildRepairPrompt("sig A {}\nrun {} for 2", PromptOptions{Location: "fact F"})},
		{Role: RoleAssistant, Content: "```alloy\nsig A {}\nfact F { some A }\nrun {} for 2\n```"},
		{Role: RoleUser, Content: BuildGenericFeedback([]string{"check1"}, nil)},
	}
	v := parseConversation(msgs)
	if !strings.Contains(v.originalSpec, "sig A") {
		t.Errorf("originalSpec = %q", v.originalSpec)
	}
	if v.location != "fact F" {
		t.Errorf("location = %q", v.location)
	}
	if len(v.priorProposals) != 1 {
		t.Errorf("priorProposals = %d", len(v.priorProposals))
	}
	if v.roundsSeen != 1 || len(v.failedCommands) != 1 || v.failedCommands[0] != "check1" {
		t.Errorf("feedback parse: rounds=%d failed=%v", v.roundsSeen, v.failedCommands)
	}
}

func TestParseConversationPromptAgent(t *testing.T) {
	msgs := []Message{
		{Role: RoleSystem, Content: PromptAgentSystemPrompt},
		{Role: RoleUser, Content: BuildPromptAgentRequest("sig A {}", []string{"c"}, nil)},
	}
	v := parseConversation(msgs)
	if !v.isPromptAgent {
		t.Error("prompt-agent conversation not detected")
	}
	if !strings.Contains(v.candidateSpec, "sig A") {
		t.Errorf("candidateSpec = %q", v.candidateSpec)
	}
}

func TestSimulatedModelDeterminism(t *testing.T) {
	spec := `
sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
`
	msgs := []Message{
		{Role: RoleSystem, Content: RepairSystemPrompt},
		{Role: RoleUser, Content: BuildRepairPrompt(spec, PromptOptions{})},
	}
	m1 := &countingClient{Client: NewSimulatedModel(42)}
	m2 := NewSimulatedModel(42)
	r1, err1 := m1.Complete(msgs)
	r2, err2 := m2.Complete(msgs)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1 != r2 {
		t.Error("same seed and prompt must produce identical completions")
	}
	m3 := NewSimulatedModel(43)
	r3, err := m3.Complete(msgs)
	if err != nil {
		t.Fatal(err)
	}
	_ = r3 // may or may not differ; determinism per seed is what matters
	if m1.completions != 1 {
		t.Errorf("completions = %d, want 1", m1.completions)
	}
}

func TestSimulatedModelProposesParseableSpec(t *testing.T) {
	spec := `
sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
`
	m := NewSimulatedModel(7)
	m.GarbageNoise = 0 // force a usable reply for this test
	msgs := []Message{
		{Role: RoleSystem, Content: RepairSystemPrompt},
		{Role: RoleUser, Content: BuildRepairPrompt(spec, PromptOptions{})},
	}
	reply, err := m.Complete(msgs)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := ExtractSpec(reply)
	if !ok {
		t.Fatalf("no spec in reply: %q", reply)
	}
	if !strings.Contains(src, "sig Node") {
		t.Errorf("proposal lost the signature: %q", src)
	}
	if strings.TrimSpace(src) == strings.TrimSpace(spec) {
		t.Error("proposal should differ from the faulty spec")
	}
}

func TestSimulatedModelAvoidsPriorProposals(t *testing.T) {
	spec := `
sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
`
	m := NewSimulatedModel(11)
	m.GarbageNoise = 0
	m.FormatNoise = 0
	m.WildNoise = 0
	msgs := []Message{
		{Role: RoleSystem, Content: RepairSystemPrompt},
		{Role: RoleUser, Content: BuildRepairPrompt(spec, PromptOptions{})},
	}
	r1, err := m.Complete(msgs)
	if err != nil {
		t.Fatal(err)
	}
	msgs = append(msgs,
		Message{Role: RoleAssistant, Content: r1},
		Message{Role: RoleUser, Content: BuildNoFeedback()},
	)
	r2, err := m.Complete(msgs)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := ExtractSpec(r1)
	s2, _ := ExtractSpec(r2)
	if s1 == s2 {
		t.Error("second proposal should differ from the first")
	}
}

func TestSimulatedModelFollowsFixSuggestion(t *testing.T) {
	spec := `
sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
`
	m := NewSimulatedModel(5)
	m.GarbageNoise = 0
	m.FormatNoise = 0
	m.WildNoise = 0
	msgs := []Message{
		{Role: RoleSystem, Content: RepairSystemPrompt},
		{Role: RoleUser, Content: BuildRepairPrompt(spec, PromptOptions{
			Location:       "fact Links",
			FixDescription: "replace `n in n.next` with `n not in n.next`",
		})},
	}
	reply, err := m.Complete(msgs)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := ExtractSpec(reply)
	if !ok {
		t.Fatal("no spec extracted")
	}
	if !strings.Contains(src, "not in n.next") {
		t.Errorf("model ignored the explicit fix suggestion:\n%s", src)
	}
}

func TestPromptAgentProducesFocus(t *testing.T) {
	cand := `sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3`
	u, _ := bounds.NewUniverse([]string{"Node$0"})
	inst := instance.New(u)
	inst.Rels["Node"] = bounds.UnarySet(0)
	loop := bounds.NewTupleSet(2)
	loop.Add(bounds.Tuple{0, 0})
	inst.Rels["next"] = loop

	m := NewSimulatedModel(1)
	msgs := []Message{
		{Role: RoleSystem, Content: PromptAgentSystemPrompt},
		{Role: RoleUser, Content: BuildPromptAgentRequest(cand, []string{"NoSelf"}, inst)},
	}
	reply, err := m.Complete(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, focusMarker) {
		t.Errorf("prompt agent reply should start with FOCUS:, got %q", reply)
	}
	if !strings.Contains(reply, "Links") {
		t.Errorf("prompt agent should name the guilty fact: %q", reply)
	}
}

func TestContainerFilter(t *testing.T) {
	tests := []struct{ in, want string }{
		{"fact Links", "fact Links"},
		{"pred checkIn", "pred checkIn"},
		{"the fact Links is wrong", "fact Links"},
		{"line 22", ""},
		{"", ""},
	}
	for _, tt := range tests {
		if got := containerFilter(tt.in); got != tt.want {
			t.Errorf("containerFilter(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestParseFixSuggestion(t *testing.T) {
	from, to := parseFixSuggestion("replace `a in b` with `a not in b`")
	if from != "a in b" || to != "a not in b" {
		t.Errorf("parseFixSuggestion = %q, %q", from, to)
	}
	from, to = parseFixSuggestion("no backquotes here")
	if from != "" || to != "" {
		t.Errorf("malformed suggestion should yield empties")
	}
}

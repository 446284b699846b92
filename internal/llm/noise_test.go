package llm

import (
	"testing"
)

const noiseSpec = `
sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
`

func repairMsgs() []Message {
	return []Message{
		{Role: RoleSystem, Content: RepairSystemPrompt},
		{Role: RoleUser, Content: BuildRepairPrompt(noiseSpec, PromptOptions{})},
	}
}

func TestGarbageNoiseProducesUnusableReplies(t *testing.T) {
	m := NewSimulatedModel(3)
	m.GarbageNoise = 1.0
	reply, err := m.Complete(repairMsgs())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ExtractSpec(reply); ok {
		t.Errorf("garbage reply should carry no spec: %q", reply)
	}
}

func TestFormatNoiseStillExtractable(t *testing.T) {
	// Even under maximal formatting noise, the response parser recovers a
	// specification (that is the point of the fallback heuristics).
	m := NewSimulatedModel(3)
	m.GarbageNoise = 0
	m.FormatNoise = 1.0
	for seed := int64(1); seed <= 20; seed++ {
		m.Seed = seed
		reply, err := m.Complete(repairMsgs())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ExtractSpec(reply); !ok {
			t.Errorf("seed %d: sloppy formatting defeated extraction: %q", seed, reply)
		}
	}
}

func TestLaterRoundsExploreFurther(t *testing.T) {
	// Over several no-feedback rounds the model must keep producing fresh
	// proposals (temperature growth + duplicate avoidance).
	m := NewSimulatedModel(9)
	m.GarbageNoise = 0
	m.FormatNoise = 0
	msgs := repairMsgs()
	seen := map[string]bool{}
	fresh := 0
	for round := 0; round < 6; round++ {
		reply, err := m.Complete(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if spec, ok := ExtractSpec(reply); ok {
			if !seen[spec] {
				fresh++
			}
			seen[spec] = true
		}
		msgs = append(msgs,
			Message{Role: RoleAssistant, Content: reply},
			Message{Role: RoleUser, Content: BuildNoFeedback()},
		)
	}
	if fresh < 4 {
		t.Errorf("only %d distinct proposals over 6 rounds", fresh)
	}
}

// countingClient is a recording Client: it counts the completions it
// passes on to its model.
type countingClient struct {
	Client
	completions int
}

func (c *countingClient) Complete(msgs []Message) (string, error) {
	c.completions++
	return c.Client.Complete(msgs)
}

// TestUsageCountsCompletions: every request is one completion, and a
// repeated request gets the same reply.
func TestUsageCountsCompletions(t *testing.T) {
	c := &countingClient{Client: NewSimulatedModel(1)}
	var replies []string
	for i := 0; i < 3; i++ {
		reply, err := c.Complete(repairMsgs())
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, reply)
	}
	if c.completions != 3 {
		t.Errorf("completions = %d, want 3", c.completions)
	}
	if replies[1] != replies[0] || replies[2] != replies[0] {
		t.Errorf("a repeated request got different replies: %q", replies)
	}
}

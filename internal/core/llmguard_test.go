package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
	"specrepair/internal/llm"
)

// repairRecorder feeds every Repair-Agent request and reply it serves into
// h. Prompt-Agent traffic is left out: its reply reaches the hash through
// the next repair request, which carries it as feedback.
type repairRecorder struct {
	inner *llm.SimulatedModel
	h     hash.Hash
}

func (r *repairRecorder) Complete(msgs []llm.Message) (string, error) {
	reply, err := r.inner.Complete(msgs)
	if len(msgs) > 0 && msgs[0].Content == llm.RepairSystemPrompt {
		for _, m := range msgs {
			fmt.Fprintf(r.h, "%s %d\n%s\n", m.Role, len(m.Content), m.Content)
		}
		fmt.Fprintf(r.h, "reply %d\n%s\nerr %v\n", len(reply), reply, err)
	}
	return reply, err
}

func (r *repairRecorder) EndConversation() { r.inner.EndConversation() }

// llmConversationsDigest is the SHA-256 of TestLLMConversationsPinned's
// transcript.
const llmConversationsDigest = "710ad456aa995b70b5620f5a15add6b550087ea85748e3ba896cdf3802a8db51"

// TestLLMConversationsPinned pins what the eight LLM configurations do on
// the scale-40 A4F and ARepair suites: every Repair-Agent request and
// reply, and each outcome (printed candidate, Repaired, Stats). One tool per
// configuration serves every spec in turn, as a study worker does.
func TestLLMConversationsPinned(t *testing.T) {
	g := bench.NewGenerator(nil)
	g.Scale = 40
	a4f, ar, err := g.Both()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	newClient := func() llm.Client { return &repairRecorder{inner: llm.NewSimulatedModel(1), h: h} }
	for _, f := range studyFactories(FactoryOptions{}, newClient) {
		if !isLLM(f.Name) {
			continue
		}
		tool := f.New()
		for _, suite := range []*bench.Suite{a4f, ar} {
			for _, sp := range suite.Specs {
				out, err := tool.Repair(context.Background(), sp.Problem())
				if err != nil {
					t.Fatalf("%s %s: %v", f.Name, sp.Name, err)
				}
				cand := "<none>"
				if out.Candidate != nil {
					cand = printer.Module(out.Candidate)
				}
				fmt.Fprintf(h, "outcome %s %s %v %+v %d\n%s\n", f.Name, sp.Name, out.Repaired, out.Stats, len(cand), cand)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != llmConversationsDigest {
		t.Errorf("LLM conversations digest = %s, want %s", got, llmConversationsDigest)
	}
}

func isLLM(name string) bool {
	for _, n := range LLMNames {
		if n == name {
			return true
		}
	}
	return false
}

// Package llm provides the language-model layer of the LLM-based repair
// techniques (the one repair loop of internal/repair/llmrepair): a chat
// Client interface, the prompt formats of the Single-Round and Multi-Round
// studies, response parsing (the "specialized parser" the paper describes
// for extracting specifications from model output), and a deterministic
// simulated model.
//
// The simulated model replaces the paper's GPT-4 API calls (documented
// substitution in DESIGN.md). It is not a lookup table: given a prompt it
// actually parses the faulty specification, enumerates candidate edits with
// a pattern prior resembling what a code LLM has internalized (operator
// polarity fixes, quantifier swaps, negation toggles), follows the hint and
// feedback conventions of the prompts, and emits full specifications with
// realistic formatting noise. All randomness is seeded from the prompt
// content, so every experiment is reproducible bit-for-bit.
package llm

// Role identifies a chat message author.
type Role string

// Chat roles.
const (
	RoleSystem    Role = "system"
	RoleUser      Role = "user"
	RoleAssistant Role = "assistant"
)

// Message is one chat turn.
type Message struct {
	Role    Role
	Content string
}

// Client is a chat-completion endpoint.
type Client interface {
	// Complete returns the assistant's reply to the conversation.
	Complete(messages []Message) (string, error)
}

// System prompts, mirroring the two studies' setups.
const (
	RepairSystemPrompt = "You are an expert in the Alloy specification language. " +
		"Repair the faulty specification you are given. Reply with the complete " +
		"fixed specification in an ```alloy code fence."
	PromptAgentSystemPrompt = "You are the Prompt Agent. Given an Alloy Analyzer " +
		"report and a candidate specification, produce one short, targeted " +
		"instruction for the Repair Agent. Start your reply with FOCUS:."
)

// Package llmrepair reimplements the study's two LLM repair orchestrations
// as one loop: prompt, complete, extract, parse, validate.
//
// Single-Round (Hasan et al. 2023) is the loop with one round: one
// zero-shot prompt carrying the faulty specification plus an optional
// combination of informational cues — bug location (Loc), fix description
// (Fix), and required assertion (Pass) — answered by one completion,
// parsed, and validated.
//
// Multi-Round (Alhanahnah et al. 2024) is the loop with a round budget: a
// dual-agent loop in which a Repair Agent proposes candidate
// specifications and, between rounds, the Alloy Analyzer's verdict is fed
// back at one of three fidelity levels — None (binary "not fixed"),
// Generic (templated report with counterexamples), or Auto (a second
// Prompt Agent LLM crafts targeted guidance from the report and the
// candidate).
//
// A round validates only what its next prompt reads: it builds feedback
// only when another round follows, and it decodes the failing commands and
// a counterexample only for Generic or Auto feedback. Every other
// validation stops at the first failing command.
package llmrepair

import (
	"context"
	"fmt"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/analyzer"
	"specrepair/internal/instance"
	"specrepair/internal/llm"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

// Setting is one of the five Single-Round prompt configurations.
type Setting int

// Prompt settings, as labeled in the paper's tables.
const (
	SettingLocFix Setting = iota + 1
	SettingLoc
	SettingPass
	SettingNone
	SettingLocPass
)

// Settings lists all configurations in table order.
var Settings = []Setting{SettingLocFix, SettingLoc, SettingPass, SettingNone, SettingLocPass}

// String renders the setting's paper label.
func (s Setting) String() string {
	switch s {
	case SettingLocFix:
		return "Loc+Fix"
	case SettingLoc:
		return "Loc"
	case SettingPass:
		return "Pass"
	case SettingNone:
		return "None"
	case SettingLocPass:
		return "Loc+Pass"
	default:
		return "?"
	}
}

// prompt selects the hints the setting's prompt carries.
func (s Setting) prompt(h repair.Hints) llm.PromptOptions {
	switch s {
	case SettingLocFix:
		return llm.PromptOptions{Location: h.Location, FixDescription: h.FixDescription}
	case SettingLoc:
		return llm.PromptOptions{Location: h.Location}
	case SettingPass:
		return llm.PromptOptions{PassAssertion: h.PassAssertion}
	case SettingLocPass:
		return llm.PromptOptions{Location: h.Location, PassAssertion: h.PassAssertion}
	default:
		return llm.PromptOptions{}
	}
}

// DefaultRounds is Multi-Round's per-spec proposal budget.
const DefaultRounds = 12

// Options configures a tool's model and oracle.
type Options struct {
	// Client answers the tool's prompts. It is required.
	Client llm.Client
	// Analyzer overrides the default analyzer (mainly for tests).
	Analyzer *analyzer.Analyzer
}

// Tool is one LLM configuration of the study: a Single-Round prompt
// setting, or a Multi-Round feedback kind with its round budget.
type Tool struct {
	setting  Setting
	feedback llm.FeedbackKind // 0 for Single-Round, whose one round takes none
	rounds   int
	client   llm.Client
	an       *analyzer.Analyzer
}

// NewSingleRound returns the Single-Round technique under one prompt setting.
func NewSingleRound(s Setting, opts Options) *Tool {
	return newTool(s, 0, 1, opts)
}

// NewMultiRound returns the Multi-Round technique under one feedback kind
// (0 means None), proposing at most rounds candidates (0 means
// DefaultRounds). Its prompt carries no hints.
func NewMultiRound(fb llm.FeedbackKind, rounds int, opts Options) *Tool {
	if fb == 0 {
		fb = llm.FeedbackNone
	}
	if rounds == 0 {
		rounds = DefaultRounds
	}
	return newTool(SettingNone, fb, rounds, opts)
}

func newTool(s Setting, fb llm.FeedbackKind, rounds int, opts Options) *Tool {
	an := opts.Analyzer
	if an == nil {
		an = analyzer.New(analyzer.Options{})
	}
	return &Tool{setting: s, feedback: fb, rounds: rounds, client: opts.Client, an: an}
}

var _ repair.Technique = (*Tool)(nil)

// Name implements repair.Technique.
func (t *Tool) Name() string {
	if t.feedback == 0 {
		return "Single-Round_" + t.setting.String()
	}
	return "Multi-Round_" + t.feedback.String()
}

// Repair implements repair.Technique. Each round opens a span, of kind
// singleround.round or multiround.round, under the context's span.
func (t *Tool) Repair(ctx context.Context, p repair.Problem) (repair.Outcome, error) {
	out := repair.Outcome{}
	if t.client == nil {
		return out, fmt.Errorf("%s: no LLM client configured", t.Name())
	}
	// A client that keeps state for the conversation in progress (the
	// simulated model's memo) releases it when this repair is over.
	if e, ok := t.client.(interface{ EndConversation() }); ok {
		defer e.EndConversation()
	}

	an := t.an.WithContext(ctx)
	msgs := []llm.Message{
		{Role: llm.RoleSystem, Content: llm.RepairSystemPrompt},
		{Role: llm.RoleUser, Content: llm.BuildRepairPrompt(printer.Module(p.Faulty), t.setting.prompt(p.Hints))},
	}
	// Only the dual-agent loop tells its agents apart on llm.complete spans.
	roundKind, agent := "multiround.round", "repair"
	if t.feedback == 0 {
		roundKind, agent = "singleround.round", ""
	}

	// One span per proposal round; the deferred End closes whichever span an
	// early return leaves open (End is idempotent).
	parent := telemetry.SpanFromContext(ctx)
	var roundSpan *telemetry.Span
	defer func() { roundSpan.End() }()

	for round := 1; round <= t.rounds; round++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out.Stats.Iterations++
		roundSpan.End()
		roundSpan = parent.Child(roundKind)
		roundSpan.SetMetric("round", int64(round))
		reply, err := t.complete(roundSpan, agent, msgs)
		if err != nil {
			return out, fmt.Errorf("%s completion: %w", t.Name(), err)
		}
		out.Stats.CandidatesTried++

		// The next prompt reads the failing commands and a counterexample
		// only under Generic or Auto feedback, and only if a round follows.
		last := round == t.rounds
		report := !last && (t.feedback == llm.FeedbackGeneric || t.feedback == llm.FeedbackAuto)
		cand := parseCandidate(reply)
		var failed []string
		var cex *instance.Instance
		if cand != nil {
			out.Candidate = cand
			roundAn := an.WithSpan(roundSpan)
			var pass bool
			if report {
				failed, cex, pass, err = validate(roundAn, cand)
			} else {
				pass, err = roundAn.PassesAll(cand)
			}
			out.Stats.AnalyzerCalls++
			if err != nil && ctx.Err() != nil {
				return out, ctx.Err()
			}
			if err == nil && pass {
				out.Repaired = true
				return out, nil
			}
		}
		if last {
			break
		}
		feedback := llm.BuildNoFeedback()
		if cand != nil && report {
			if fb, err := t.reportFeedback(roundSpan, cand, failed, cex); err == nil {
				feedback = fb
			}
		}
		msgs = append(msgs,
			llm.Message{Role: llm.RoleAssistant, Content: reply},
			llm.Message{Role: llm.RoleUser, Content: feedback})
	}
	return out, nil
}

// complete asks the client for one reply under an llm.complete span, which
// carries the agent's name when it is not empty.
func (t *Tool) complete(sp *telemetry.Span, agent string, msgs []llm.Message) (string, error) {
	llmSpan := sp.Child("llm.complete")
	if agent != "" {
		llmSpan.SetAttr("agent", agent)
	}
	reply, err := t.client.Complete(msgs)
	llmSpan.SetMetric("reply_bytes", int64(len(reply)))
	llmSpan.End()
	return reply, err
}

func parseCandidate(reply string) *ast.Module {
	src, ok := llm.ExtractSpec(reply)
	if !ok {
		return nil
	}
	cand, err := parser.Parse(src)
	if err != nil {
		return nil
	}
	return cand
}

// validate runs all commands, returning the failing command names and the
// first counterexample (or unexpected instance witness).
func validate(an *analyzer.Analyzer, cand *ast.Module) (failed []string, cex *instance.Instance, pass bool, err error) {
	results, err := an.ExecuteAll(cand)
	if err != nil {
		return nil, nil, false, err
	}
	pass = true
	for _, r := range results {
		if r.Passed() {
			continue
		}
		pass = false
		failed = append(failed, r.Command.Name)
		if cex == nil && r.Sat && r.Instance != nil {
			cex = r.Instance
		}
	}
	return failed, cex, pass, nil
}

// reportFeedback renders the Generic or Auto message that reports the
// failing commands and the counterexample. The span parents the Prompt
// Agent's completion in the Auto setting.
func (t *Tool) reportFeedback(sp *telemetry.Span, cand *ast.Module, failed []string, cex *instance.Instance) (string, error) {
	if t.feedback == llm.FeedbackGeneric {
		return llm.BuildGenericFeedback(failed, cex), nil
	}
	req := []llm.Message{
		{Role: llm.RoleSystem, Content: llm.PromptAgentSystemPrompt},
		{Role: llm.RoleUser, Content: llm.BuildPromptAgentRequest(printer.Module(cand), failed, cex)},
	}
	guidance, err := t.complete(sp, "prompt", req)
	if err != nil {
		return "", err
	}
	return llm.BuildAutoFeedback(guidance, failed, cex), nil
}

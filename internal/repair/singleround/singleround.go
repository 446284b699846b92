// Package singleround reimplements the Single-Round LLM repair study
// (Hasan et al. 2023): one zero-shot prompt carrying the faulty
// specification plus an optional combination of informational cues —
// bug location (Loc), fix description (Fix), and required assertion
// (Pass) — answered by one completion, parsed, and validated.
package singleround

import (
	"context"
	"fmt"

	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/analyzer"
	"specrepair/internal/llm"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

// Setting is one of the five prompt configurations of the study.
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

// Options configures the technique.
type Options struct {
	Setting Setting
	Client  llm.Client
	// Analyzer overrides the default analyzer (mainly for tests).
	Analyzer *analyzer.Analyzer
}

// Tool is the Single-Round technique under one prompt setting.
type Tool struct {
	opts Options
	an   *analyzer.Analyzer
}

// New returns the technique. A Client is required.
func New(opts Options) *Tool {
	an := opts.Analyzer
	if an == nil {
		an = analyzer.New(analyzer.Options{})
	}
	return &Tool{opts: opts, an: an}
}

var _ repair.Technique = (*Tool)(nil)

// Name implements repair.Technique.
func (t *Tool) Name() string { return "Single-Round_" + t.opts.Setting.String() }

// Repair implements repair.Technique.
func (t *Tool) Repair(ctx context.Context, p repair.Problem) (repair.Outcome, error) {
	out := repair.Outcome{}
	if t.opts.Client == nil {
		return out, fmt.Errorf("single-round: no LLM client configured")
	}
	// A client that keeps state for the conversation in progress (the
	// simulated model's memo) releases it when this repair is over.
	if e, ok := t.opts.Client.(interface{ EndConversation() }); ok {
		defer e.EndConversation()
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	var promptOpts llm.PromptOptions
	switch t.opts.Setting {
	case SettingLocFix:
		promptOpts.Location = p.Hints.Location
		promptOpts.FixDescription = p.Hints.FixDescription
	case SettingLoc:
		promptOpts.Location = p.Hints.Location
	case SettingPass:
		promptOpts.PassAssertion = p.Hints.PassAssertion
	case SettingLocPass:
		promptOpts.Location = p.Hints.Location
		promptOpts.PassAssertion = p.Hints.PassAssertion
	}

	// One round: a single completion followed by one oracle validation.
	roundCtx, roundSpan := telemetry.StartChild(ctx, "singleround.round")
	roundSpan.SetAttr("setting", t.opts.Setting.String())
	defer roundSpan.End()

	msgs := []llm.Message{
		{Role: llm.RoleSystem, Content: llm.RepairSystemPrompt},
		{Role: llm.RoleUser, Content: llm.BuildRepairPrompt(printer.Module(p.Faulty), promptOpts)},
	}
	llmSpan := roundSpan.Child("llm.complete")
	reply, err := t.opts.Client.Complete(msgs)
	llmSpan.SetMetric("reply_bytes", int64(len(reply)))
	llmSpan.End()
	if err != nil {
		return out, fmt.Errorf("single-round completion: %w", err)
	}
	out.Stats.Iterations = 1
	out.Stats.CandidatesTried = 1

	src, ok := llm.ExtractSpec(reply)
	if !ok {
		return out, nil // unusable reply: no repair
	}
	cand, err := parser.Parse(src)
	if err != nil {
		return out, nil // non-parsing candidate: no repair
	}
	out.Candidate = cand

	pass, err := repair.OracleAllCommandsPass(roundCtx, t.an, cand)
	out.Stats.AnalyzerCalls++
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return out, cerr
		}
		return out, nil
	}
	out.Repaired = pass
	return out, nil
}

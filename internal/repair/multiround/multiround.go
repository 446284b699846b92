// Package multiround reimplements the Multi-Round LLM repair framework
// (Alhanahnah et al. 2024): a dual-agent loop in which a Repair Agent
// proposes candidate specifications and, between rounds, the Alloy
// Analyzer's verdict is fed back at one of three fidelity levels —
// None (binary "not fixed"), Generic (templated report with
// counterexamples), or Auto (a second Prompt Agent LLM crafts targeted
// guidance from the report and the candidate).
package multiround

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

// Options configures the technique.
type Options struct {
	Feedback llm.FeedbackKind
	// Rounds caps repair-agent proposals (the study used a small fixed
	// budget per specification).
	Rounds int
	Client llm.Client
	// Analyzer overrides the default analyzer (mainly for tests).
	Analyzer *analyzer.Analyzer
	// Telemetry records live round counts. Nil disables instrumentation.
	Telemetry *telemetry.Collector
}

// DefaultRounds is the per-spec proposal budget.
const DefaultRounds = 12

// Tool is the Multi-Round technique under one feedback setting.
type Tool struct {
	opts   Options
	an     *analyzer.Analyzer
	rounds *telemetry.Counter
}

// New returns the technique. A Client is required.
func New(opts Options) *Tool {
	if opts.Rounds == 0 {
		opts.Rounds = DefaultRounds
	}
	if opts.Feedback == 0 {
		opts.Feedback = llm.FeedbackNone
	}
	an := opts.Analyzer
	if an == nil {
		an = analyzer.New(analyzer.Options{Telemetry: opts.Telemetry})
	}
	t := &Tool{opts: opts, an: an}
	t.rounds = opts.Telemetry.TechCounter(t.Name(), "rounds")
	return t
}

var _ repair.Technique = (*Tool)(nil)

// Name implements repair.Technique.
func (t *Tool) Name() string { return "Multi-Round_" + t.opts.Feedback.String() }

// Repair implements repair.Technique.
func (t *Tool) Repair(ctx context.Context, p repair.Problem) (repair.Outcome, error) {
	out := repair.Outcome{}
	if t.opts.Client == nil {
		return out, fmt.Errorf("multi-round: no LLM client configured")
	}
	// A client that keeps state for the conversation in progress (the
	// simulated model's memo) releases it when this repair is over.
	if e, ok := t.opts.Client.(interface{ EndConversation() }); ok {
		defer e.EndConversation()
	}

	an := t.an.WithContext(ctx)

	msgs := []llm.Message{
		{Role: llm.RoleSystem, Content: llm.RepairSystemPrompt},
		{Role: llm.RoleUser, Content: llm.BuildRepairPrompt(printer.Module(p.Faulty), llm.PromptOptions{})},
	}

	// One span per proposal round; the deferred End closes whichever span an
	// early return leaves open (End is idempotent).
	parent := telemetry.SpanFromContext(ctx)
	var roundSpan *telemetry.Span
	defer func() { roundSpan.End() }()

	var best *ast.Module
	for round := 0; round < t.opts.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out.Stats.Iterations++
		t.rounds.Inc()
		roundSpan.End()
		roundSpan = parent.Child("multiround.round")
		roundSpan.SetMetric("round", int64(round+1))
		llmSpan := roundSpan.Child("llm.complete")
		llmSpan.SetAttr("agent", "repair")
		reply, err := t.opts.Client.Complete(msgs)
		llmSpan.SetMetric("reply_bytes", int64(len(reply)))
		llmSpan.End()
		if err != nil {
			return out, fmt.Errorf("multi-round completion: %w", err)
		}
		msgs = append(msgs, llm.Message{Role: llm.RoleAssistant, Content: reply})
		out.Stats.CandidatesTried++

		cand := t.parseCandidate(reply)
		var feedback string
		if cand == nil {
			feedback = llm.BuildNoFeedback()
		} else {
			best = cand
			failed, cex, pass, err := t.validate(an.WithSpan(roundSpan), cand)
			out.Stats.AnalyzerCalls++
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return out, cerr
				}
			}
			if err == nil && pass {
				out.Repaired = true
				out.Candidate = cand
				return out, nil
			}
			feedback, err = t.buildFeedback(roundSpan, cand, failed, cex)
			if err != nil {
				feedback = llm.BuildNoFeedback()
			}
		}
		msgs = append(msgs, llm.Message{Role: llm.RoleUser, Content: feedback})
	}
	out.Candidate = best
	return out, nil
}

func (t *Tool) parseCandidate(reply string) *ast.Module {
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
func (t *Tool) validate(an *analyzer.Analyzer, cand *ast.Module) (failed []string, cex *instance.Instance, pass bool, err error) {
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

// buildFeedback renders the between-round message per the feedback level.
// The span parents the Prompt Agent's completion in the Auto setting.
func (t *Tool) buildFeedback(sp *telemetry.Span, cand *ast.Module, failed []string, cex *instance.Instance) (string, error) {
	switch t.opts.Feedback {
	case llm.FeedbackNone:
		return llm.BuildNoFeedback(), nil
	case llm.FeedbackGeneric:
		return llm.BuildGenericFeedback(failed, cex), nil
	case llm.FeedbackAuto:
		req := []llm.Message{
			{Role: llm.RoleSystem, Content: llm.PromptAgentSystemPrompt},
			{Role: llm.RoleUser, Content: llm.BuildPromptAgentRequest(printer.Module(cand), failed, cex)},
		}
		llmSpan := sp.Child("llm.complete")
		llmSpan.SetAttr("agent", "prompt")
		guidance, err := t.opts.Client.Complete(req)
		llmSpan.SetMetric("reply_bytes", int64(len(guidance)))
		llmSpan.End()
		if err != nil {
			return "", err
		}
		return llm.BuildAutoFeedback(guidance, failed, cex), nil
	default:
		return llm.BuildNoFeedback(), nil
	}
}

package llm

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"specrepair/internal/instance"
)

// Hint section markers used by the Single-Round prompt settings.
const (
	locationMarker = "BUG LOCATION:"
	fixMarker      = "FIX SUGGESTION:"
	passMarker     = "REQUIRED ASSERTION:"
	feedbackMarker = "ANALYZER FEEDBACK:"
	focusMarker    = "FOCUS:"
	cexMarker      = "Counterexample:"
)

// PromptOptions selects which informational cues a repair prompt carries.
type PromptOptions struct {
	Location       string // paragraph the bug is in ("fact Links")
	FixDescription string // prose description of the intended fix
	PassAssertion  string // assertion the repair must satisfy
}

// BuildRepairPrompt renders the initial user prompt for a faulty spec.
func BuildRepairPrompt(specSource string, opts PromptOptions) string {
	var b strings.Builder
	b.WriteString("The following Alloy specification is faulty.\n")
	if opts.Location != "" {
		fmt.Fprintf(&b, "%s %s\n", locationMarker, opts.Location)
	}
	if opts.FixDescription != "" {
		fmt.Fprintf(&b, "%s %s\n", fixMarker, opts.FixDescription)
	}
	if opts.PassAssertion != "" {
		fmt.Fprintf(&b, "%s %s\n", passMarker, opts.PassAssertion)
	}
	b.WriteString("Return the complete fixed specification.\n")
	b.WriteString("```alloy\n")
	b.WriteString(strings.TrimSpace(specSource))
	b.WriteString("\n```\n")
	return b.String()
}

// FeedbackKind is the Multi-Round feedback level.
type FeedbackKind int

// Feedback levels of the Multi-Round study.
const (
	FeedbackNone FeedbackKind = iota + 1
	FeedbackGeneric
	FeedbackAuto
)

// String renders the feedback kind as the paper labels it.
func (k FeedbackKind) String() string {
	switch k {
	case FeedbackNone:
		return "None"
	case FeedbackGeneric:
		return "Generic"
	case FeedbackAuto:
		return "Auto"
	default:
		return "?"
	}
}

// BuildNoFeedback renders the minimalist binary feedback message.
func BuildNoFeedback() string {
	return feedbackMarker + " the specification is still not fixed. Try a different repair."
}

// BuildGenericFeedback renders the template-based analyzer report: failing
// command names plus a counterexample, the way a developer would summarize
// an Analyzer run on a Q&A site.
func BuildGenericFeedback(failedCommands []string, cex *instance.Instance) string {
	var b strings.Builder
	b.WriteString(feedbackMarker + " the following commands still fail: ")
	b.WriteString(strings.Join(failedCommands, ", "))
	b.WriteString(".\n")
	if cex != nil {
		b.WriteString(cexMarker + "\n")
		b.WriteString(RenderInstance(cex))
	}
	return b.String()
}

// BuildAutoFeedback wraps the Prompt Agent's guidance into a feedback
// message for the Repair Agent.
func BuildAutoFeedback(guidance string, failedCommands []string, cex *instance.Instance) string {
	var b strings.Builder
	b.WriteString(feedbackMarker + " the following commands still fail: ")
	b.WriteString(strings.Join(failedCommands, ", "))
	b.WriteString(".\n")
	b.WriteString(strings.TrimSpace(guidance))
	b.WriteString("\n")
	if cex != nil {
		b.WriteString(cexMarker + "\n")
		b.WriteString(RenderInstance(cex))
	}
	return b.String()
}

// BuildPromptAgentRequest renders the Prompt Agent's input: the analyzer
// report plus the current candidate.
func BuildPromptAgentRequest(candidateSource string, failedCommands []string, cex *instance.Instance) string {
	var b strings.Builder
	b.WriteString("Analyzer report: commands failing: ")
	b.WriteString(strings.Join(failedCommands, ", "))
	b.WriteString("\n")
	if cex != nil {
		b.WriteString(cexMarker + "\n")
		b.WriteString(RenderInstance(cex))
	}
	b.WriteString("Candidate specification:\n```alloy\n")
	b.WriteString(strings.TrimSpace(candidateSource))
	b.WriteString("\n```\n")
	return b.String()
}

// RenderInstance renders an instance in the "rel = {(a, b) (c)}" line format
// shared by feedback messages and instance parsing.
func RenderInstance(inst *instance.Instance) string { return inst.String() }

// Line and tuple patterns of RenderInstance output.
var (
	valuationLineRe  = regexp.MustCompile(`^\s*([A-Za-z_][A-Za-z0-9_']*)\s*=\s*\{(.*)\}\s*$`)
	valuationTupleRe = regexp.MustCompile(`\(([^)]*)\)`)
)

// ParseValuation parses RenderInstance output back into an AUnit-style
// valuation: relation name -> tuples of atom names. Unparseable lines are
// skipped.
func ParseValuation(text string) map[string][][]string {
	out := map[string][][]string{}
	for _, line := range strings.Split(text, "\n") {
		m := valuationLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rel := m[1]
		var tuples [][]string
		for _, tm := range valuationTupleRe.FindAllStringSubmatch(m[2], -1) {
			parts := strings.Split(tm[1], ",")
			tuple := make([]string, 0, len(parts))
			for _, p := range parts {
				p = strings.TrimSpace(p)
				if p != "" {
					tuple = append(tuple, p)
				}
			}
			if len(tuple) > 0 {
				tuples = append(tuples, tuple)
			}
		}
		out[rel] = tuples
	}
	return out
}

// ExtractSpec pulls an Alloy specification out of a model response. It
// prefers the last fenced code block; failing that, it falls back to the
// first line that looks like the start of a module — the robustness the
// paper's "specialized parser" provides against chatty model output.
func ExtractSpec(response string) (string, bool) {
	fences := fencedBlocks(response)
	if len(fences) > 0 {
		return strings.TrimSpace(fences[len(fences)-1]), true
	}
	lines := strings.Split(response, "\n")
	start := -1
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		for _, prefix := range []string{"module ", "sig ", "abstract sig ", "one sig ", "some sig ", "lone sig ", "open "} {
			if strings.HasPrefix(trimmed, prefix) {
				start = i
				break
			}
		}
		if start >= 0 {
			break
		}
	}
	if start < 0 {
		return "", false
	}
	return strings.TrimSpace(strings.Join(lines[start:], "\n")), true
}

func fencedBlocks(text string) []string {
	var out []string
	rest := text
	for {
		open := strings.Index(rest, "```")
		if open < 0 {
			return out
		}
		rest = rest[open+3:]
		// Skip the info string (e.g. "alloy").
		if nl := strings.Index(rest, "\n"); nl >= 0 {
			rest = rest[nl+1:]
		}
		closeIdx := strings.Index(rest, "```")
		if closeIdx < 0 {
			out = append(out, rest)
			return out
		}
		out = append(out, rest[:closeIdx])
		rest = rest[closeIdx+3:]
	}
}

// conversationView is what the simulated model recovers from a transcript.
type conversationView struct {
	originalSpec    string
	priorProposals  []string
	location        string
	fixDescription  string
	passAssertion   string
	focus           string
	counterexamples []counterexample // seen in feedback, in transcript order
	isPromptAgent   bool
	candidateSpec   string // for prompt-agent requests
	failedCommands  []string
	roundsSeen      int
}

// counterexample is one counterexample quoted in the transcript.
type counterexample struct {
	text      string // the rendered instance as quoted: its identity
	valuation map[string][][]string
}

// parseConversation recovers structured state from the raw transcript —
// exactly what a competent chat model infers from context.
func parseConversation(msgs []Message) conversationView {
	var v conversationView
	for _, m := range msgs {
		switch m.Role {
		case RoleSystem:
			if strings.Contains(m.Content, "Prompt Agent") {
				v.isPromptAgent = true
			}
		case RoleUser:
			blocks := fencedBlocks(m.Content)
			if v.isPromptAgent {
				if len(blocks) > 0 {
					v.candidateSpec = strings.TrimSpace(blocks[0])
				}
			} else if v.originalSpec == "" && len(blocks) > 0 {
				v.originalSpec = strings.TrimSpace(blocks[0])
			}
			for _, line := range strings.Split(m.Content, "\n") {
				trimmed := strings.TrimSpace(line)
				switch {
				case strings.HasPrefix(trimmed, locationMarker):
					v.location = strings.TrimSpace(strings.TrimPrefix(trimmed, locationMarker))
				case strings.HasPrefix(trimmed, fixMarker):
					v.fixDescription = strings.TrimSpace(strings.TrimPrefix(trimmed, fixMarker))
				case strings.HasPrefix(trimmed, passMarker):
					v.passAssertion = strings.TrimSpace(strings.TrimPrefix(trimmed, passMarker))
				case strings.HasPrefix(trimmed, focusMarker):
					v.focus = strings.TrimSpace(strings.TrimPrefix(trimmed, focusMarker))
				case strings.HasPrefix(trimmed, feedbackMarker):
					v.roundsSeen++
					if idx := strings.Index(trimmed, "commands still fail:"); idx >= 0 {
						names := strings.TrimSuffix(strings.TrimSpace(trimmed[idx+len("commands still fail:"):]), ".")
						for _, n := range strings.Split(names, ",") {
							if n = strings.TrimSpace(n); n != "" {
								v.failedCommands = append(v.failedCommands, n)
							}
						}
					}
				}
			}
			if strings.Contains(m.Content, cexMarker) {
				after := m.Content[strings.Index(m.Content, cexMarker)+len(cexMarker):]
				if val := ParseValuation(after); len(val) > 0 {
					v.counterexamples = append(v.counterexamples, counterexample{text: after, valuation: val})
				}
			}
		case RoleAssistant:
			if spec, ok := ExtractSpec(m.Content); ok {
				v.priorProposals = append(v.priorProposals, spec)
			}
		}
	}
	sort.Strings(v.failedCommands)
	return v
}

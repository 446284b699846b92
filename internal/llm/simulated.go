package llm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/aunit"
	"specrepair/internal/mutation"
)

// SimulatedModel is a deterministic stand-in for the study's GPT-4
// endpoint. See the package documentation for the substitution rationale.
type SimulatedModel struct {
	// Seed drives all stochastic behaviour; combined with a content hash
	// of the conversation so each problem gets its own stream.
	Seed int64
	// FormatNoise is the probability of sloppy response formatting
	// (missing fences, surrounding prose) that exercises response parsing.
	FormatNoise float64
	// WildNoise is the probability of picking a lower-ranked candidate,
	// modeling the model's fallibility.
	WildNoise float64
	// GarbageNoise is the probability of an unusable reply with no
	// extractable specification.
	GarbageNoise float64

	usage Usage
}

// NewSimulatedModel returns a model with the calibration used in the
// experiments.
func NewSimulatedModel(seed int64) *SimulatedModel {
	return &SimulatedModel{Seed: seed, FormatNoise: 0.2, WildNoise: 0.15, GarbageNoise: 0.02}
}

var _ Client = (*SimulatedModel)(nil)

// Usage returns completion statistics.
func (m *SimulatedModel) Usage() Usage { return m.usage }

// Complete implements Client.
func (m *SimulatedModel) Complete(msgs []Message) (string, error) {
	m.usage.Completions++
	v := parseConversation(msgs)
	h := fnv.New64a()
	h.Write([]byte(v.originalSpec))
	h.Write([]byte(v.candidateSpec))
	h.Write([]byte(fmt.Sprintf("r%d p%d", v.roundsSeen, len(v.priorProposals))))
	rng := rand.New(rand.NewSource(m.Seed ^ int64(h.Sum64())))

	if v.isPromptAgent {
		return m.promptAgentReply(v), nil
	}
	return m.repairReply(v, rng), nil
}

// promptAgentReply produces targeted guidance: it inspects the candidate
// and the reported counterexample, finds the constraint that fails to
// exclude it, and names it.
func (m *SimulatedModel) promptAgentReply(v conversationView) string {
	mod, err := parser.Parse(v.candidateSpec)
	if err != nil || len(v.valuations) == 0 {
		return focusMarker + " re-examine the fact constraints."
	}
	val := v.valuations[len(v.valuations)-1]
	model := aunit.Prepare(mod)
	for i, f := range mod.Facts {
		t := &aunit.Test{
			Name:      "agent_probe",
			Valuation: val,
			Formula:   printer.Expr(f.Body),
			Expect:    false, // the counterexample should be excluded
		}
		r := model.Run(t)
		if r.Err == nil && !r.Passed {
			// This fact accepted the counterexample: suspicious.
			name := f.Name
			if name == "" {
				name = fmt.Sprintf("#%d", i)
			}
			return fmt.Sprintf("%s fact %s fails to rule out the counterexample; revise it.", focusMarker, name)
		}
	}
	return focusMarker + " consider the interplay between the facts and the violated assertion."
}

// proposal is one scored candidate repair.
type proposal struct {
	source string
	score  float64
}

// repairReply generates the Repair Agent's next candidate specification.
func (m *SimulatedModel) repairReply(v conversationView, rng *rand.Rand) string {
	if rng.Float64() < m.GarbageNoise {
		return "I believe the problem lies in the constraint logic, though the " +
			"specification is largely reasonable. Could you clarify the intended behaviour?"
	}
	mod, err := parser.Parse(v.originalSpec)
	if err != nil {
		return "The specification does not parse; here is my best guess.\n" + v.originalSpec
	}
	proposals := m.generateProposals(mod, v, rng)
	if len(proposals) == 0 {
		return format(rng, m.FormatNoise, printer.Module(mod))
	}
	pick := 0
	if rng.Float64() < m.WildNoise && len(proposals) > 1 {
		limit := 5
		if len(proposals) < limit {
			limit = len(proposals)
		}
		pick = 1 + rng.Intn(limit-1+1)
		if pick >= len(proposals) {
			pick = len(proposals) - 1
		}
	}
	return format(rng, m.FormatNoise, proposals[pick].source)
}

// abstractEdit is a candidate repair before materialization: one or two
// site replacements, or a conjunct drop.
type abstractEdit struct {
	edits   []siteRepl
	dropAt  *mutation.Site
	dropIdx int
	score   float64
}

type siteRepl struct {
	site mutation.ScopedSite
	repl ast.Expr
}

// materializeWindow bounds how many candidates are fully built, printed,
// and reasoned about per completion — the model considers a shortlist, not
// the whole mutation space.
const materializeWindow = 32

// generateProposals enumerates candidate repairs with the model's pattern
// prior, applies hint/focus restrictions and counterexample reasoning, and
// returns them best-first, excluding previously proposed candidates.
//
// Ranking happens in two phases for speed: all edits are scored abstractly
// first, then only a shortlist is materialized into full specifications and
// refined with counterexample reasoning.
func (m *SimulatedModel) generateProposals(mod *ast.Module, v conversationView, rng *rand.Rand) []proposal {
	eng, err := mutation.NewEngine(mod)
	if err != nil {
		return nil
	}
	prior := map[string]bool{normalizeSpec(v.originalSpec): true}
	for _, p := range v.priorProposals {
		prior[normalizeSpec(p)] = true
	}

	// An explicit location hint pins the edit site; Prompt-Agent focus
	// guidance is advisory and only boosts the named container.
	restrict := containerFilter(v.location)
	focus := containerFilter(v.focus)

	// The Pass cue points at an assertion; constraints touching the
	// relations it mentions are likelier fix sites.
	var passRels map[string]bool
	if v.passAssertion != "" {
		if as := mod.LookupAssert(v.passAssertion); as != nil {
			passRels = map[string]bool{}
			ast.Walk(as.Body, func(e ast.Expr) bool {
				if id, ok := e.(*ast.Ident); ok {
					passRels[id.Name] = true
				}
				return true
			})
		}
	}

	// Phase 1: abstract scoring. Later rounds sample with a higher
	// temperature, widening exploration the longer the dialogue runs.
	noise := 0.45 + 0.12*float64(v.roundsSeen)
	if noise > 1.4 {
		noise = 1.4
	}
	var abstract []abstractEdit
	var singles []siteRepl
	for _, s := range eng.Sites() {
		if restrict != "" && s.Container.String() != restrict {
			continue
		}
		passBoost := 0.0
		if passRels != nil && mentionsRel(s.Node, passRels) {
			passBoost = 0.8
		}
		if focus != "" && s.Container.String() == focus {
			passBoost += 2.0
		}
		for _, c := range eng.Candidates(s, mutation.BudgetTemplates) {
			score := scoreEdit(s.Node, c) + m.hintBoost(s, c, v) + passBoost + rng.Float64()*noise
			e := siteRepl{site: s, repl: c}
			abstract = append(abstract, abstractEdit{edits: []siteRepl{e}, score: score})
			if len(singles) < 32 {
				singles = append(singles, e)
			}
		}
		if blk, ok := s.Node.(*ast.Block); ok && len(blk.Exprs) >= 2 {
			site := s.Site
			for i := range blk.Exprs {
				abstract = append(abstract, abstractEdit{
					dropAt: &site, dropIdx: i, score: 2.0 + rng.Float64()*noise,
				})
			}
		}
	}

	// After the first feedback round, also consider pairs of promising
	// single edits — how iterative prompting reaches deeper faults.
	if v.roundsSeen >= 1 && len(singles) > 1 {
		limit := 12
		if len(singles) < limit {
			limit = len(singles)
		}
		for i := 0; i < limit; i++ {
			for j := i + 1; j < limit; j++ {
				if singles[i].site.Site.String() == singles[j].site.Site.String() {
					continue
				}
				score := (scoreEdit(singles[i].site.Node, singles[i].repl) +
					scoreEdit(singles[j].site.Node, singles[j].repl)) / 2.5
				abstract = append(abstract, abstractEdit{
					edits: []siteRepl{singles[i], singles[j]},
					score: score + rng.Float64()*0.45,
				})
			}
		}
	}

	// Rank by score, best first, ties in enumeration order. Sorting indices
	// gives the same order as a stable sort without moving the edits.
	order := make([]int, len(abstract))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if abstract[i].score != abstract[j].score {
			return abstract[i].score > abstract[j].score
		}
		return i < j
	})

	// Phase 2: materialize the shortlist, skipping prior proposals, and
	// refine with counterexample reasoning.
	var scored []proposal
	for _, i := range order {
		if len(scored) >= materializeWindow {
			break
		}
		ae := abstract[i]
		cand := m.materialize(eng, ae)
		if cand == nil {
			continue
		}
		src := printer.Module(cand)
		if prior[src] {
			continue
		}
		prior[src] = true
		scored = append(scored, proposal{source: src, score: ae.score + m.cexAdjustment(cand, v, rng)})
	}

	sort.SliceStable(scored, func(i, j int) bool {
		if scored[i].score != scored[j].score {
			return scored[i].score > scored[j].score
		}
		return scored[i].source < scored[j].source
	})
	return scored
}

func (m *SimulatedModel) materialize(eng *mutation.Engine, ae abstractEdit) *ast.Module {
	if ae.dropAt != nil {
		mods, err := mutation.DropConjunct(eng.Mod, *ae.dropAt)
		if err != nil || ae.dropIdx >= len(mods) {
			return nil
		}
		return mods[ae.dropIdx]
	}
	cand, err := eng.Apply(ae.edits[0].site.Site, ae.edits[0].repl)
	if err != nil {
		return nil
	}
	for _, e := range ae.edits[1:] {
		cand, err = mutation.Apply(cand, e.site.Site, e.repl)
		if err != nil {
			return nil
		}
	}
	return cand
}

// cexAdjustment penalizes candidates whose facts still admit a reported
// counterexample — the reasoning step feedback enables. Like a real model,
// it sometimes misreads the instance and skips the check, and the signal
// nudges rather than dictates the ranking.
func (m *SimulatedModel) cexAdjustment(cand *ast.Module, v conversationView, rng *rand.Rand) float64 {
	if len(v.valuations) == 0 {
		return 0
	}
	adj := 0.0
	var model *aunit.Model // lowered on first use: misread valuations skip it
	for _, val := range v.valuations {
		if rng.Float64() < 0.3 {
			continue // misread the counterexample
		}
		if model == nil {
			model = aunit.Prepare(cand)
		}
		t := &aunit.Test{Name: "model_probe", Valuation: val, Formula: aunit.FactsFormula, Expect: false}
		r := model.Run(t)
		if r.Err != nil {
			continue
		}
		if !r.Passed {
			adj -= 2.5 // candidate still accepts the counterexample
		} else {
			adj += 0.6
		}
	}
	return adj
}

// hintBoost rewards candidates matching an explicit fix suggestion of the
// form "replace `X` with `Y`", and mildly rewards edits in constraints
// mentioning relations of the required assertion.
func (m *SimulatedModel) hintBoost(s mutation.ScopedSite, repl ast.Expr, v conversationView) float64 {
	boost := 0.0
	if v.fixDescription != "" {
		// The fix comment is a helpful but imperfect cue: it raises the
		// described edit in the ranking without guaranteeing it wins.
		from, to := parseFixSuggestion(v.fixDescription)
		if from != "" && printer.Expr(s.Node) == from && printer.Expr(repl) == to {
			boost += 1.2
		} else if to != "" && printer.Expr(repl) == to {
			boost += 0.5
		}
	}
	return boost
}

// mentionsRel reports whether the expression references one of the named
// relations.
func mentionsRel(e ast.Expr, names map[string]bool) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if id, ok := x.(*ast.Ident); ok && names[id.Name] {
			found = true
			return false
		}
		return !found
	})
	return found
}

// parseFixSuggestion extracts the two backquoted snippets of a
// "replace `X` with `Y`" suggestion.
func parseFixSuggestion(desc string) (from, to string) {
	parts := strings.Split(desc, "`")
	if len(parts) >= 5 {
		return parts[1], parts[3]
	}
	return "", ""
}

// containerFilter normalizes a location hint ("fact Links", "pred checkIn")
// to the mutation container naming.
func containerFilter(hint string) string {
	hint = strings.TrimSpace(hint)
	if hint == "" {
		return ""
	}
	fields := strings.Fields(hint)
	if len(fields) >= 2 {
		kind := strings.ToLower(strings.Trim(fields[0], ".,;"))
		name := strings.Trim(fields[1], ".,;`")
		switch kind {
		case "fact", "pred", "fun", "assert":
			return kind + " " + name
		}
	}
	// Free-form location hints ("the fact Links is wrong"): look for a
	// kind keyword followed by a name.
	for i := 0; i+1 < len(fields); i++ {
		kind := strings.ToLower(strings.Trim(fields[i], ".,;"))
		if kind == "fact" || kind == "pred" || kind == "fun" {
			return kind + " " + strings.Trim(fields[i+1], ".,;`")
		}
	}
	return ""
}

// scoreEdit is the pattern prior: how plausible an edit class is as a fix
// for a faulty Alloy constraint.
func scoreEdit(orig ast.Expr, repl ast.Expr) float64 {
	switch o := orig.(type) {
	case *ast.Binary:
		if r, ok := repl.(*ast.Binary); ok {
			switch {
			case polarityFlip(o.Op, r.Op):
				return 3.0
			case o.Op.IsLogical() && r.Op.IsLogical():
				return 1.2
			case o.Op == r.Op:
				return 1.0 // operand swap
			default:
				return 1.4
			}
		}
	case *ast.Quantified:
		if _, ok := repl.(*ast.Quantified); ok {
			return 2.0
		}
	case *ast.Unary:
		if o.Op == ast.UnNot {
			return 2.2 // dropping a negation
		}
		if _, ok := repl.(*ast.Unary); ok {
			return 1.6
		}
	case *ast.IntLit:
		return 1.3
	case *ast.Ident:
		if _, ok := repl.(*ast.Ident); ok {
			return 1.8
		}
	}
	if u, ok := repl.(*ast.Unary); ok && u.Op == ast.UnNot {
		return 2.2 // adding a negation
	}
	return 0.6
}

func polarityFlip(a, b ast.BinOp) bool {
	flip := func(x, y ast.BinOp) bool {
		return a == x && b == y || a == y && b == x
	}
	return flip(ast.BinIn, ast.BinNotIn) || flip(ast.BinEq, ast.BinNotEq) ||
		flip(ast.BinLt, ast.BinGtEq) || flip(ast.BinGt, ast.BinLtEq) ||
		flip(ast.BinLt, ast.BinGt) || flip(ast.BinLtEq, ast.BinGtEq)
}

// normalizeSpec canonicalizes a spec for duplicate detection.
func normalizeSpec(src string) string {
	mod, err := parser.Parse(src)
	if err != nil {
		return strings.TrimSpace(src)
	}
	return printer.Module(mod)
}

// format renders the chosen specification with realistic response framing.
func format(rng *rand.Rand, noise float64, spec string) string {
	if rng.Float64() >= noise {
		return "Here is the repaired specification:\n```alloy\n" + spec + "\n```"
	}
	switch rng.Intn(3) {
	case 0:
		// Unfenced, preceded by prose; ExtractSpec's fallback handles it.
		return "The issue is an incorrect constraint. The corrected model follows.\n\n" + spec
	case 1:
		// Fence without a language tag.
		return "```\n" + spec + "\n```\nThis should resolve the failing check."
	default:
		// Trailing commentary after the fence.
		return "```alloy\n" + spec + "\n```\nNote that I adjusted one constraint; the rest is unchanged."
	}
}

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
// It is not safe for concurrent use.
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

	// memo caches the candidate space of the conversation in progress; see
	// conversationMemo. EndConversation releases it.
	memo *conversationMemo
}

// NewSimulatedModel returns a model with the calibration used in the
// experiments.
func NewSimulatedModel(seed int64) *SimulatedModel {
	return &SimulatedModel{Seed: seed, FormatNoise: 0.2, WildNoise: 0.15, GarbageNoise: 0.02}
}

var _ Client = (*SimulatedModel)(nil)

// EndConversation releases what the model keeps for the conversation in
// progress. Repair loops call it once a conversation is over, so a model
// that serves many problems holds no memo between them.
func (m *SimulatedModel) EndConversation() { m.memo = nil }

// Complete implements Client.
func (m *SimulatedModel) Complete(msgs []Message) (string, error) {
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
	if err != nil || len(v.counterexamples) == 0 {
		return focusMarker + " re-examine the fact constraints."
	}
	val := v.counterexamples[len(v.counterexamples)-1].valuation
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
	c := m.conversation(v.originalSpec)
	if c.mod == nil {
		return "The specification does not parse; here is my best guess.\n" + v.originalSpec
	}
	proposals := c.proposals(v, rng)
	if len(proposals) == 0 {
		return format(rng, m.FormatNoise, c.emit(c.printed))
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
	return format(rng, m.FormatNoise, c.emit(proposals[pick].source))
}

// conversation returns the memo for the conversation about spec, replacing
// a memo kept for a different spec.
func (m *SimulatedModel) conversation(spec string) *conversationMemo {
	if m.memo == nil || m.memo.spec != spec {
		m.memo = newConversationMemo(spec)
	}
	return m.memo
}

// conversationMemo holds what a repair reply derives from the faulty spec
// alone, so the later rounds of a conversation reuse it instead of
// rebuilding it: the parse, the mutation engine and its candidates, the
// normalized prior proposals, each shortlisted edit's printed source, each
// counterexample's probe test, and each (edit, counterexample) verdict. Every entry is a pure function of its
// key — the spec text, site and candidate indices in the memo's own engine,
// a proposal's text, a counterexample's text — never of a position in the
// transcript, so a model answers exactly as a fresh one would whatever
// conversations interleave on it. The rng draws stay in the same order
// whether an entry is computed or reused.
//
// A source the model emits is a printed module, which printing reproduces
// from its own parse, so emit records it as the normalization of its
// trimmed text: the proposal a later round quotes back is then a map hit,
// not a parse and a print. The memo keeps no per-reply scratch: one model
// serves many conversations, and held buffers would outlive the reply that
// needed them.
type conversationMemo struct {
	spec    string      // the original spec text: the memo's key
	mod     *ast.Module // the parsed spec; nil when it does not parse
	printed string      // mod printed, the normalized original
	eng     *mutation.Engine
	sites   []memoSite // parallel to eng.Sites()
	// tests prepares edits for judging against counterexamples, lowering
	// each against eng's base.
	tests *aunit.Base

	normalized map[string]string // prior proposal -> normalizeSpec of it
	edits      map[editKey]*builtEdit
	verdicts   map[verdictKey]float64
	// probes holds the probe test of each counterexample text. A test
	// resolves its valuation on its first run and keeps it, so each
	// counterexample is resolved once per conversation, not once per edit
	// judged against it.
	probes map[string]*aunit.Test
}

// memoSite caches one engine site's strings and candidates, each built on
// first use.
type memoSite struct {
	container string
	site      string
	expr      string // the site's node printed, for fix suggestions
	cands     []ast.Expr
	candsDone bool
}

// editKey names an abstract edit: candidate cand at site, then, for a pair,
// candidate cand2 at site2 (site2 is -1 for a single edit); for a conjunct
// drop, cand is the index of the conjunct dropped from the block at site.
type editKey struct {
	site, cand   int
	site2, cand2 int
	drop         bool
}

// builtEdit is a materialized edit; mod is nil when the edit does not apply.
type builtEdit struct {
	mod *ast.Module
	src string // mod printed
}

type verdictKey struct {
	edit editKey
	cex  string // the counterexample's text
}

func newConversationMemo(spec string) *conversationMemo {
	c := &conversationMemo{
		spec:       spec,
		normalized: map[string]string{},
		edits:      map[editKey]*builtEdit{},
		verdicts:   map[verdictKey]float64{},
		probes:     map[string]*aunit.Test{},
	}
	mod, err := parser.Parse(spec)
	if err != nil {
		return c
	}
	c.mod = mod
	c.printed = printer.Module(mod)
	if eng, err := mutation.NewEngine(mod); err == nil {
		c.eng = eng
		c.tests = aunit.NewBase(eng.Base())
		c.sites = make([]memoSite, len(eng.Sites()))
	}
	return c
}

func (c *conversationMemo) container(i int) string {
	if c.sites[i].container == "" {
		c.sites[i].container = c.eng.Sites()[i].Container.String()
	}
	return c.sites[i].container
}

func (c *conversationMemo) siteString(i int) string {
	if c.sites[i].site == "" {
		c.sites[i].site = c.eng.Sites()[i].Site.String()
	}
	return c.sites[i].site
}

func (c *conversationMemo) siteExpr(i int) string {
	if c.sites[i].expr == "" {
		c.sites[i].expr = printer.Expr(c.eng.Sites()[i].Node)
	}
	return c.sites[i].expr
}

func (c *conversationMemo) candidates(i int) []ast.Expr {
	ms := &c.sites[i]
	if !ms.candsDone {
		ms.cands = c.eng.Candidates(c.eng.Sites()[i], mutation.BudgetTemplates)
		ms.candsDone = true
	}
	return ms.cands
}

func (c *conversationMemo) normalize(src string) string {
	n, ok := c.normalized[src]
	if !ok {
		n = normalizeSpec(src)
		c.normalized[src] = n
	}
	return n
}

// emit returns src, a printed module the reply proposes, recording it as
// the normalization of the text a later round extracts from the reply.
func (c *conversationMemo) emit(src string) string {
	c.normalized[strings.TrimSpace(src)] = src
	return src
}

// abstractEdit is a candidate repair before materialization.
type abstractEdit struct {
	key   editKey
	score float64
}

// materializeWindow bounds how many candidates are fully built, printed,
// and reasoned about per completion — the model considers a shortlist, not
// the whole mutation space.
const materializeWindow = 32

// pairLimit bounds how many of the first single edits pair up after the
// first feedback round.
const pairLimit = 12

// editBound bounds the abstract edits a reply scores, so their slice is
// allocated once: one per candidate and per dropped conjunct at each site
// the reply may edit, plus the pairs.
func (c *conversationMemo) editBound(restrict string, roundsSeen int) int {
	n := 0
	for si, s := range c.eng.Sites() {
		if restrict != "" && c.container(si) != restrict {
			continue
		}
		n += len(c.candidates(si))
		if blk, ok := s.Node.(*ast.Block); ok && len(blk.Exprs) >= 2 {
			n += len(blk.Exprs)
		}
	}
	if roundsSeen >= 1 {
		n += pairLimit * (pairLimit - 1) / 2
	}
	return n
}

// proposals enumerates candidate repairs with the model's pattern prior,
// applies hint/focus restrictions and counterexample reasoning, and returns
// them best-first, excluding previously proposed candidates.
//
// Ranking happens in two phases for speed: all edits are scored abstractly
// first, then only a shortlist is materialized into full specifications and
// refined with counterexample reasoning.
func (c *conversationMemo) proposals(v conversationView, rng *rand.Rand) []proposal {
	if c.eng == nil {
		return nil
	}
	prior := map[string]bool{c.printed: true}
	for _, p := range v.priorProposals {
		prior[c.normalize(p)] = true
	}

	// An explicit location hint pins the edit site; Prompt-Agent focus
	// guidance is advisory and only boosts the named container.
	restrict := containerFilter(v.location)
	focus := containerFilter(v.focus)

	// The Pass cue points at an assertion; constraints touching the
	// relations it mentions are likelier fix sites.
	var passRels map[string]bool
	if v.passAssertion != "" {
		if as := c.mod.LookupAssert(v.passAssertion); as != nil {
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
	from, to := parseFixSuggestion(v.fixDescription)
	type single struct {
		key     editKey
		pattern float64 // scoreEdit of the edit
	}
	abstract := make([]abstractEdit, 0, c.editBound(restrict, v.roundsSeen))
	var singleBuf [32]single
	singles := singleBuf[:0]
	for si, s := range c.eng.Sites() {
		if restrict != "" && c.container(si) != restrict {
			continue
		}
		passBoost := 0.0
		if passRels != nil && mentionsRel(s.Node, passRels) {
			passBoost = 0.8
		}
		if focus != "" && c.container(si) == focus {
			passBoost += 2.0
		}
		for ci, repl := range c.candidates(si) {
			pattern := scoreEdit(s.Node, repl)
			score := pattern + c.hintBoost(si, repl, from, to) + passBoost + rng.Float64()*noise
			k := editKey{site: si, cand: ci, site2: -1}
			abstract = append(abstract, abstractEdit{key: k, score: score})
			if len(singles) < len(singleBuf) {
				singles = append(singles, single{k, pattern})
			}
		}
		if blk, ok := s.Node.(*ast.Block); ok && len(blk.Exprs) >= 2 {
			for i := range blk.Exprs {
				abstract = append(abstract, abstractEdit{
					key:   editKey{site: si, cand: i, site2: -1, drop: true},
					score: 2.0 + rng.Float64()*noise,
				})
			}
		}
	}

	// After the first feedback round, also consider pairs of promising
	// single edits — how iterative prompting reaches deeper faults.
	if v.roundsSeen >= 1 && len(singles) > 1 {
		limit := pairLimit
		if len(singles) < limit {
			limit = len(singles)
		}
		for i := 0; i < limit; i++ {
			for j := i + 1; j < limit; j++ {
				a, b := singles[i], singles[j]
				if c.siteString(a.key.site) == c.siteString(b.key.site) {
					continue
				}
				abstract = append(abstract, abstractEdit{
					key:   editKey{site: a.key.site, cand: a.key.cand, site2: b.key.site, cand2: b.key.cand},
					score: (a.pattern+b.pattern)/2.5 + rng.Float64()*0.45,
				})
			}
		}
	}

	// Phase 2: materialize the shortlist best first, skipping prior
	// proposals, and refine with counterexample reasoning. Only the popped
	// prefix of the ranking is ever ordered.
	var scored []proposal
	rank := newRanking(abstract)
	for len(scored) < materializeWindow {
		i, ok := rank.pop()
		if !ok {
			break
		}
		ae := abstract[i]
		b := c.build(ae.key)
		if b.mod == nil || prior[b.src] {
			continue
		}
		prior[b.src] = true
		scored = append(scored, proposal{source: b.src, score: ae.score + c.cexAdjustment(ae.key, b, v, rng)})
	}

	sort.SliceStable(scored, func(i, j int) bool {
		if scored[i].score != scored[j].score {
			return scored[i].score > scored[j].score
		}
		return scored[i].source < scored[j].source
	})
	return scored
}

// ranking pops the indices of a slice of abstract edits best first: score
// descending, ties in enumeration order. That key is a total order, so the
// pops follow exactly the order a full sort gives, but a heap orders only
// what is popped: a reply materializes a shortlist, not the whole space.
type ranking struct {
	edits []abstractEdit
	heap  []int32
}

func newRanking(edits []abstractEdit) *ranking {
	r := &ranking{edits: edits, heap: make([]int32, len(edits))}
	for i := range r.heap {
		r.heap[i] = int32(i)
	}
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
	return r
}

// before reports whether edit i ranks ahead of edit j.
func (r *ranking) before(i, j int32) bool {
	if si, sj := r.edits[i].score, r.edits[j].score; si != sj {
		return si > sj
	}
	return i < j
}

func (r *ranking) down(i int) {
	h := r.heap
	for {
		best := i
		if l := 2*i + 1; l < len(h) && r.before(h[l], h[best]) {
			best = l
		}
		if rt := 2*i + 2; rt < len(h) && r.before(h[rt], h[best]) {
			best = rt
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// pop returns the best remaining index; ok is false once all are popped.
func (r *ranking) pop() (i int, ok bool) {
	if len(r.heap) == 0 {
		return 0, false
	}
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	r.down(0)
	return int(top), true
}

// build returns the edit materialized and printed, building it on first use.
func (c *conversationMemo) build(k editKey) *builtEdit {
	if b, ok := c.edits[k]; ok {
		return b
	}
	b := &builtEdit{mod: c.materialize(k)}
	if b.mod != nil {
		b.src = printer.Module(b.mod)
	}
	c.edits[k] = b
	return b
}

func (c *conversationMemo) materialize(k editKey) *ast.Module {
	sites := c.eng.Sites()
	s := sites[k.site]
	if k.drop {
		drops, err := mutation.DropConjunct(c.eng.Mod, s.Site)
		if err != nil || k.cand >= len(drops) {
			return nil
		}
		return drops[k.cand]
	}
	cand, err := c.eng.Apply(s.Site, c.candidates(k.site)[k.cand])
	if err != nil {
		return nil
	}
	if k.site2 >= 0 {
		cand, err = mutation.Apply(cand, sites[k.site2].Site, c.candidates(k.site2)[k.cand2])
		if err != nil {
			return nil
		}
	}
	return cand
}

// cexAdjustment penalizes candidates whose facts still admit a reported
// counterexample — the reasoning step feedback enables. Like a real model,
// it sometimes misreads the instance and skips the check, and the signal
// nudges rather than dictates the ranking. Verdicts are memoized per
// (edit, counterexample text).
func (c *conversationMemo) cexAdjustment(k editKey, b *builtEdit, v conversationView, rng *rand.Rand) float64 {
	adj := 0.0
	var model *aunit.Model // lowered on first use: misread or judged counterexamples skip it
	for _, cex := range v.counterexamples {
		if rng.Float64() < 0.3 {
			continue // misread the counterexample
		}
		vk := verdictKey{edit: k, cex: cex.text}
		d, ok := c.verdicts[vk]
		if !ok {
			if model == nil {
				model = c.tests.Prepare(b.mod)
			}
			p, ok := c.probes[cex.text]
			if !ok {
				p = probe(cex.valuation)
				c.probes[cex.text] = p
			}
			d = judge(model, p)
			c.verdicts[vk] = d
		}
		adj += d
	}
	return adj
}

// probe returns the test that asks whether a model's facts rule out the
// counterexample valuation.
func probe(valuation map[string][][]string) *aunit.Test {
	return &aunit.Test{Name: "model_probe", Valuation: valuation, Formula: aunit.FactsFormula, Expect: false}
}

// judge scores a candidate against one counterexample, given as its probe
// test: a penalty if its facts still accept it, a small reward if they rule
// it out, nothing if the check fails to run.
func judge(model *aunit.Model, t *aunit.Test) float64 {
	switch r := model.Run(t); {
	case r.Err != nil:
		return 0
	case !r.Passed:
		return -2.5 // candidate still accepts the counterexample
	default:
		return 0.6
	}
}

// hintBoost rewards candidates matching an explicit fix suggestion of the
// form "replace `X` with `Y`" (from and to, as parseFixSuggestion splits
// it): the fix comment is a helpful but imperfect cue, so it raises the
// described edit in the ranking without guaranteeing it wins.
func (c *conversationMemo) hintBoost(site int, repl ast.Expr, from, to string) float64 {
	if from == "" && to == "" {
		return 0
	}
	switch {
	case printer.Expr(repl) != to:
		return 0
	case from != "" && c.siteExpr(site) == from:
		return 1.2
	case to != "":
		return 0.5
	}
	return 0
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

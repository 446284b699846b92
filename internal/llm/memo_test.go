package llm

import (
	"testing"

	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/analyzer"
	"specrepair/internal/aunit"
	"specrepair/internal/bench"
	"specrepair/internal/instance"
)

// dialog drives one Multi-Round conversation as the llmrepair loop does: a
// repair completion, an analyzer verdict, and feedback — for Auto, guidance
// from a Prompt-Agent completion on the same model. Unlike the loop, it
// decodes every verdict with ExecuteAll and gives feedback after every
// round; the repair requests are the same.
type dialog struct {
	an       *analyzer.Analyzer
	feedback FeedbackKind
	msgs     []Message
	replies  []string
	done     bool
}

func newDialog(an *analyzer.Analyzer, sp *bench.Spec, fb FeedbackKind) *dialog {
	return &dialog{an: an, feedback: fb, msgs: []Message{
		{Role: RoleSystem, Content: RepairSystemPrompt},
		{Role: RoleUser, Content: BuildRepairPrompt(printer.Module(sp.Faulty), PromptOptions{})},
	}}
}

// step runs one round, taking the model for each completion from next.
func (d *dialog) step(t testing.TB, next func() *SimulatedModel) {
	t.Helper()
	if d.done {
		return
	}
	complete := func(msgs []Message) string {
		reply, err := next().Complete(msgs)
		if err != nil {
			t.Fatal(err)
		}
		d.replies = append(d.replies, reply)
		return reply
	}
	reply := complete(d.msgs)
	d.msgs = append(d.msgs, Message{Role: RoleAssistant, Content: reply})
	feedback := BuildNoFeedback()
	if src, ok := ExtractSpec(reply); ok {
		if cand, err := parser.Parse(src); err == nil {
			results, err := d.an.ExecuteAll(cand)
			if err != nil {
				t.Fatal(err)
			}
			var failed []string
			var cex *instance.Instance
			for _, r := range results {
				if !r.Passed() {
					failed = append(failed, r.Command.Name)
					if cex == nil && r.Sat {
						cex = r.Instance
					}
				}
			}
			if len(failed) == 0 {
				d.done = true
				return
			}
			feedback = BuildGenericFeedback(failed, cex)
			if d.feedback == FeedbackAuto {
				guidance := complete([]Message{
					{Role: RoleSystem, Content: PromptAgentSystemPrompt},
					{Role: RoleUser, Content: BuildPromptAgentRequest(src, failed, cex)},
				})
				feedback = BuildAutoFeedback(guidance, failed, cex)
			}
		}
	}
	d.msgs = append(d.msgs, Message{Role: RoleUser, Content: feedback})
}

const memoRounds = 8

// memoSpecs returns an A4F spec whose conversations drop conjuncts and
// judge many counterexamples, and an ARepair spec small enough that pairs of
// edits reach the shortlist.
func memoSpecs(t testing.TB) (a4f, ar *bench.Spec) {
	t.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 400
	s1, s2, err := g.Both()
	if err != nil {
		t.Fatal(err)
	}
	find := func(s *bench.Suite, name string) *bench.Spec {
		for _, sp := range s.Specs {
			if sp.Name == name {
				return sp
			}
		}
		t.Fatalf("spec %s missing", name)
		return nil
	}
	return find(s1, "graphs/0000"), find(s2, "addr/0000")
}

// TestMemoMatchesFreshModel checks that the conversation memo never changes
// a reply: a transcript driven by one model across all rounds, by a fresh
// model per completion, and by one model that serves a second conversation
// between rounds (on the same spec or on another) gets identical replies.
func TestMemoMatchesFreshModel(t *testing.T) {
	const seed = 5
	an := analyzer.New(analyzer.Options{})
	a4f, ar := memoSpecs(t)
	fresh := func() *SimulatedModel { return NewSimulatedModel(seed) }

	// Reference replies: a fresh model per completion.
	type conf struct {
		sp *bench.Spec
		fb FeedbackKind
	}
	confs := []conf{{a4f, FeedbackGeneric}, {a4f, FeedbackAuto}, {ar, FeedbackGeneric}, {ar, FeedbackAuto}}
	want := map[conf][]string{}
	for _, c := range confs {
		d := newDialog(an, c.sp, c.fb)
		for r := 0; r < memoRounds; r++ {
			d.step(t, fresh)
		}
		if len(d.replies) < 2 {
			t.Fatalf("%s %s: only %d completions; the memo is never reused", c.sp.Name, c.fb, len(d.replies))
		}
		want[c] = d.replies
	}
	check := func(label string, c conf, got []string) {
		t.Helper()
		w := want[c]
		if len(got) != len(w) {
			t.Fatalf("%s %s %s: %d completions, fresh models gave %d", label, c.sp.Name, c.fb, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s %s %s: completion %d differs from a fresh model's\ngot:\n%s\nwant:\n%s",
					label, c.sp.Name, c.fb, i, got[i], w[i])
			}
		}
	}

	// One model across every round of one conversation.
	for _, c := range confs {
		m := fresh()
		d := newDialog(an, c.sp, c.fb)
		for r := 0; r < memoRounds; r++ {
			d.step(t, func() *SimulatedModel { return m })
		}
		check("one model", c, d.replies)
		checkPure(t, m.memo)
		m.EndConversation()
		if m.memo != nil {
			t.Errorf("%s %s: memo kept after EndConversation", c.sp.Name, c.fb)
		}
	}

	// One model, two conversations interleaved round by round.
	for _, pair := range [][2]conf{
		{{a4f, FeedbackGeneric}, {a4f, FeedbackAuto}}, // same spec
		{{ar, FeedbackAuto}, {ar, FeedbackGeneric}},   // same spec
		{{a4f, FeedbackGeneric}, {ar, FeedbackAuto}},  // different specs
		{{ar, FeedbackGeneric}, {a4f, FeedbackAuto}},  // different specs
	} {
		m := fresh()
		use := func() *SimulatedModel { return m }
		d1, d2 := newDialog(an, pair[0].sp, pair[0].fb), newDialog(an, pair[1].sp, pair[1].fb)
		for r := 0; r < memoRounds; r++ {
			d1.step(t, use)
			d2.step(t, use)
		}
		check("interleaved", pair[0], d1.replies)
		check("interleaved", pair[1], d2.replies)
	}
}

// checkPure rebuilds every edit and verdict the memo holds from its key
// alone, in a fresh memo, and fails on any difference.
func checkPure(t *testing.T, c *conversationMemo) {
	t.Helper()
	fresh := newConversationMemo(c.spec)
	for k, b := range c.edits {
		if f := fresh.build(k); f.src != b.src || (f.mod == nil) != (b.mod == nil) {
			t.Fatalf("edit %+v: memo holds a different build than its key gives", k)
		}
	}
	for k, d := range c.verdicts {
		if f := verdict(aunit.Prepare(fresh.build(k.edit).mod), ParseValuation(k.cex)); f != d {
			t.Fatalf("verdict %+v: memo holds %v, its key gives %v", k.edit, d, f)
		}
	}
	for k, n := range c.normalized {
		if f := normalizeSpec(k); f != n {
			t.Fatalf("normalization of %q: memo holds\n%s\nits key gives\n%s", k, n, f)
		}
	}
	if len(c.edits) == 0 || len(c.verdicts) == 0 {
		t.Fatalf("memo holds %d edits and %d verdicts; the conversation never reused it", len(c.edits), len(c.verdicts))
	}
}

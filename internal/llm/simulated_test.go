package llm

import (
	"math/rand"
	"sort"
	"testing"

	"specrepair/internal/analyzer"
)

// TestRankingMatchesStableSort checks that the heap pops edits in exactly
// the order a stable sort on descending score gives, ties included, for
// fewer and more edits than a shortlist holds.
func TestRankingMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name  string
		score func(i int) float64
	}{
		{"distinct", func(int) float64 { return rng.Float64() }},
		{"ties", func(int) float64 { return float64(rng.Intn(4)) }},
		{"all equal", func(int) float64 { return 1.5 }},
		{"ascending", func(i int) float64 { return float64(i) }},
	} {
		name, score := c.name, c.score
		for _, n := range []int{0, 1, 2, 5, materializeWindow - 1, materializeWindow, materializeWindow + 1, 200} {
			edits := make([]abstractEdit, n)
			for i := range edits {
				edits[i] = abstractEdit{key: editKey{cand: i}, score: score(i)}
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return edits[want[a]].score > edits[want[b]].score })
			rank := newRanking(edits)
			for k, w := range want {
				got, ok := rank.pop()
				if !ok || got != w {
					t.Fatalf("%s, n=%d: pop %d gave %d (ok=%v), stable sort gives %d", name, n, k, got, ok, w)
				}
			}
			if _, ok := rank.pop(); ok {
				t.Fatalf("%s, n=%d: pop after the last edit succeeded", name, n)
			}
		}
	}
}

// BenchmarkSimulatedReply replays the repair completions of a 12-round
// Generic conversation over an A4F spec on a fresh model per iteration:
// the simulator's own cost, without the analyzer verdicts between rounds.
func BenchmarkSimulatedReply(b *testing.B) {
	a4f, _ := memoSpecs(b)
	d := newDialog(analyzer.New(analyzer.Options{}), a4f, FeedbackGeneric)
	m := NewSimulatedModel(5)
	for r := 0; r < 12; r++ {
		d.step(b, func() *SimulatedModel { return m })
	}
	// Completion k saw the system prompt, the repair prompt and k earlier
	// (reply, feedback) pairs.
	var transcripts [][]Message
	for k := range d.replies {
		transcripts = append(transcripts, d.msgs[:2+2*k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewSimulatedModel(5)
		for _, msgs := range transcripts {
			if _, err := m.Complete(msgs); err != nil {
				b.Fatal(err)
			}
		}
		m.EndConversation()
	}
	b.ReportMetric(float64(len(transcripts)), "replies/op")
}
